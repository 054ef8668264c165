"""Photon-stream generation against an exact two-detector Markov oracle.

The heralding arm is a small Markov chain: the state is the pair of
blind-slot counters of the two detectors.  The oracle below builds the
full transition matrix of that chain, solves for its stationary
distribution, and reports the exact steady-state herald probability.
The simulation's empirical herald fraction must agree within sampling
error for any parameter set.
"""

from collections import Counter
import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from photondemux import source
from photondemux.model import MAX_SLOTS, SourceParams
from photondemux.source import (
    HeraldStream,
    RngStream,
    _apply_deadtime,
    expected_peak_bytes,
    generate_herald_stream,
    herald_block_histogram,
    run_starts_from_heralds,
)
from source_oracle import absolute_members, dense_herald_stream, loop_two_detectors, stream_triggers, two_pair_law


def herald_chain(pair_prob, eff, ratio, deadtime, n=1):
    """Transition matrix of the two-detector arm, and per-state herald and trigger probabilities.

    State (a, b, r): blind slots remaining for detectors A and B at the
    current slot (0 = live), and the length mod n of the block of
    consecutive heralds that ended at the previous slot.  Per slot, a
    pair arrives with probability pair_prob, its idler picks A with
    probability ratio, and a live chosen detector fires with probability
    eff, resetting its counter to the deadtime; all counters otherwise
    decrement.  A herald moves r to (r + 1) mod n, and it is a trigger
    when it closes the n-th herald in a row (r = n - 1); a slot without
    a herald moves r to 0.
    """
    d = deadtime
    k = d + 1
    states = [(a, b, r) for a in range(k) for b in range(k) for r in range(n)]
    index = {s: i for i, s in enumerate(states)}
    t_matrix = np.zeros((len(states), len(states)))
    herald_prob = np.zeros(len(states))
    trigger_prob = np.zeros(len(states))
    for (a, b, r), i in index.items():
        a_dec, b_dec = max(a - 1, 0), max(b - 1, 0)
        moves = [(1.0 - pair_prob, (a_dec, b_dec), 0.0)]
        for to_a, weight in ((True, pair_prob * ratio), (False, pair_prob * (1 - ratio))):
            counter = a if to_a else b
            if counter == 0 and eff > 0:
                fired = (d, b_dec) if to_a else (a_dec, d)
                moves.append((weight * eff, fired, 1.0))
                moves.append((weight * (1 - eff), (a_dec, b_dec), 0.0))
            else:
                moves.append((weight, (a_dec, b_dec), 0.0))
        for prob, dest, fired in moves:
            t_matrix[i, index[(*dest, (r + 1) % n if fired else 0)]] += prob
            herald_prob[i] += prob * fired
            trigger_prob[i] += prob * fired * (r == n - 1)
    return t_matrix, herald_prob, trigger_prob


def stationary_law(t_matrix):
    """Stationary distribution: left eigenvector, found by linear solve."""
    size = t_matrix.shape[0]
    m = np.vstack([t_matrix.T - np.eye(size), np.ones(size)])
    rhs = np.zeros(size + 1)
    rhs[-1] = 1.0
    pi, *_ = np.linalg.lstsq(m, rhs, rcond=None)
    return pi


def stationary_herald_probability(pair_prob, eff, ratio, deadtime):
    """Exact steady-state herald probability of the two-detector arm."""
    t_matrix, herald_prob, _ = herald_chain(pair_prob, eff, ratio, deadtime)
    return float(stationary_law(t_matrix) @ herald_prob)


def expected_triggers(pair_prob, eff, ratio, deadtime, n, n_slots):
    """Exact mean number of n-herald triggers in ``n_slots`` slots.

    The range starts with both detectors live and no open block; the
    chain's law is stepped slot by slot until it is stationary, and the
    stationary trigger rate covers the remaining slots.
    """
    t_matrix, _, trigger_prob = herald_chain(pair_prob, eff, ratio, deadtime, n)
    pi = stationary_law(t_matrix)
    law = np.zeros(t_matrix.shape[0])
    law[0] = 1.0  # state (0, 0, 0)
    total = 0.0
    for slot in range(n_slots):
        if np.abs(law - pi).sum() < 1e-13:
            return total + (n_slots - slot) * float(pi @ trigger_prob)
        total += float(law @ trigger_prob)
        law = law @ t_matrix
    return total


def muller_herald_probability(pair_prob, eff, ratio, deadtime):
    """Per-slot herald probability of two non-paralyzable detectors.

    Detector i sees a successful arrival with probability r_i per slot;
    after a fire it waits out ``deadtime`` blind slots and then a
    geometric wait of mean 1/r_i, so it fires at r_i / (1 + r_i d)
    (J. W. Mueller, Nucl. Instrum. Methods 112, 47 (1973)).
    """
    rates = (pair_prob * ratio * eff, pair_prob * (1 - ratio) * eff)
    return sum(r / (1 + r * deadtime) for r in rates)


# (pair_prob, herald_det_efficiency, herald_splitter_ratio, deadtime)
OPERATING_POINTS = [
    (0.3, 1.0, 0.5, 4),
    (0.8, 0.6, 0.5, 2),
    (0.5, 0.9, 0.3, 3),
    (1.0, 1.0, 0.0, 4),  # single working detector
    (0.2, 1.0, 0.5, 0),
]


def make_params(**overrides):
    base = dict(pair_prob=0.02, rep_rate_hz=82e6, herald_deadtime_slots=4)
    base.update(overrides)
    return SourceParams(**base)


def cluster_sizes(slots: np.ndarray, window: int) -> np.ndarray:
    """Pairs per cluster (gaps <= ``window``) of sorted ``slots``."""
    breaks = np.flatnonzero(np.diff(slots) > window) + 1
    sizes = np.diff(np.concatenate(([0], breaks, [slots.size])))
    return sizes[sizes > 0]  # no cluster without slots


def same_detector_refire_gaps(stream: HeraldStream, deadtime: int) -> int:
    """Number of same-detector firing pairs closer than the blind window:
    a detector's fires, less its clusters of fires (gaps <= deadtime)."""
    fires, on_a = stream.pair_slots[stream.fired], stream.to_detector_a[stream.fired]
    return sum(slots.size - cluster_sizes(slots, deadtime).size for slots in (fires[on_a], fires[~on_a]))


def ks_pvalue(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov p-value.

    When two samples of small counts agree very closely, scipy's exact
    method does not converge; scipy then falls back to the asymptotic
    p-value with a RuntimeWarning, which is accepted here instead of
    failing the test.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "ks_2samp: Exact calculation unsuccessful", RuntimeWarning)
        return stats.ks_2samp(a, b).pvalue


def largest_counted(params: SourceParams) -> int:
    """K of a source: the sampler counts clusters of at most K pairs and places larger ones."""
    return source._counted_law(params).largest


def in_large_clusters(slots: np.ndarray, window: int, largest: int) -> np.ndarray:
    """Which pairs lie in clusters (gaps <= window) of more than ``largest`` pairs: the sampler's members.

    A cluster of at most K = ``largest_counted`` pairs is counted, not
    placed, so oracles that place every pair drop those clusters before
    they compare members.  On the sampler's own side the filter keeps
    every pair (test_every_placed_cluster_has_three_pairs).
    """
    sizes = cluster_sizes(slots, window)
    return np.repeat(sizes > largest, sizes)


class TestHeraldFractionOracle:
    def test_saturated_source_matches_markov_chain(self):
        # every slot emits a pair: the chain is driven as hard as possible
        params = make_params(pair_prob=1.0)
        expected = stationary_herald_probability(1.0, 1.0, 0.5, 4)
        stream = generate_herald_stream(params, 1_000_000, RngStream(7).generator())
        fraction = stream.herald_count / stream.n_slots
        se = np.sqrt(expected * (1 - expected) / stream.n_slots)
        assert abs(fraction - expected) < 5 * se

    @pytest.mark.parametrize("pair_prob,eff,ratio,deadtime", OPERATING_POINTS)
    def test_general_operating_points(self, pair_prob, eff, ratio, deadtime):
        params = make_params(pair_prob=pair_prob, herald_det_efficiency=eff,
                             herald_splitter_ratio=ratio, herald_deadtime_slots=deadtime)
        expected = stationary_herald_probability(pair_prob, eff, ratio, deadtime)
        n = 400_000
        stream = generate_herald_stream(params, n, RngStream(11).generator())
        se = np.sqrt(expected * (1 - expected) / n)
        assert abs(stream.herald_count / n - expected) < 5 * se


class TestMullerDeadtime:
    @pytest.mark.parametrize("pair_prob,eff,ratio,deadtime",
                             OPERATING_POINTS + [(1.0, 1.0, 0.5, 4)])
    def test_markov_chain_is_muller(self, pair_prob, eff, ratio, deadtime):
        exact = stationary_herald_probability(pair_prob, eff, ratio, deadtime)
        assert abs(exact - muller_herald_probability(pair_prob, eff, ratio, deadtime)) < 1e-9

    def test_fixture_point_herald_rate(self):
        # the two-mode operating point, where a close gap is rare (q ~ 1.7%);
        # 1e9 slots put the deadtime-free rate p * eff about 18 SE away
        params = make_params(pair_prob=0.0043882)
        n = 10**9
        expected = muller_herald_probability(0.0043882, 1.0, 0.5, 4)
        se = np.sqrt(n * expected * (1 - expected))
        stream = generate_herald_stream(params, n, RngStream(29).generator())
        assert abs(stream.herald_count - n * expected) < 5 * se
        assert abs(n * params.pair_prob * params.herald_det_efficiency - n * expected) > 10 * se


# (pair_prob, herald_det_efficiency, herald_splitter_ratio, deadtime, n, slots per seed)
TRIGGER_POINTS = (
    [(*point, 2, 40_000) for point in OPERATING_POINTS]
    + [(*point, 3, 40_000) for point in OPERATING_POINTS if point[3] <= 1]
    + [
        (0.0043882, 1.0, 0.5, 4, 2, 100_000_000),  # the two-mode fixture point
        (0.3, 1.0, 0.5, 4, 2, 300),  # the dense point, where the range's ends matter
    ]
    # their herald counts: every herald is a run of one
    + [(0.0043882, 1.0, 0.5, 4, 1, 100_000_000), (0.3, 1.0, 0.5, 4, 1, 300)]
    # a lossy, unbalanced deadtime of one slot, where blocks of every length occur
    + [(0.4, 0.7, 0.3, 1, n, 40_000) for n in (3, 4)]
)


class TestTriggerRateOracle:
    """Trigger counts of generated streams against the exact herald-block chain."""

    @pytest.mark.parametrize("pair_prob,eff,ratio,deadtime,n,n_slots", TRIGGER_POINTS)
    def test_mean_trigger_count(self, pair_prob, eff, ratio, deadtime, n, n_slots):
        params = make_params(pair_prob=pair_prob, herald_det_efficiency=eff,
                             herald_splitter_ratio=ratio, herald_deadtime_slots=deadtime)
        expected = expected_triggers(pair_prob, eff, ratio, deadtime, n, n_slots)
        seeds = 400 if n_slots < 1000 else 40
        counts = np.array([
            stream_triggers(generate_herald_stream(params, n_slots, RngStream(61, (i,)).generator()), n)
            for i in range(seeds)
        ])
        se = counts.std(ddof=1) / np.sqrt(seeds)
        assert abs(counts.mean() - expected) <= 5 * se + 1e-9, (counts.mean(), expected, se)


class TestDoublingDeadtime:
    @settings(max_examples=300, deadline=None)
    @given(
        steps=st.lists(st.tuples(st.integers(min_value=1, max_value=9), st.booleans(), st.booleans()),
                       max_size=80),
        deadtime=st.integers(min_value=0, max_value=8),
    )
    def test_matches_sequential_scan(self, steps, deadtime):
        slots = np.cumsum([gap for gap, _, _ in steps]).astype(np.int64)
        eff_draws = np.array([hit for _, hit, _ in steps], dtype=bool)
        to_a = np.array([a for _, _, a in steps], dtype=bool)
        fired = _apply_deadtime(slots, to_a, eff_draws, deadtime)
        assert fired.dtype == bool
        assert np.array_equal(fired, loop_two_detectors(slots, to_a, eff_draws, deadtime))

    @pytest.mark.parametrize("eff", [1.0, 0.7])
    @pytest.mark.parametrize("ratio", [1.0, 0.5])
    def test_saturated_single_cluster(self, eff, ratio):
        # every slot carries an arrival: at ratio 1, one cluster of 10^6 on
        # detector A, with orbits of 2 * 10^5
        rng = np.random.default_rng(4)
        slots = np.arange(10**6, dtype=np.int64)
        eff_draws = rng.random(slots.size) < eff
        to_a = rng.random(slots.size) < ratio
        fired = _apply_deadtime(slots, to_a, eff_draws, 4)
        assert np.array_equal(fired, loop_two_detectors(slots, to_a, eff_draws, 4))


class TestClosedFormClusters:
    """Generated streams, where clusters of one, two and three or more meet in one call."""

    # name: (SourceParams overrides, slots); at the fixture point, with K = 2
    # (the largest_two fixture: at the source's K of 5 a range places almost
    # no cluster), and efficiency 0.7 a detector has about 11 clusters of
    # three or more in 2e8 slots (2.7 in 5e7, where about one stream in seven has none)
    POINTS = {
        "fixture": (dict(pair_prob=0.0043882, herald_deadtime_slots=4), 200_000_000),
        "dense": (dict(pair_prob=0.3, herald_deadtime_slots=4), 200_000),
    }

    @pytest.mark.parametrize("eff", [1.0, 0.7])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", sorted(POINTS))
    def test_matches_loop_bit_for_bit(self, name, seed, eff, request):
        if name == "fixture":
            request.getfixturevalue("largest_two")
        overrides, n_slots = self.POINTS[name]
        stream = generate_herald_stream(make_params(**overrides), n_slots, RngStream(seed).generator())
        slots, to_a = stream.pair_slots, stream.to_detector_a
        if eff == 1.0:  # the stream's own draws
            eff_draws = np.ones(slots.size, dtype=bool)
        else:
            eff_draws = RngStream(seed, (1,)).generator().random(slots.size) < eff
        for on_detector in (to_a, ~to_a):  # each detector's clusters of successful arrivals
            sizes = cluster_sizes(slots[on_detector & eff_draws], 4)
            assert (sizes == 1).any() and (sizes == 2).any() and (sizes >= 3).any()
        fired = _apply_deadtime(slots, to_a, eff_draws, 4)
        assert np.array_equal(fired, loop_two_detectors(slots, to_a, eff_draws, 4))
        if eff == 1.0:
            assert np.array_equal(fired, stream.fired)


class TestTwoPairLaw:
    """A cluster of exactly two pairs: the sampler's closed-form outcome law
    against the sequential scan over all 16 detector and efficiency flags."""

    @pytest.mark.parametrize("eff", [0.6, 1.0])
    @pytest.mark.parametrize("ratio", [0.3, 0.5])
    @pytest.mark.parametrize("deadtime", [0, 1, 4])
    def test_matches_enumeration(self, deadtime, ratio, eff):
        params = make_params(herald_det_efficiency=eff, herald_splitter_ratio=ratio,
                             herald_deadtime_slots=deadtime)
        for gap in range(1, max(deadtime, 1) + 1):  # every close gap
            slots = np.array([0, gap], dtype=np.int64)
            law = np.zeros(3)
            for flags in itertools.product((True, False), repeat=4):
                to_a, eff_draws = np.array(flags[:2]), np.array(flags[2:])
                weight = (np.prod(np.where(to_a, ratio, 1.0 - ratio))
                          * np.prod(np.where(eff_draws, eff, 1.0 - eff)))
                law[loop_two_detectors(slots, to_a, eff_draws, deadtime).sum()] += weight
            assert np.abs(two_pair_law(params) - law).max() <= 1e-15, (gap, law)


def law_by_scan(gaps, eff, ratio, deadtime):
    """{sorted block lengths: probability} of the heralds of one cluster with close gaps
    ``gaps``, both detectors live before it, by a sequential scan of every detector and
    efficiency path; a window of one slot has the gap vector of ones."""
    slots = [0, *itertools.accumulate(gaps)]
    law = Counter()
    for to_a in itertools.product((True, False), repeat=len(slots)):
        for hits in itertools.product((True, False), repeat=len(slots)):
            weight = math.prod((ratio if a else 1.0 - ratio) * (eff if h else 1.0 - eff) for a, h in zip(to_a, hits))
            if weight > 0.0:
                last = {True: -math.inf, False: -math.inf}  # each detector's last fire
                heralds = []
                for slot, on_a, hit in zip(slots, to_a, hits):
                    if hit and slot - last[on_a] > deadtime:
                        last[on_a] = slot
                        heralds.append(slot)
                blocks = Counter(slot - rank for rank, slot in enumerate(heralds))  # constant along a block
                law[tuple(sorted(blocks.values()))] += weight
    return law


def class_row(law, close, slots):
    """{sorted block lengths: probability} of the class (s - 1, S) of a ``_GapClassLaw``,
    at any window, less the zeros that its group is padded with before its outcomes."""
    group = np.searchsorted(law.starts, np.flatnonzero(law.order == law.index[close, slots])[0], side="right") - 1
    width = law.outcomes.shape[1]
    probs, lengths = law.outcomes[group], law.lengths[group * width:(group + 1) * width]
    padding = width - np.count_nonzero(probs)
    assert (probs[:padding] == 0.0).all() and (lengths[:padding] == 0).all()
    row = {tuple(np.repeat(np.arange(blocks.size), blocks).tolist()): prob
           for prob, blocks in zip(probs[padding:].tolist(), lengths[padding:])}
    assert len(row) == width - padding  # each outcome once
    return row


def counted_law(eff=1.0, ratio=0.5, deadtime=4, largest=4, pair_prob=0.3):
    """The ``_GapClassLaw`` of a source with K = ``largest``, from its window's builder."""
    params = make_params(pair_prob=pair_prob, herald_det_efficiency=eff, herald_splitter_ratio=ratio,
                         herald_deadtime_slots=deadtime)
    build = source._size_law if deadtime <= 1 else source._gap_class_law
    return build(params, 1.0 - (1.0 - pair_prob) ** max(deadtime, 1), largest)


class CountedLawTests:
    """The properties of a counted-cluster law, one test each, at every window: TestSizeLaw
    runs them at a window of one slot and TestGapClassLaw at wider ones, each with its
    ``CASES`` per test name and the law point of its split test in ``SPLIT``."""

    def pytest_generate_tests(self, metafunc):
        if metafunc.definition.name in self.CASES:
            metafunc.parametrize(*self.CASES[metafunc.definition.name])

    @pytest.mark.parametrize("eff", [0.6, 1.0])
    @pytest.mark.parametrize("ratio", [0.3, 0.5, 1.0])
    def test_matches_enumeration(self, deadtime, ratio, eff):
        # every gap vector of up to K - 1 gaps, and every detector and efficiency
        # path of it; a class's law is the mean over its equally likely vectors
        window = max(deadtime, 1)
        law = counted_law(eff, ratio, deadtime, largest=5 if window == 1 else 4)
        assert len(law.index) == sum(close * (window - 1) + 1 for close in range(1, law.largest)) == law.probs.size
        for (close, slots), c in law.index.items():
            vectors = law.gaps[c]
            assert sorted(vectors) == [g for g in itertools.product(range(1, window + 1), repeat=close)
                                       if sum(g) == slots]
            expected = sum((law_by_scan(gaps, eff, ratio, deadtime) for gaps in vectors), Counter())
            row = class_row(law, close, slots)
            assert set(row) == set(expected), (close, slots)
            assert max(abs(row[k] - expected[k] / len(vectors)) for k in row) <= 1e-14, (close, slots, row, expected)

    @pytest.mark.parametrize("eff", [0.3, 1.0])
    @pytest.mark.parametrize("ratio", [0.0, 0.3, 0.5])
    def test_rows_are_laws_of_fitting_blocks(self, deadtime, ratio, eff):
        window = max(deadtime, 1)
        law = counted_law(eff, ratio, deadtime, largest=16 if window == 1 else 5)
        assert abs(law.probs.sum() - 1.0) <= 1e-12 and (np.diff(law.probs) <= 0.0).all()  # likeliest first
        assert abs(law.outcomes.sum(axis=1) - 1.0).max() <= 1e-12 and (law.outcomes >= 0.0).all()
        for close, slots in law.index:
            for blocks in class_row(law, close, slots):
                # a pair heralds at most once, and two blocks lie a slot apart
                assert sum(blocks) <= close + 1 and len(blocks) <= (slots + 2) // 2
                # at w = 1 a block ends at a pair that does not herald, or at the cluster's end; at
                # w >= 2 three heralds in three slots would need a detector to fire twice within two
                assert sum(blocks) + len(blocks) - 1 <= close + 1 if window == 1 else max(blocks, default=0) <= 2
        # a group lists its outcomes after zeros, likeliest first
        for probs in law.outcomes:
            held = probs[probs > 0.0]
            assert (probs[:probs.size - held.size] == 0.0).all() and (np.diff(held) <= 0.0).all()
        if window == 1:  # each size its own group, in size order: a class (s - 1, s - 1) of one gap vector of ones
            assert law.largest == len(law.probs) + 1 == 16 and law.lengths.shape[1] == 17
            assert law.order.tolist() == law.starts.tolist() == list(range(15))
            assert law.index == {(c, c): c - 1 for c in range(1, 16)}
            assert law.gaps == tuple(((1,) * c,) for c in range(1, 16))

    @pytest.mark.parametrize("eff", [0.6, 1.0])
    @pytest.mark.parametrize("ratio", [0.3, 0.5])
    def two_pair_rows_are_two_pair_law(self, deadtime, ratio, eff):
        # a class per close gap of 1..w slots; past 22 slots K is 2
        law = counted_law(eff, ratio, deadtime, largest=16 if deadtime <= 1 else 4 if deadtime <= 4 else 2)
        none, one, both = two_pair_law(make_params(herald_det_efficiency=eff, herald_splitter_ratio=ratio,
                                                   herald_deadtime_slots=deadtime))
        for gap in range(1, max(deadtime, 1) + 1):  # both heralds form a block of two where the gap is one slot
            row = class_row(law, 1, gap)
            assert row.get((), 0.0) == pytest.approx(none, abs=1e-15)
            assert row.get((1,), 0.0) == pytest.approx(one, abs=1e-15)
            assert row.get((2,) if gap == 1 else (1, 1), 0.0) == pytest.approx(both, abs=1e-15)

    def test_split_has_the_law_of_a_fresh_draw(self):
        # the first 2 of 5 clusters of a drawn class composition, split off by
        # the hypergeometric chain, against a fresh composition of 2; the other
        # 3 against a fresh composition of 3
        deadtime, largest, seed = self.SPLIT
        law = counted_law(deadtime=deadtime, largest=largest, pair_prob=0.6)
        rng = np.random.default_rng(seed)
        tallies = [Counter() for _ in range(4)]  # left, right, a fresh left, a fresh right
        for _ in range(4000):
            comp = law.draw(5, rng)
            a, b = law.split(comp, 5, 2, rng)
            assert (a + b == comp).all() and min(a.min(), b.min()) >= 0 and a.sum() == 2
            for tally, part in zip(tallies, (a, b, law.draw(2, rng), law.draw(3, rng))):
                tally[tuple(part.tolist())] += 1
        assert same_counts_pvalue(tallies[0], tallies[2]) > ALPHA
        assert same_counts_pvalue(tallies[1], tallies[3]) > ALPHA

    def largest_counted(self, q, window, largest):
        # the smallest K with q^(K - 1) <= 1e-6, at most 16, within 512 gap vectors
        assert source._largest_counted(q, window) == largest
        vectors = [sum(window ** close for close in range(1, k)) for k in (largest, largest + 1)]  # of 2..K(+1) pairs
        assert vectors[0] <= 512 and (largest <= 2 or q ** (largest - 2) > 1e-6)
        assert q ** (largest - 1) <= 1e-6 or largest == 16 or vectors[1] > 512


class TestSizeLaw(CountedLawTests):
    """Window-1 clusters of 2..K pairs: a class per size, its one gap vector all ones."""

    CASES = {
        "test_matches_enumeration": ("deadtime", [0, 1]),
        "test_rows_are_laws_of_fitting_blocks": ("deadtime", [0, 1]),
        "test_two_pair_row_is_two_pair_law": ("deadtime", [0, 1]),
        "test_largest_counted": ("q,window,largest", [pytest.param(q, 1, k, id=f"{q}-{k}") for q, k in [
            (0.3, 13), (0.05, 6), (0.9, 16), (1.0, 16), (1e-6, 2), (0.0, 2)]]),
    }
    SPLIT = (0, 5, 103)  # deadtime, K, seed
    test_two_pair_row_is_two_pair_law = CountedLawTests.two_pair_rows_are_two_pair_law
    test_largest_counted = CountedLawTests.largest_counted

    def test_lossless_rows_cost_no_draw(self):
        # at efficiency 1 and deadtime 0 a cluster of s pairs is one block of s
        law = counted_law(deadtime=0, largest=16)
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        hist = law.blocks(np.array([3, 0, 2] + [0] * 11 + [1]), rng)
        assert rng.bit_generator.state == state
        assert hist == [0, 0, 3, 0, 2] + [0] * 11 + [1]

    def test_sizes_follow_the_geometric_cluster_law(self):
        # a cluster of at least two pairs has s pairs with probability
        # proportional to q^(s - 2), cut to 2..K
        law = counted_law(deadtime=0, largest=13)
        expected = 0.3 ** np.arange(12)
        assert np.allclose(law.probs, expected / expected.sum(), rtol=1e-12, atol=0.0)
        assert law.log_counted == pytest.approx(math.log(1.0 - 0.3 ** 12), rel=1e-12)

    def test_cut_keeps_the_pairs_in_range(self):
        law = counted_law(deadtime=0, largest=5)
        cluster = law.one([1, 1, 1])  # four pairs: its last lies 3 slots after its first
        assert cluster.tolist() == [0, 0, 1, 0]
        assert [law.cut(cluster, slots, None).tolist() for slots in (1, 2, 3, 4)] == [
            [0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
        assert law.total(cluster) == law.pairs(cluster) == 3


class TestGapClassLaw(CountedLawTests):
    """Clusters of 2..K pairs at a deadtime of two slots or more, counted by (size, close slots)."""

    CASES = {
        "test_matches_enumeration": ("deadtime", [2, 3, 4, 5]),
        "test_rows_are_laws_of_fitting_blocks": ("deadtime", [2, 4, 7]),
        "test_two_pair_rows_are_two_pair_law": ("deadtime", [2, 4, 37, 512]),
        "test_largest_counted_takes_the_window": ("q,window,largest", [
            (1.0 - (1.0 - 0.0043882) ** 4, 4, 5),  # the two-mode point: 34 classes of 340 gap vectors
            (0.9, 2, 9), (0.9, 3, 6), (0.9, 4, 5), (0.9, 7, 4), (0.9, 22, 3), (0.9, 23, 2), (0.02, 2, 5),
            (1e-6, 4, 2), (0.3, 1, 13),
            (0.9, 512, 2), (0.9, 513, 1), (1e-7, 600, 1)]),  # past 512 slots not even two pairs fit
    }
    SPLIT = (2, 3, 131)  # deadtime, K, seed
    test_two_pair_rows_are_two_pair_law = CountedLawTests.two_pair_rows_are_two_pair_law
    test_largest_counted_takes_the_window = CountedLawTests.largest_counted

    @pytest.mark.parametrize("pair_prob,deadtime", [(0.3, 4), (0.0043882, 4), (0.5, 3), (0.02, 37), (0.001, 512)])
    def test_classes_follow_iid_close_gaps(self, pair_prob, deadtime):
        # a cluster of at least two pairs has s pairs with probability
        # proportional to q^(s - 2), cut to 2..K, and iid close gaps
        largest = 5 if deadtime <= 4 else 2  # past 22 slots K is 2
        law = counted_law(deadtime=deadtime, largest=largest, pair_prob=pair_prob)
        q = 1.0 - (1.0 - pair_prob) ** deadtime
        rng = np.random.default_rng(127)
        clusters = 20_000
        odds = q ** np.arange(largest - 1)
        sizes = rng.choice(np.arange(2, largest + 1), size=clusters, p=odds / odds.sum())
        gaps = iid_close_gaps(pair_prob, deadtime, (clusters, largest - 1), rng)
        iid = Counter((size - 1, int(g[:size - 1].sum())) for size, g in zip(sizes, gaps))
        drawn = law.draw(clusters, rng)
        keys = sorted(law.index, key=law.index.get)
        assert same_counts_pvalue(dict(zip(keys, drawn.tolist())), iid) > ALPHA
        assert law.log_counted == pytest.approx(math.log1p(-q ** (largest - 1)), rel=1e-12)

    def test_sums_and_one_cluster(self):
        law = counted_law(deadtime=4, largest=5)
        for gaps in [(1,), (4,), (2, 3), (1, 1, 1), (4, 4, 4, 4)]:
            comp = law.one(list(gaps))
            assert comp.sum() == 1 and law.total(comp) == sum(gaps) and law.pairs(comp) == len(gaps)
        comp = law.one([1]) * 3 + law.one([2, 3]) * 2
        assert law.total(comp) == 3 + 10 and law.pairs(comp) == 3 + 4

    def test_cut_keeps_the_prefix_in_range(self):
        # a cluster of three pairs and 5 close slots has the gaps (1, 4), (2, 3),
        # (3, 2) or (4, 1), each with probability 1/4
        law = counted_law(deadtime=4, largest=4)
        cluster = law.one([2, 3])
        rng = np.random.default_rng(137)
        for slots, expected in [(1, {(): 1.0}), (2, {(): 0.75, (1, 1): 0.25}),
                                (4, {(): 0.25, (1, 1): 0.25, (1, 2): 0.25, (1, 3): 0.25}),
                                (5, {(1, 1): 0.25, (1, 2): 0.25, (1, 3): 0.25, (1, 4): 0.25}),
                                (6, {(2, 5): 1.0})]:
            kept = Counter()
            for _ in range(2000):
                part = law.cut(cluster, slots, rng)
                kept[(law.pairs(part), law.total(part)) if part.any() else ()] += 1
            assert set(kept) == set(expected), slots
            if len(expected) > 1:
                observed = [kept[k] for k in expected]
                assert stats.chisquare(observed, [2000 * p for p in expected.values()]).pvalue > ALPHA, kept

    @pytest.mark.parametrize("overrides,kind,largest", [
        (dict(pair_prob=0.0043882, herald_deadtime_slots=4), source._GapClassLaw, 5),
        (dict(pair_prob=0.3, herald_deadtime_slots=0), source._GapClassLaw, 13),
        (dict(pair_prob=0.3, herald_deadtime_slots=23), source._GapClassLaw, 2),
        (dict(pair_prob=1e-7, herald_deadtime_slots=4), source._GapClassLaw, 2),
        (dict(pair_prob=0.3, herald_deadtime_slots=600), source._GapClassLaw, 1),
        (dict(pair_prob=1e-7, herald_deadtime_slots=600), source._GapClassLaw, 1),
    ])
    def test_counted_law_by_window(self, overrides, kind, largest):
        law = source._counted_law(make_params(**overrides))
        assert isinstance(law, kind) and law.largest == largest
        window = overrides["herald_deadtime_slots"]
        if largest == 2:  # one class per close gap
            assert sorted(law.index) == [(1, gap) for gap in range(1, window + 1)]
        if largest == 1:  # no class, and no cluster counted
            assert law.probs.size == 0 and law.log_counted == -math.inf
            assert law.draw(0, None).size == 0


def same_counts_pvalue(a, b):
    """Chi-square p-value that two tallies of outcomes share one law.

    Outcomes seen fewer than 10 times in both tallies together are pooled.
    """
    keys = sorted(set(a) | set(b))
    table = np.array([[a.get(k, 0) for k in keys], [b.get(k, 0) for k in keys]])
    rare = table.sum(axis=0) < 10
    table = np.column_stack([table[:, ~rare], table[:, rare].sum(axis=1)])
    table = table[:, table.sum(axis=0) > 0]
    assert table.shape[1] >= 2
    return stats.chi2_contingency(table).pvalue


def iid_close_gaps(pair_prob, window, shape, rng):
    """Close gaps drawn from the enumerated pmf: P(gap = x), x = 1..window, of
    Geom(pair_prob) cut to 1..window."""
    x = np.arange(1, window + 1, dtype=np.float64)
    pmf = pair_prob * (1.0 - pair_prob) ** (x - 1.0)
    cdf = np.cumsum(pmf / pmf.sum())
    return np.minimum(np.searchsorted(cdf, rng.random(shape) * cdf[-1], side="right"), window - 1) + 1


def member_cluster_sizes(stream, window: int, largest: int) -> np.ndarray:
    """Per-detector histogram of clusters (gaps <= window) of two or more arrivals, the last
    bin 7 or more, among the pairs of clusters of more than ``largest`` pairs."""
    keep = in_large_clusters(stream.pair_slots, window, largest)
    slots, to_a = stream.pair_slots[keep], stream.to_detector_a[keep]
    sizes = np.concatenate([cluster_sizes(slots[on_detector], window) for on_detector in (to_a, ~to_a)])
    return np.bincount(np.minimum(sizes[sizes > 1], 7), minlength=8)


# name: (SourceParams overrides, slots per trial)
LAW_POINTS = {
    "fixture": (dict(pair_prob=0.0043882, herald_deadtime_slots=4), 2_000_000),
    "dense": (dict(pair_prob=0.3, herald_deadtime_slots=4), 20_000),
    "sweep": (dict(pair_prob=0.3, herald_deadtime_slots=0), 20_000),
    "lossy_unbalanced": (dict(pair_prob=0.2, herald_deadtime_slots=3, herald_det_efficiency=0.6,
                              herald_splitter_ratio=0.3), 20_000),
    "saturated": (dict(pair_prob=1.0, herald_deadtime_slots=4, herald_det_efficiency=0.7), 2_000),
    "lossy_unbalanced_d1": (dict(pair_prob=0.4, herald_deadtime_slots=1, herald_det_efficiency=0.7,
                                 herald_splitter_ratio=0.3), 20_000),
    # K = 2 (a class per close gap) and K = 1 (every cluster placed)
    "wide_d37": (dict(pair_prob=0.02, herald_deadtime_slots=37), 200_000),
    "widest_d600": (dict(pair_prob=0.002, herald_deadtime_slots=600), 2_000_000),
}
# at the source's K (13 at the sweep point, 5 at the two-mode point) these
# ranges hold almost no member, too few to compare their clusters
FEW_MEMBERS = {"sweep", "lossy_unbalanced_d1", "fixture"}
# so those points again with K = 3 at a window of one slot and K = 2 at the
# two-mode point (the largest_three and largest_two fixtures), where placed
# and cut clusters are common, and the dense point with K = 3
LAW_POINTS.update({name + "_largest_three": LAW_POINTS[name] for name in ("sweep", "lossy_unbalanced_d1", "dense")})
LAW_POINTS["fixture_largest_two"] = LAW_POINTS["fixture"]
LAW_SEEDS = range(40)
ALPHA = 1e-3  # per comparison; about 60 of them run


def block_lengths(herald_slots: np.ndarray) -> np.ndarray:
    """Blocks of consecutive heralds counted by length, from every herald's slot."""
    if herald_slots.size == 0:
        return np.zeros(1, dtype=np.int64)
    starts = np.flatnonzero(np.concatenate(([2], np.diff(herald_slots), [2])) > 1)
    return np.bincount(np.diff(starts), minlength=1)


def add_blocks(counts: dict, hist: np.ndarray) -> None:
    """Add a block histogram's nonzero lengths into ``counts``."""
    for length in np.flatnonzero(hist[1:]) + 1:
        counts[int(length)] = counts.get(int(length), 0) + int(hist[length])


class TestAgainstDenseOracle:
    """The cluster-skipping sampler against the sampler that draws every pair."""

    @pytest.mark.parametrize("name", sorted(LAW_POINTS))
    def test_same_law(self, name, request):
        for largest in ("largest_three", "largest_two"):
            if name.endswith("_" + largest):
                request.getfixturevalue(largest)
        self.assert_same_law(name)

    def test_many_vector_rounds(self, monkeypatch):
        monkeypatch.setattr(source, "_BATCH_UNITS", 64)
        self.assert_same_law("dense")

    @pytest.mark.usefixtures("largest_three")
    def test_three_unit_rounds_at_window_one(self, monkeypatch):
        # at K = 3 a round's member budget is 4, so rounds end inside placed
        # clusters of five or more pairs, and the next round opens with the rest
        monkeypatch.setattr(source, "_BATCH_UNITS", 3)
        self.assert_same_law("sweep_largest_three")

    @pytest.mark.usefixtures("largest_three")
    def test_three_unit_rounds_at_window_four(self, monkeypatch):
        # the same at a window of four slots, where clusters are counted by gap class
        monkeypatch.setattr(source, "_BATCH_UNITS", 3)
        self.assert_same_law("dense_largest_three")

    @staticmethod
    def assert_same_law(name):
        overrides, n_slots = LAW_POINTS[name]
        params = make_params(**overrides)
        window = max(params.herald_deadtime_slots, 1)
        largest = largest_counted(params)
        fast, dense = [], []
        fast_blocks, dense_blocks = {}, {}
        for seed in LAW_SEEDS:
            stream = generate_herald_stream(params, n_slots, RngStream(seed, (0,)).generator())
            fast.append((stream.herald_count, stream_triggers(stream, 2),
                         member_cluster_sizes(stream, window, largest)))
            add_blocks(fast_blocks, herald_block_histogram(stream))
            ref = dense_herald_stream(params, n_slots, RngStream(seed, (1,)).generator())
            dense.append((int(ref.fired.sum()), run_starts_from_heralds(ref.herald_slots, 2).size,
                          member_cluster_sizes(ref, window, largest)))
            add_blocks(dense_blocks, block_lengths(ref.herald_slots))
        for column in (0, 1):  # herald count, n = 2 trigger count
            a = [row[column] for row in fast]
            b = [row[column] for row in dense]
            assert ks_pvalue(a, b) > ALPHA, (column, np.mean(a), np.mean(b))
        if name not in FEW_MEMBERS:
            table = np.array([sum(row[2] for row in fast), sum(row[2] for row in dense)])
            table = table[:, table.sum(axis=0) > 0]
            assert table.shape[1] >= 2
            assert stats.chi2_contingency(table).pvalue > ALPHA, table
        # blocks of consecutive heralds by length, the pipeline's input
        assert same_counts_pvalue(fast_blocks, dense_blocks) > ALPHA, (fast_blocks, dense_blocks)

    def test_no_emission(self):
        params = make_params(pair_prob=0.0)
        for seed in range(5):
            stream = generate_herald_stream(params, 1000, RngStream(seed).generator())
            ref = dense_herald_stream(params, 1000, RngStream(seed).generator())
            assert stream.pair_count == ref.pair_slots.size == 0
            assert stream.herald_count == 0 and stream.pair_slots.size == 0


# name: (SourceParams overrides, slots per trial, the fixture that sets K or
# None); the source's own K (5 at the two-mode point and at pair_prob 0.05,
# deadtime 4, 10 at the no_deadtime point) would place almost nothing there
COMPRESSED_POINTS = {
    "fixture": (dict(pair_prob=0.0043882, herald_deadtime_slots=4), 2_000_000, "largest_two"),
    "dense": (dict(pair_prob=0.3, herald_deadtime_slots=4), 20_000, None),
    "short": (dict(pair_prob=0.05, herald_deadtime_slots=4), 300, "largest_two"),
    "no_deadtime": (dict(pair_prob=0.2, herald_deadtime_slots=0), 5_000, "largest_three"),
}


class TestCompressedSlots:
    """Members sit in compressed slots: exact gaps within a cluster, window + 1 between."""

    @pytest.mark.parametrize("name", sorted(COMPRESSED_POINTS))
    def test_gaps_are_exact_or_window_plus_one(self, name, request):
        overrides, n_slots, largest = COMPRESSED_POINTS[name]
        params = make_params(**overrides)
        window = max(params.herald_deadtime_slots, 1)
        if largest:
            request.getfixturevalue(largest)
        for seed in range(5):
            slots = generate_herald_stream(params, n_slots, RngStream(67, (seed,)).generator()).pair_slots
            gaps = np.diff(slots)
            assert ((gaps >= 1) & (gaps <= window) | (gaps == window + 1)).all()
            assert slots.size == 0 or (slots[0] >= 0 and slots[-1] < n_slots)

    @pytest.mark.parametrize("name", sorted(COMPRESSED_POINTS))
    def test_compressed_absolute_oracle_has_same_law(self, name, request):
        # the sampler that draws every stretch's absolute place, with its
        # gaps between clusters cut to window + 1
        overrides, n_slots, largest = COMPRESSED_POINTS[name]
        params = make_params(**overrides)
        window = max(params.herald_deadtime_slots, 1)
        if largest:
            request.getfixturevalue(largest)
        largest = largest_counted(params)
        seeds = 200
        fast, oracle = [], []
        fast_gaps = np.zeros(window + 2, dtype=np.int64)
        oracle_gaps = np.zeros(window + 2, dtype=np.int64)
        for seed in range(seeds):
            stream = generate_herald_stream(params, n_slots, RngStream(71, (seed,)).generator())
            members = stream.pair_slots[in_large_clusters(stream.pair_slots, window, largest)]
            fast.append((stream.pair_count, members.size))
            fast_gaps += np.bincount(np.diff(members), minlength=window + 2)
            slots, pairs = absolute_members(params.pair_prob, window, n_slots,
                                            RngStream(73, (seed,)).generator())
            slots = slots[in_large_clusters(slots, window, largest)]
            oracle.append((pairs, slots.size))
            oracle_gaps += np.bincount(np.minimum(np.diff(slots), window + 1), minlength=window + 2)
        for column in (0, 1):  # pair count, member count
            a = [row[column] for row in fast]
            b = [row[column] for row in oracle]
            assert ks_pvalue(a, b) > ALPHA, (column, np.mean(a), np.mean(b))
        table = np.array([fast_gaps[1:], oracle_gaps[1:]])
        table = table[:, table.sum(axis=0) > 0]
        assert stats.chi2_contingency(table).pvalue > ALPHA, table


@pytest.fixture(params=["one_round", "three_unit_rounds", "two_gap_pieces"])
def batch_units(request, monkeypatch):
    """Run a test with the default vector round, with rounds of 3 units, and
    with every stretch of more than 2 long gaps drawn in pieces."""
    if request.param == "three_unit_rounds":
        monkeypatch.setattr(source, "_BATCH_UNITS", 3)
    if request.param == "two_gap_pieces":
        monkeypatch.setattr(source, "_max_piece", lambda pair_prob: 2)


def binomial_fit_pvalue(counts: np.ndarray, n_slots: int, pair_prob: float) -> float:
    """Chi-square p-value of pair counts against Binomial(n_slots, pair_prob).

    Each tail is pooled into one bin that expects at least 5 counts.
    """
    draws = counts.size
    mean = n_slots * pair_prob
    k = np.arange(min(n_slots, int(mean + 10.0 * np.sqrt(mean) + 10)) + 1)
    lo = int(k[stats.binom.cdf(k, n_slots, pair_prob) * draws >= 5].min())
    hi = int(k[stats.binom.sf(k - 1, n_slots, pair_prob) * draws >= 5].max())
    middle = np.arange(lo + 1, hi)
    observed = np.concatenate(([(counts <= lo).sum()],
                               np.bincount(np.minimum(counts, hi), minlength=hi + 1)[middle],
                               [(counts >= hi).sum()]))
    expected = np.concatenate(([stats.binom.cdf(lo, n_slots, pair_prob)],
                               stats.binom.pmf(middle, n_slots, pair_prob),
                               [stats.binom.sf(hi - 1, n_slots, pair_prob)]))
    return stats.chisquare(observed, expected * draws / expected.sum()).pvalue


@pytest.mark.usefixtures("batch_units")
class TestTrialBoundary:
    @pytest.mark.parametrize("pair_prob,deadtime,n_slots", [
        (0.05, 4, 40),
        (0.2, 1, 60),
        (0.001, 4, 300),  # a stretch of long gaps nearly always crosses the end
    ])
    def test_pair_count_is_binomial(self, pair_prob, deadtime, n_slots):
        params = make_params(pair_prob=pair_prob, herald_deadtime_slots=deadtime)
        draws = 10_000
        counts = np.empty(draws, dtype=np.int64)
        for i in range(draws):
            stream = generate_herald_stream(params, n_slots, RngStream(41, (i,)).generator())
            slots = stream.pair_slots
            assert slots.size == 0 or (slots[0] >= 0 and slots[-1] < n_slots)
            counts[i] = stream.pair_count
        assert binomial_fit_pvalue(counts, n_slots, pair_prob) > ALPHA

    @pytest.mark.parametrize("pair_prob,deadtime,n_slots", [
        (0.05, 4, 300),
        (0.3, 4, 2000),
        (0.2, 0, 500),
        (1.0, 4, 200),  # one cluster, cut by every vector round
    ])
    def test_every_placed_cluster_has_three_pairs(self, pair_prob, deadtime, n_slots, request):
        # a cluster of at most K pairs in range is counted wherever it lies:
        # cut short by the end of the range, or last in a vector round
        params = make_params(pair_prob=pair_prob, herald_deadtime_slots=deadtime)
        window = max(deadtime, 1)
        if window == 1:  # the source's K (10) would place almost nothing
            request.getfixturevalue("largest_three")
        largest = largest_counted(params)
        for i in range(100):
            slots = generate_herald_stream(params, n_slots, RngStream(107, (i,)).generator()).pair_slots
            assert in_large_clusters(slots, window, largest).all()

    @pytest.mark.parametrize("n_slots", [12, 16, 17, 200])
    def test_one_window_one_cluster_is_placed_past_k(self, n_slots):
        # at pair_prob 1 the range is one cluster, and q = 1 sets K to its
        # cap of 16: a range of at most 16 pairs is counted at its size, a
        # longer one placed whole, cut or not by the vector rounds
        params = make_params(pair_prob=1.0, herald_deadtime_slots=0)
        assert largest_counted(params) == 16
        stream = generate_herald_stream(params, n_slots, RngStream(113).generator())
        assert stream.pair_count == stream.herald_count == n_slots
        placed = n_slots > 16
        assert stream.pair_slots.tolist() == (list(range(n_slots)) if placed else [])
        hist = herald_block_histogram(stream)
        assert hist[n_slots] == hist.sum() == 1  # one block of every pair
        assert stream.counted_blocks[1:].sum() == (0 if placed else 1)

    @pytest.mark.usefixtures("largest_three")
    def test_window_four_clusters_are_counted_placed_and_cut(self, monkeypatch):
        # at K = 3 short ranges hold counted clusters, placed ones, and both
        # cut by the end of the range; the pair count stays binomial
        params = make_params(pair_prob=0.3, herald_deadtime_slots=4)
        seen = spy_cuts(monkeypatch)
        counts = np.empty(2000, dtype=np.int64)
        placed = counted = 0
        for i in range(counts.size):
            stream = generate_herald_stream(params, 40, RngStream(151, (i,)).generator())
            counts[i] = stream.pair_count
            placed += stream.pair_slots.size > 0
            counted += stream.counted_blocks[2] > 0  # a block of two: a counted cluster
        assert placed and counted
        assert {pairs for kind, pairs in seen if kind == "placed"} == {2, 3}
        assert {pairs for kind, pairs in seen if kind == "counted"} == {1, 2}
        assert binomial_fit_pvalue(counts, 40, 0.3) > ALPHA

    @pytest.mark.parametrize("pair_prob,deadtime,n_slots", [
        (0.05, 4, 40),
        (0.2, 1, 60),
        (0.05, 4, 300),
        (0.3, 4, 60),  # at the source's K of 5
    ])
    def test_members_match_dense_oracle_in_law(self, pair_prob, deadtime, n_slots, request):
        # in short ranges most clusters touch an end of the range: the member
        # count and each detector's cluster sizes must follow the dense
        # definition (a pair of a cluster of more than K pairs of the range)
        params = make_params(pair_prob=pair_prob, herald_deadtime_slots=deadtime)
        window = max(deadtime, 1)
        if pair_prob < 0.3:  # the source's K (5 at pair_prob 0.05, 10 at 0.2) would place almost nothing
            request.getfixturevalue("largest_three" if window == 1 else "largest_two")
        largest = largest_counted(params)
        draws = 2000
        fast, dense = [], []
        fast_sizes = np.zeros(8, dtype=np.int64)
        dense_sizes = np.zeros(8, dtype=np.int64)
        for i in range(draws):
            stream = generate_herald_stream(params, n_slots, RngStream(43, (i,)).generator())
            fast.append(int(in_large_clusters(stream.pair_slots, window, largest).sum()))
            fast_sizes += member_cluster_sizes(stream, window, largest)
            ref = dense_herald_stream(params, n_slots, RngStream(47, (i,)).generator())
            dense.append(int(in_large_clusters(ref.pair_slots, window, largest).sum()))
            dense_sizes += member_cluster_sizes(ref, window, largest)
        assert ks_pvalue(fast, dense) > ALPHA, (np.mean(fast), np.mean(dense))
        table = np.array([fast_sizes, dense_sizes])
        table = table[:, table.sum(axis=0) > 0]
        assert table.shape[1] >= 2
        assert stats.chi2_contingency(table).pvalue > ALPHA, table


def spy_cuts(monkeypatch):
    """The clusters of 2..K pairs that the end of a range cuts, as they are seen.

    Each is ("counted", pairs in range) for a counted cluster, through its
    law's ``cut`` (1 pair when only its first pair is in range), or
    ("placed", pairs in range) for a placed cluster cut to 2..K pairs.
    """
    seen, inside = [], []
    law = source._GapClassLaw

    def spy_cut(self, comp, slots, rng, cut=law.cut):
        inside.append(True)
        part = cut(self, comp, slots, rng)
        inside.pop()
        seen.append(("counted", 1 + int(self.pairs(part))))
        return part

    def spy_one(self, gaps, one=law.one):
        if not inside:
            seen.append(("placed", 1 + len(gaps)))
        return one(self, gaps)

    monkeypatch.setattr(law, "cut", spy_cut)
    monkeypatch.setattr(law, "one", spy_one)
    return seen


def cut_at_end(slots: np.ndarray, n_slots: int, window: int) -> tuple[int, int, int]:
    """The pairs in a range of ``n_slots`` slots, and the indices of the first pair of the
    cluster (gaps <= ``window``) that holds the range's last pair and of the first pair after
    that cluster: the end of the range cuts that cluster when first < pairs in range < stop."""
    end = int(np.searchsorted(slots, n_slots))
    breaks = np.flatnonzero(np.diff(slots) > window) + 1
    return end, int(breaks[breaks < end].max(initial=0)), int(breaks[breaks >= end].min(initial=slots.size))


class TestRangeEndInCountedCluster:
    """Ranges that end inside a counted cluster, against the dense oracle's ranges that end
    inside a cluster of at most K pairs: the pairs of that cluster in range, and the range's
    pair and herald counts."""

    # (pair_prob, deadtime, slots): a window of one slot at the source's K (13)
    # and one of four slots at the source's K (5); ranges end inside such a
    # cluster about one time in ten and one time in three
    @pytest.mark.parametrize("pair_prob,deadtime,n_slots", [(0.3, 0, 30), (0.3, 4, 30)])
    def test_same_law_given_the_end_cuts_a_counted_cluster(self, pair_prob, deadtime, n_slots, monkeypatch):
        params = make_params(pair_prob=pair_prob, herald_deadtime_slots=deadtime)
        window = max(deadtime, 1)
        largest = largest_counted(params)
        draws = 6000
        seen = spy_cuts(monkeypatch)
        fast, fast_kept = [], Counter()
        for i in range(draws):
            seen.clear()
            stream = generate_herald_stream(params, n_slots, RngStream(139, (i,)).generator())
            kept = [pairs for kind, pairs in seen if kind == "counted"]
            if kept:
                fast.append((stream.pair_count, stream.herald_count))
                fast_kept[kept[0]] += 1
        dense, dense_kept = [], Counter()
        # far enough past the end to tell a cluster of at most K pairs from a longer one
        reach = n_slots + (largest + 1) * window + 1
        for i in range(draws):
            ref = dense_herald_stream(params, reach, RngStream(149, (i,)).generator())
            end, first, stop = cut_at_end(ref.pair_slots, n_slots, window)
            if first < end < stop and stop - first <= largest:
                dense.append((end, int(ref.fired[:end].sum())))
                dense_kept[end - first] += 1
        assert len(fast) > draws // 20 and set(dense_kept) > {1, 2}
        assert_same_ranges(fast, fast_kept, dense, dense_kept)


class TestRangeEndInPlacedCluster:
    """Ranges that end inside a placed window-1 cluster with 2..K of its pairs in range, which
    the walk counts by its gaps in range, against the dense oracle's ranges that end inside a
    cluster of more than K pairs with 2..K of them in range: how often, the pairs of that cluster
    in range, and the range's pair and herald counts."""

    # (pair_prob, deadtime, slots): a window of one slot at K = 3, with and
    # without herald deadtime; a range ends so when its last j = 2 or 3 slots
    # hold pairs, the slot before them none and the 4 - j slots after it pairs:
    # 2 (1 - p) p^4 = 1/16 of ranges at p = 0.5, so at least 1/25 is asserted
    @pytest.mark.usefixtures("largest_three")
    @pytest.mark.parametrize("pair_prob,deadtime,n_slots", [(0.5, 0, 30), (0.5, 1, 30)])
    def test_same_law_given_the_end_cuts_a_placed_cluster(self, pair_prob, deadtime, n_slots, monkeypatch):
        params = make_params(pair_prob=pair_prob, herald_deadtime_slots=deadtime)
        window = max(deadtime, 1)
        largest = largest_counted(params)
        draws = 6000
        seen = spy_cuts(monkeypatch)
        fast, fast_kept = [], Counter()
        for i in range(draws):
            seen.clear()
            stream = generate_herald_stream(params, n_slots, RngStream(167, (i,)).generator())
            kept = [pairs for kind, pairs in seen if kind == "placed"]
            if kept:
                fast.append((stream.pair_count, stream.herald_count))
                fast_kept[kept[0]] += 1
        dense, dense_kept = [], Counter()
        # far enough past the end to tell a cluster of more than K pairs from one of at most K
        reach = n_slots + (largest + 1) * window + 1
        for i in range(draws):
            ref = dense_herald_stream(params, reach, RngStream(173, (i,)).generator())
            end, first, stop = cut_at_end(ref.pair_slots, n_slots, window)
            if first < end < stop and stop - first > largest and 2 <= end - first <= largest:
                dense.append((end, int(ref.fired[:end].sum())))
                dense_kept[end - first] += 1
        assert min(len(fast), len(dense)) > draws // 25 and set(dense_kept) == set(range(2, largest + 1))
        assert same_counts_pvalue(Counter(ended=len(fast), other=draws - len(fast)),
                                  Counter(ended=len(dense), other=draws - len(dense))) > ALPHA
        assert_same_ranges(fast, fast_kept, dense, dense_kept)


def assert_same_ranges(fast, fast_kept, dense, dense_kept):
    """The sampler's and the dense oracle's selected ranges agree in law: the tally of what was
    kept at the end of each range, and each range's pair count and herald count (``fast`` and
    ``dense`` rows)."""
    assert same_counts_pvalue(fast_kept, dense_kept) > ALPHA, (fast_kept, dense_kept)
    for column in (0, 1):  # pair count, herald count
        a = [row[column] for row in fast]
        b = [row[column] for row in dense]
        assert ks_pvalue(a, b) > ALPHA, (column, np.mean(a), np.mean(b))


def spy_hand_over(monkeypatch):
    """A function that reads, once a call has drawn its stream, the counted
    clusters of super-unit 0 that the walk before any vector round passed,
    when the range then ends in the stretch before that super-unit's placed
    cluster, or None.

    Each ``_walk_units`` call is seen with the ``total`` it was given (the
    walk of super-unit 0's counted clusters alone has one), whether it
    crossed the end of the range in a stretch (``_bisect_stretch`` runs only
    there) and what it returned.  The first round's walk then ends in its
    cluster 0's stretch: it counts no cluster and places no member.
    """
    walks = []
    walk, bisect_stretch = source._walk_units, source._bisect_stretch

    def spy_walk(*args):
        walks.append([args[10] if len(args) > 10 else None, False])
        walks[-1].append(walk(*args))
        return walks[-1][2]

    def spy_bisect(*args):
        walks[-1][1] = True
        return bisect_stretch(*args)

    monkeypatch.setattr(source, "_walk_units", spy_walk)
    monkeypatch.setattr(source, "_bisect_stretch", spy_bisect)

    def read():
        seen = list(walks)
        walks.clear()
        if len(seen) < 2 or not seen[0][0] or seen[0][2][4] is None:
            return None
        _, crossed, (counted_in, _, placed, _, _) = seen[1]
        return seen[0][0] if crossed and counted_in == placed == 0 else None

    return read


class TestHandOverToTheRound:
    """Ranges that end after super-unit 0's counted clusters and before its placed cluster's
    first pair, where the walk of those clusters alone hands over to the first vector round,
    against the dense oracle's ranges that end so: how often, the counted clusters passed, and
    the range's pair and herald counts."""

    # (pair_prob, deadtime, slots): a window of one slot at K = 3 and one of
    # four slots at the source's K (5); ranges end so about one time in 16
    # and one time in 10
    @pytest.mark.parametrize("pair_prob,deadtime,n_slots", [(0.3, 0, 30), (0.3, 4, 30)])
    def test_same_law_given_the_end_before_the_first_placed_cluster(self, pair_prob, deadtime, n_slots,
                                                                     monkeypatch, request):
        params = make_params(pair_prob=pair_prob, herald_deadtime_slots=deadtime)
        window = max(deadtime, 1)
        if window == 1:  # the source's K (13) would place almost nothing
            request.getfixturevalue("largest_three")
        largest = largest_counted(params)
        draws = 6000
        hand_over = spy_hand_over(monkeypatch)
        fast, fast_passed = [], Counter()
        for i in range(draws):
            stream = generate_herald_stream(params, n_slots, RngStream(157, (i,)).generator())
            passed = hand_over()
            if passed:
                fast.append((stream.pair_count, stream.herald_count))
                fast_passed[passed] += 1
        dense, dense_passed = [], Counter()
        # far enough past the end to find the first cluster of more than K pairs
        reach = n_slots + 400
        for i in range(draws):
            ref = dense_herald_stream(params, reach, RngStream(163, (i,)).generator())
            slots = ref.pair_slots
            starts = np.flatnonzero(np.diff(slots, prepend=-2 * window) > window)
            sizes = np.diff(starts, append=slots.size)
            placed = np.flatnonzero(sizes > largest)
            counted = np.flatnonzero(sizes[:placed[0]] > 1) if placed.size else placed
            if counted.size and slots[starts[placed[0]]] >= n_slots > slots[starts[counted[-1] + 1] - 1]:
                end = int(np.searchsorted(slots, n_slots))  # pairs in range
                dense.append((end, int(ref.fired[:end].sum())))
                dense_passed[counted.size] += 1
        assert len(fast) > draws // 20 and set(dense_passed) > {1, 2}
        assert same_counts_pvalue(Counter(ended=len(fast), other=draws - len(fast)),
                                  Counter(ended=len(dense), other=draws - len(dense))) > ALPHA
        assert_same_ranges(fast, fast_passed, dense, dense_passed)


class TestWalkSplits:
    """Ranges of many clusters, where the walk splits segments' totals."""

    @pytest.mark.parametrize("pair_prob,deadtime,n_slots", [
        (0.3, 4, 2000),
        (0.05, 4, 20_000),
        (0.2, 0, 5000),
    ])
    def test_pair_count_is_binomial(self, pair_prob, deadtime, n_slots):
        params = make_params(pair_prob=pair_prob, herald_deadtime_slots=deadtime)
        draws = 2000
        counts = np.array([
            generate_herald_stream(params, n_slots, RngStream(109, (i,)).generator()).pair_count
            for i in range(draws)
        ])
        assert binomial_fit_pvalue(counts, n_slots, pair_prob) > ALPHA


class TestMemoryFigure:
    # tracemalloc peaks over 2e6 pairs at seed 53, against the estimate:
    # 56.6 of 160 MB at pair_prob 1 (efficiency 0.7, every pair a member),
    # 53.9 of 154 MB at pair_prob 0.3, 0.13 of 0.19 MB at the two-mode
    # point (1875 members, one round of 760 super-units), and 114 of
    # 160 MB with one detector, where every arrival lies in one deadtime
    # orbit
    @pytest.mark.parametrize("overrides", [
        dict(pair_prob=1.0, herald_det_efficiency=0.7),
        dict(pair_prob=0.3),
        dict(pair_prob=0.0043882),
        dict(pair_prob=1.0, herald_splitter_ratio=1.0),  # one detector, one orbit
        dict(pair_prob=0.3, herald_deadtime_slots=0),  # the sweep point, K = 13
    ])
    def test_peak_bytes_per_member(self, overrides):
        params = make_params(**overrides)
        n_slots = int(2e6 / params.pair_prob)
        largest_counted(params)  # the source's outcome table is built once and kept, not per call
        tracemalloc.start()
        try:
            generate_herald_stream(params, n_slots, RngStream(53).generator())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= expected_peak_bytes(params, n_slots)


class TestDeadtimeInvariant:
    @settings(max_examples=40, deadline=None)
    @given(
        pair_prob=st.floats(min_value=0.05, max_value=1.0),
        eff=st.floats(min_value=0.1, max_value=1.0),
        ratio=st.floats(min_value=0.0, max_value=1.0),
        deadtime=st.integers(min_value=0, max_value=6),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_no_detector_refires_while_blind(self, pair_prob, eff, ratio, deadtime, seed):
        params = make_params(pair_prob=pair_prob, herald_det_efficiency=eff,
                             herald_splitter_ratio=ratio, herald_deadtime_slots=deadtime)
        stream = generate_herald_stream(params, 20_000, RngStream(seed).generator())
        assert same_detector_refire_gaps(stream, deadtime) == 0

    def test_dense_stream_respects_deadtime_per_detector(self):
        params = make_params(pair_prob=1.0)
        stream = generate_herald_stream(params, 50_000, RngStream(3).generator())
        for fires in (stream.pair_slots[stream.fired & stream.to_detector_a],
                      stream.pair_slots[stream.fired & ~stream.to_detector_a]):
            assert (np.diff(fires) > 4).all()


class TestConsecutiveHeralds:
    def test_two_detectors_allow_adjacent_heralds(self):
        # the whole point of splitting onto two detectors: herald pairs in
        # adjacent slots despite a multi-slot deadtime
        params = make_params(pair_prob=1.0, herald_deadtime_slots=4)
        stream = generate_herald_stream(params, 100_000, RngStream(5).generator())
        fired_slots = stream.herald_slots
        assert (np.diff(fired_slots) == 1).sum() > 0

    def test_single_detector_cannot(self):
        # ratio 1.0 sends every idler to detector A: adjacent heralds vanish
        params = make_params(pair_prob=1.0, herald_deadtime_slots=4,
                             herald_splitter_ratio=1.0)
        stream = generate_herald_stream(params, 100_000, RngStream(5).generator())
        assert (np.diff(stream.herald_slots) == 1).sum() == 0

    def test_runs_longer_than_two_are_impossible_at_deadtime_four(self):
        params = make_params(pair_prob=1.0, herald_deadtime_slots=4)
        stream = generate_herald_stream(params, 200_000, RngStream(9).generator())
        h = stream.herald_slots
        adjacent = np.diff(h) == 1
        assert not (adjacent[:-1] & adjacent[1:]).any()


class TestEdgeCases:
    def test_no_emission_means_empty_stream(self):
        params = make_params(pair_prob=0.0)
        stream = generate_herald_stream(params, 10_000, RngStream(1).generator())
        assert stream.pair_count == 0
        assert stream.herald_count == 0
        assert stream.herald_slots.size == 0

    def test_ideal_source_heralds_every_slot(self):
        params = make_params(pair_prob=1.0, herald_deadtime_slots=0)
        stream = generate_herald_stream(params, 10_000, RngStream(1).generator())
        assert stream.fired.all()
        assert stream.herald_count == stream.pair_count == 10_000

    def test_pair_fraction_matches_bernoulli(self):
        params = make_params(pair_prob=0.01)
        n = 2_000_000
        stream = generate_herald_stream(params, n, RngStream(2).generator())
        se = np.sqrt(0.01 * 0.99 / n)
        assert abs(stream.pair_count / n - 0.01) < 5 * se

    @pytest.mark.parametrize("pair_prob,n_slots", [(1e-10, 10**10), (1e-12, 10**12), (3e-10, 10**11)])
    def test_astronomical_stretch_is_drawn_in_pieces(self, pair_prob, n_slots):
        # a stretch of long gaps whose negative-binomial mean nears 2^63
        # slots, which numpy refuses in one draw; in the last range single
        # draws stay legal but their slot sum would overflow int64
        params = make_params(pair_prob=pair_prob)
        counts = np.array([
            generate_herald_stream(params, n_slots, RngStream(53, (i,)).generator()).pair_count
            for i in range(2000)
        ])
        assert binomial_fit_pvalue(counts, n_slots, pair_prob) > ALPHA

    @pytest.mark.parametrize("pair_prob,deadtime,n_slots", [(0.3, 3000, 30_000), (0.5, 1100, 30_000),
                                                            (1e-9, 2**40, 10**12)])
    def test_wide_window_places_every_cluster(self, pair_prob, deadtime, n_slots):
        # past 512 slots K is 1: no cluster is counted, every pair of a cluster
        # is placed, and each detector fires at most once per deadtime + 1 slots
        params = make_params(pair_prob=pair_prob, herald_deadtime_slots=deadtime)
        assert largest_counted(params) == 1
        for i in range(3):
            stream = generate_herald_stream(params, n_slots, RngStream(61, (i,)).generator())
            assert stream.pair_count > 0 and stream.pair_slots.size > 0
            assert stream.herald_count <= 2 * -(-n_slots // (deadtime + 1))
            assert same_detector_refire_gaps(stream, deadtime) == 0
            hist = herald_block_histogram(stream)
            assert hist.size >= 3 and int(hist @ np.arange(hist.size)) == stream.herald_count

    def test_subnormal_long_gap_probability_draws_quietly(self):
        # at pair_prob 0.3 and a 2000-slot deadtime 1 - q is about 1e-310: a
        # cluster's extra close gaps, log(u) / log(q), overflow to the cap
        params = make_params(pair_prob=0.3, herald_deadtime_slots=2000)
        stream = generate_herald_stream(params, 30_000, RngStream(71).generator())
        assert stream.pair_count == stream.pair_slots.size > 0

    @pytest.mark.parametrize("deadtime", [0, 4, 2**62])
    def test_smallest_rate_over_the_longest_range(self, deadtime):
        # pieces of 2^62 p long gaps stay within numpy's negative-binomial limit
        params = make_params(pair_prob=1e-16, herald_deadtime_slots=deadtime)
        expected = 2**62 * 1e-16
        for i in range(3):
            stream = generate_herald_stream(params, 2**62, RngStream(59, (i,)).generator())
            assert abs(stream.pair_count - expected) < 6 * np.sqrt(expected)

    @pytest.mark.parametrize("n_slots,bad", [
        (True, "True"), (5.0, "5.0"), (np.float64(300.0), "300.0"), ("300", "'300'"),
    ])
    def test_rejects_non_integer_range(self, n_slots, bad):
        # True and 5.0 were taken, and the stream kept them as its n_slots
        with pytest.raises(ValueError, match=re.escape(bad)):
            generate_herald_stream(make_params(), n_slots, RngStream(0).generator())

    def test_numpy_integer_range(self):
        stream = generate_herald_stream(make_params(), np.int64(300), RngStream(0).generator())
        assert stream.n_slots == 300

    def test_rejects_empty_range(self):
        # and ranges past the 2^62 slots that the sampler's integer sums
        # allow; at the smallest rate a missed refusal samples few pairs
        for n_slots in (0, MAX_SLOTS + 1):
            with pytest.raises(ValueError):
                generate_herald_stream(make_params(pair_prob=1e-16), n_slots, RngStream(0).generator())

    @pytest.mark.parametrize("pair_prob", [1e-16, 1e-9, 0.0043882, 0.3, 1.0])
    def test_fresh_segment_takes_one_long_gap_draw(self, pair_prob):
        # the walk sizes a fresh segment at max(room p q (1 - q), 1) clusters,
        # so for any range of at most 2^62 slots the long gaps of its
        # stretches are one negative-binomial draw at q, never drawn in pieces
        log_miss = math.log1p(-pair_prob) if pair_prob < 1.0 else -math.inf
        for window in (1, 4, MAX_SLOTS):
            q = -math.expm1(window * log_miss)
            for room in (1, MAX_SLOTS):
                assert max(int(room * pair_prob * q * (1.0 - q)), 1) <= source._max_piece(q)


class TestStreamConsistency:
    def test_heralds_are_fired_pairs(self):
        stream = generate_herald_stream(make_params(pair_prob=0.5), 2_000,
                                        RngStream(17).generator())
        pairs = stream.pair_slots
        assert (np.diff(pairs) > 0).all()
        assert stream.to_detector_a.size == stream.fired.size == pairs.size
        # a herald needs an emitted pair and exactly one detector that fired
        a = pairs[stream.fired & stream.to_detector_a]
        b = pairs[stream.fired & ~stream.to_detector_a]
        assert stream.herald_slots.size > 0
        assert np.isin(stream.herald_slots, pairs).all()
        assert np.intersect1d(a, b).size == 0
        assert np.union1d(a, b).tolist() == stream.herald_slots.tolist()

    @pytest.mark.usefixtures("largest_three")  # the source's K of 5 places almost nothing
    def test_members_have_a_close_neighbour(self):
        stream = generate_herald_stream(make_params(pair_prob=0.05), 200_000,
                                        RngStream(19).generator())
        close = np.diff(stream.pair_slots) <= 4
        assert (np.append(close, False) | np.append(False, close)).all()
        assert stream.pair_slots.size < stream.pair_count
        assert stream.herald_count >= int(stream.fired.sum())


class TestDeterminism:
    def test_same_stream_same_output(self):
        params = make_params(pair_prob=0.4)
        a = generate_herald_stream(params, 50_000, RngStream(21, (3,)).generator())
        b = generate_herald_stream(params, 50_000, RngStream(21, (3,)).generator())
        assert np.array_equal(a.pair_slots, b.pair_slots)
        assert np.array_equal(a.fired, b.fired)
        assert np.array_equal(a.to_detector_a, b.to_detector_a)

    def test_different_substreams_differ(self):
        params = make_params(pair_prob=0.4)
        a = generate_herald_stream(params, 50_000, RngStream(21, (3,)).generator())
        b = generate_herald_stream(params, 50_000, RngStream(21, (4,)).generator())
        assert not np.array_equal(a.pair_slots, b.pair_slots)

    def test_bad_seed_rejected(self):
        with pytest.raises(ValueError):
            RngStream(-1)
        with pytest.raises(ValueError):
            RngStream(2**64)

    @pytest.mark.parametrize("seed,index,bad", [
        (True, (), "True"), (1.5, (), "1.5"), (np.float64(2.0), (), "2.0"),
        (1, (1.7,), "1.7"), (1, (0, True), "True"), (1, ("3",), "'3'"),
    ])
    def test_non_integer_seed_or_index_rejected(self, seed, index, bad):
        # a bool seeded as 1 and a float index entry keyed its integer part
        with pytest.raises(ValueError, match=re.escape(bad)):
            RngStream(seed, index)

    def test_numpy_integers_key_as_python_integers(self):
        a = RngStream(np.uint64(21), (np.int64(3), 4)).generator().random(4)
        assert a.tolist() == RngStream(21, (3, 4)).generator().random(4).tolist()
