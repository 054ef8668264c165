"""Photon-stream generation against an exact two-detector Markov oracle.

The heralding arm is a small Markov chain: the state is the pair of
blind-slot counters of the two detectors.  The oracle below builds the
full transition matrix of that chain, solves for its stationary
distribution, and reports the exact steady-state herald probability.
The simulation's empirical herald fraction must agree within sampling
error for any parameter set.
"""

import itertools
import math
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
    _close_gap_law,
    _two_pair_law,
    expected_peak_bytes,
    generate_herald_stream,
    run_starts_from_heralds,
)
from source_oracle import absolute_members, dense_herald_stream, loop_two_detectors


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


def same_detector_refire_gaps(stream: HeraldStream, deadtime: int) -> int:
    """Number of same-detector firing pairs closer than the blind window."""
    violations = 0
    for slots in (stream.pair_slots[stream.fired & stream.to_detector_a],
                  stream.pair_slots[stream.fired & ~stream.to_detector_a]):
        if slots.size > 1:
            violations += int((np.diff(slots) <= deadtime).sum())
    return violations


def stream_triggers(stream: HeraldStream, n: int) -> int:
    """Runs of n >= 2 heralds in a stream, from the start slots; the pipeline's
    block-histogram count equals it (test_controller)."""
    return int(run_starts_from_heralds(stream.herald_slots, n).size) + stream.two_pair_blocks * (2 // n)


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


def in_large_clusters(slots: np.ndarray, window: int) -> np.ndarray:
    """Which pairs lie in clusters (gaps <= window) of three or more: the sampler's members.

    A cluster of exactly two pairs is counted, not placed, so oracles that
    place every pair drop those clusters before they compare members.  On
    the sampler's own side the filter keeps every pair
    (test_every_placed_cluster_has_three_pairs).
    """
    if slots.size == 0:
        return np.zeros(0, dtype=bool)
    breaks = np.flatnonzero(np.diff(slots) > window) + 1
    sizes = np.diff(np.concatenate(([0], breaks, [slots.size])))
    return np.repeat(sizes >= 3, sizes)


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


def _per_detector_cluster_sizes(slots, to_a, eff_draws, deadtime):
    """Sizes of each detector's clusters of successful arrivals (gaps <= deadtime)."""
    sizes = []
    for on_detector in (to_a, ~to_a):
        hits = slots[on_detector & eff_draws]
        breaks = np.flatnonzero(np.diff(hits) > deadtime) + 1
        sizes.append(np.diff(np.concatenate(([0], breaks, [hits.size]))))
    return sizes


class TestClosedFormClusters:
    """Generated streams, where clusters of one, two and three or more meet in one call."""

    # name: (SourceParams overrides, slots); at the fixture point and
    # efficiency 0.7 a detector has about 11 clusters of three or more in
    # 2e8 slots (2.7 in 5e7, where about one stream in seven has none)
    POINTS = {
        "fixture": (dict(pair_prob=0.0043882, herald_deadtime_slots=4), 200_000_000),
        "dense": (dict(pair_prob=0.3, herald_deadtime_slots=4), 200_000),
    }

    @pytest.mark.parametrize("eff", [1.0, 0.7])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", sorted(POINTS))
    def test_matches_loop_bit_for_bit(self, name, seed, eff):
        overrides, n_slots = self.POINTS[name]
        stream = generate_herald_stream(make_params(**overrides), n_slots, RngStream(seed).generator())
        slots, to_a = stream.pair_slots, stream.to_detector_a
        if eff == 1.0:  # the stream's own draws
            eff_draws = np.ones(slots.size, dtype=bool)
        else:
            eff_draws = RngStream(seed, (1,)).generator().random(slots.size) < eff
        for sizes in _per_detector_cluster_sizes(slots, to_a, eff_draws, 4):
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
            assert np.abs(_two_pair_law(params) - law).max() <= 1e-15, (gap, law)


def close_gap_pmf(pair_prob, window):
    """P(gap = x), x = 1..window: Geom(pair_prob) cut to 1..window, enumerated."""
    x = np.arange(1, window + 1, dtype=np.float64)
    pmf = pair_prob * (1.0 - pair_prob) ** (x - 1.0)
    return pmf / pmf.sum()


def law_blocks(law):
    """(first value, P(block), bit probabilities) of each dyadic block of a ``_CloseGapLaw``."""
    blocks, reach = [], 1.0
    for i, cond in enumerate(law.block_probs):
        bits = [prob for block, prob in law.bits if block == i]
        blocks.append((law.weights[1 + i], reach * cond, bits))
        reach *= 1.0 - cond
    return blocks


def law_gap_pmf(law, window):
    """P(gap = x), x = 1..window, that a ``_CloseGapLaw`` implies for one gap."""
    pmf = np.zeros(window + 1)
    pmf[1] = law.adjacent
    for start, block_prob, bits in law_blocks(law):
        offsets = np.arange(2 ** len(bits))
        prob = np.full(offsets.size, (1.0 - law.adjacent) * block_prob)
        for t, bit_prob in enumerate(bits):
            prob *= np.where(offsets >> t & 1, bit_prob, 1.0 - bit_prob)
        pmf[start:start + offsets.size] = prob
    return pmf[1:]


def composition_of(gaps, law):
    """The ``_CloseGapLaw`` composition of given close gaps."""
    gaps = np.asarray(gaps)
    counts, bit_counts = [int((gaps == 1).sum())], []
    for start, _, bits in law_blocks(law):
        offsets = gaps[(gaps >= start) & (gaps < start + 2 ** len(bits))] - start
        counts.append(offsets.size)
        bit_counts += [int((offsets >> t & 1).sum()) for t in range(len(bits))]
    return counts + bit_counts


def same_law_pvalue(a, b):
    """Chi-square p-value that two samples of hashable outcomes share one law.

    Outcomes seen fewer than 10 times in both samples together are pooled.
    """
    keys = sorted(set(a) | set(b))
    table = np.array([[a.count(k) for k in keys], [b.count(k) for k in keys]])
    rare = table.sum(axis=0) < 10
    table = np.column_stack([table[:, ~rare], table[:, rare].sum(axis=1)])
    table = table[:, table.sum(axis=0) > 0]
    assert table.shape[1] >= 2
    return stats.chi2_contingency(table).pvalue


def iid_close_gaps(pair_prob, window, shape, rng):
    """Close gaps drawn from the enumerated pmf."""
    cdf = np.cumsum(close_gap_pmf(pair_prob, window))
    return np.minimum(np.searchsorted(cdf, rng.random(shape) * cdf[-1], side="right"), window - 1) + 1


# (pair_prob, window): the paper's window of 4, blocks of one and of two
# values, and a window so wide that the truncation holds a third of the law
CLOSE_GAP_POINTS = [(0.3, 1), (0.3, 2), (0.0043882, 4), (0.3, 4), (0.5, 5), (1e-6, 2**20 + 3)]


class TestCloseGapLaw:
    """The two-pair close-gap composition against enumerated pmfs."""

    @pytest.mark.parametrize("pair_prob,window", CLOSE_GAP_POINTS)
    def test_one_gap_matches_enumeration(self, pair_prob, window):
        # the adjacent probability, the dyadic blocks and their offset bits
        # give the truncated geometric gap law value by value
        law = _close_gap_law(pair_prob, window)
        expected = close_gap_pmf(pair_prob, window)
        assert law.adjacent == pytest.approx(expected[0], rel=1e-12)
        assert np.allclose(law_gap_pmf(law, window), expected, rtol=1e-9, atol=0.0)
        sizes = [2 ** len(bits) for _, _, bits in law_blocks(law)]
        assert sum(sizes) == window - 1  # the blocks tile 2..window
        assert all(a > b for a, b in zip(sizes, sizes[1:]))

    @pytest.mark.parametrize("pair_prob,window", [(0.3, 2), (0.3, 4), (0.5, 5)])
    def test_draw_matches_iid_gaps(self, pair_prob, window):
        # the joint law of every count of a drawn composition of 3 gaps
        law = _close_gap_law(pair_prob, window)
        rng = np.random.default_rng(83)
        drawn = [tuple(law.draw(3, rng)) for _ in range(4000)]
        iid = [tuple(composition_of(g, law)) for g in iid_close_gaps(pair_prob, window, (4000, 3), rng)]
        assert same_law_pvalue(drawn, iid) > ALPHA

    @pytest.mark.parametrize("pair_prob,window", CLOSE_GAP_POINTS)
    def test_total_is_the_sum_of_the_gaps(self, pair_prob, window):
        law = _close_gap_law(pair_prob, window)
        rng = np.random.default_rng(89)
        gaps = iid_close_gaps(pair_prob, window, (200, 5), rng)
        assert [law.total(composition_of(g, law)) for g in gaps] == gaps.sum(axis=1).tolist()

    @pytest.mark.parametrize("pair_prob,window", [(0.0043882, 4), (1e-6, 2**20 + 3)])
    def test_sum_of_wide_gaps_matches_iid_gaps(self, pair_prob, window):
        # the sum of the gaps of 2..window of a drawn composition of 4 gaps
        law = _close_gap_law(pair_prob, window)
        rng = np.random.default_rng(97)
        drawn = []
        for _ in range(3000):
            comp = law.draw(4, rng)
            drawn.append(law.total(comp) - comp[0])
        gaps = iid_close_gaps(pair_prob, window, (3000, 4), rng)
        iid = np.where(gaps > 1, gaps, 0).sum(axis=1)
        assert ks_pvalue(drawn, iid) > ALPHA

    @pytest.mark.parametrize("pair_prob,window", [(0.3, 2), (0.3, 4), (0.5, 5), (1e-6, 2**20 + 3)])
    def test_split_has_the_law_of_a_fresh_draw(self, pair_prob, window):
        # the first 2 of 5 gaps of a drawn composition, split off by the
        # hypergeometric chain, against a fresh composition of 2 gaps; the
        # other 3 against a fresh composition of 3
        law = _close_gap_law(pair_prob, window)
        rng = np.random.default_rng(101)
        left, right, fresh_left, fresh_right = [], [], [], []
        for _ in range(4000):
            comp = law.draw(5, rng)
            a, b = law.split(comp, 5, 2, rng)
            assert [x + y for x, y in zip(a, b)] == comp and min(a + b) >= 0
            left.append(tuple(a))
            right.append(tuple(b))
            fresh_left.append(tuple(law.draw(2, rng)))
            fresh_right.append(tuple(law.draw(3, rng)))
        for part, fresh in ((left, fresh_left), (right, fresh_right)):
            if window > 5:  # too many compositions to tabulate: compare the sums
                assert ks_pvalue([law.total(c) for c in part], [law.total(c) for c in fresh]) > ALPHA
            else:
                assert same_law_pvalue(part, fresh) > ALPHA


def _cluster_sizes(slots, to_a, window):
    """Per-detector histogram of clusters (gaps <= window) of two or more arrivals."""
    hist = np.zeros(8, dtype=np.int64)  # last bin: 7 or more
    for on_detector in (to_a, ~to_a):
        detector_slots = slots[on_detector]
        if detector_slots.size > 1:
            breaks = np.flatnonzero(np.diff(detector_slots) > window) + 1
            sizes = np.diff(np.concatenate(([0], breaks, [detector_slots.size])))
            np.add.at(hist, np.minimum(sizes[sizes > 1], 7), 1)
    return hist


def _member_cluster_sizes(stream, window):
    """``_cluster_sizes`` of the pairs of clusters of three or more."""
    keep = in_large_clusters(stream.pair_slots, window)
    return _cluster_sizes(stream.pair_slots[keep], stream.to_detector_a[keep], window)


# name: (SourceParams overrides, slots per trial)
LAW_POINTS = {
    "fixture": (dict(pair_prob=0.0043882, herald_deadtime_slots=4), 2_000_000),
    "dense": (dict(pair_prob=0.3, herald_deadtime_slots=4), 20_000),
    "sweep": (dict(pair_prob=0.3, herald_deadtime_slots=0), 20_000),
    "lossy_unbalanced": (dict(pair_prob=0.2, herald_deadtime_slots=3, herald_det_efficiency=0.6,
                              herald_splitter_ratio=0.3), 20_000),
    "saturated": (dict(pair_prob=1.0, herald_deadtime_slots=4, herald_det_efficiency=0.7), 2_000),
}
LAW_SEEDS = range(40)
ALPHA = 1e-3  # per comparison; about 60 of them run


class TestAgainstDenseOracle:
    """The cluster-skipping sampler against the sampler that draws every pair."""

    @pytest.mark.parametrize("name", sorted(LAW_POINTS))
    def test_same_law(self, name):
        self.assert_same_law(name)

    def test_many_vector_rounds(self, monkeypatch):
        monkeypatch.setattr(source, "_BATCH_UNITS", 64)
        self.assert_same_law("dense")

    @staticmethod
    def assert_same_law(name):
        overrides, n_slots = LAW_POINTS[name]
        params = make_params(**overrides)
        window = max(params.herald_deadtime_slots, 1)
        fast, dense = [], []
        for seed in LAW_SEEDS:
            stream = generate_herald_stream(params, n_slots, RngStream(seed, (0,)).generator())
            fast.append((stream.herald_count, stream_triggers(stream, 2),
                         _member_cluster_sizes(stream, window)))
            ref = dense_herald_stream(params, n_slots, RngStream(seed, (1,)).generator())
            dense.append((int(ref.fired.sum()), run_starts_from_heralds(ref.herald_slots, 2).size,
                          _member_cluster_sizes(ref, window)))
        for column in (0, 1):  # herald count, n = 2 trigger count
            a = [row[column] for row in fast]
            b = [row[column] for row in dense]
            assert ks_pvalue(a, b) > ALPHA, (column, np.mean(a), np.mean(b))
        table = np.array([sum(row[2] for row in fast), sum(row[2] for row in dense)])
        table = table[:, table.sum(axis=0) > 0]
        assert table.shape[1] >= 2
        assert stats.chi2_contingency(table).pvalue > ALPHA, table

    def test_no_emission(self):
        params = make_params(pair_prob=0.0)
        for seed in range(5):
            stream = generate_herald_stream(params, 1000, RngStream(seed).generator())
            ref = dense_herald_stream(params, 1000, RngStream(seed).generator())
            assert stream.pair_count == ref.pair_slots.size == 0
            assert stream.herald_count == 0 and stream.pair_slots.size == 0


# name: (SourceParams overrides, slots per trial)
COMPRESSED_POINTS = {
    "fixture": (dict(pair_prob=0.0043882, herald_deadtime_slots=4), 2_000_000),
    "dense": (dict(pair_prob=0.3, herald_deadtime_slots=4), 20_000),
    "short": (dict(pair_prob=0.05, herald_deadtime_slots=4), 300),
    "no_deadtime": (dict(pair_prob=0.2, herald_deadtime_slots=0), 5_000),
}


class TestCompressedSlots:
    """Members sit in compressed slots: exact gaps within a cluster, window + 1 between."""

    @pytest.mark.parametrize("name", sorted(COMPRESSED_POINTS))
    def test_gaps_are_exact_or_window_plus_one(self, name):
        overrides, n_slots = COMPRESSED_POINTS[name]
        params = make_params(**overrides)
        window = max(params.herald_deadtime_slots, 1)
        for seed in range(5):
            slots = generate_herald_stream(params, n_slots, RngStream(67, (seed,)).generator()).pair_slots
            gaps = np.diff(slots)
            assert ((gaps >= 1) & (gaps <= window) | (gaps == window + 1)).all()
            assert slots.size == 0 or (slots[0] >= 0 and slots[-1] < n_slots)

    @pytest.mark.parametrize("name", sorted(COMPRESSED_POINTS))
    def test_compressed_absolute_oracle_has_same_law(self, name):
        # the sampler that draws every stretch's absolute place, with its
        # gaps between clusters cut to window + 1
        overrides, n_slots = COMPRESSED_POINTS[name]
        params = make_params(**overrides)
        window = max(params.herald_deadtime_slots, 1)
        seeds = 200
        fast, oracle = [], []
        fast_gaps = np.zeros(window + 2, dtype=np.int64)
        oracle_gaps = np.zeros(window + 2, dtype=np.int64)
        for seed in range(seeds):
            stream = generate_herald_stream(params, n_slots, RngStream(71, (seed,)).generator())
            members = stream.pair_slots[in_large_clusters(stream.pair_slots, window)]
            fast.append((stream.pair_count, members.size))
            fast_gaps += np.bincount(np.diff(members), minlength=window + 2)
            slots, pairs = absolute_members(params.pair_prob, window, n_slots,
                                            RngStream(73, (seed,)).generator())
            slots = slots[in_large_clusters(slots, window)]
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
    def test_every_placed_cluster_has_three_pairs(self, pair_prob, deadtime, n_slots):
        # a cluster of two pairs in range is counted wherever it lies: cut
        # short by the end of the range, or last in a vector round
        params = make_params(pair_prob=pair_prob, herald_deadtime_slots=deadtime)
        window = max(deadtime, 1)
        for i in range(100):
            slots = generate_herald_stream(params, n_slots, RngStream(107, (i,)).generator()).pair_slots
            assert in_large_clusters(slots, window).all()

    @pytest.mark.parametrize("pair_prob,deadtime,n_slots", [
        (0.05, 4, 40),
        (0.2, 1, 60),
        (0.05, 4, 300),
    ])
    def test_members_match_dense_oracle_in_law(self, pair_prob, deadtime, n_slots):
        # in short ranges most clusters touch an end of the range: the member
        # count and each detector's cluster sizes must follow the dense
        # definition (a pair of a cluster of three or more pairs of the range)
        params = make_params(pair_prob=pair_prob, herald_deadtime_slots=deadtime)
        window = max(deadtime, 1)
        draws = 2000
        fast, dense = [], []
        fast_sizes = np.zeros(8, dtype=np.int64)
        dense_sizes = np.zeros(8, dtype=np.int64)
        for i in range(draws):
            stream = generate_herald_stream(params, n_slots, RngStream(43, (i,)).generator())
            fast.append(int(in_large_clusters(stream.pair_slots, window).sum()))
            fast_sizes += _member_cluster_sizes(stream, window)
            ref = dense_herald_stream(params, n_slots, RngStream(47, (i,)).generator())
            dense.append(int(in_large_clusters(ref.pair_slots, window).sum()))
            dense_sizes += _member_cluster_sizes(ref, window)
        assert ks_pvalue(fast, dense) > ALPHA, (np.mean(fast), np.mean(dense))
        table = np.array([fast_sizes, dense_sizes])
        table = table[:, table.sum(axis=0) > 0]
        assert table.shape[1] >= 2
        assert stats.chi2_contingency(table).pvalue > ALPHA, table


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
    ])
    def test_peak_bytes_per_member(self, overrides):
        params = make_params(**overrides)
        n_slots = int(2e6 / params.pair_prob)
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

    @pytest.mark.parametrize("deadtime", [0, 4, 2**62])
    def test_smallest_rate_over_the_longest_range(self, deadtime):
        # pieces of 2^62 p long gaps stay within numpy's negative-binomial limit
        params = make_params(pair_prob=1e-16, herald_deadtime_slots=deadtime)
        expected = 2**62 * 1e-16
        for i in range(3):
            stream = generate_herald_stream(params, 2**62, RngStream(59, (i,)).generator())
            assert abs(stream.pair_count - expected) < 6 * np.sqrt(expected)

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
