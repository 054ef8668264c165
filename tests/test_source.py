"""Photon-stream generation against an exact two-detector Markov oracle.

The heralding arm is a small Markov chain: the state is the pair of
blind-slot counters of the two detectors.  The oracle below builds the
full transition matrix of that chain, solves for its stationary
distribution, and reports the exact steady-state herald probability.
The simulation's empirical herald fraction must agree within sampling
error for any parameter set.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from photondemux.controller import run_starts_from_heralds
from photondemux import source
from photondemux.model import SourceParams
from photondemux.source import (
    _BYTES_PER_MEMBER,
    HeraldStream,
    RngStream,
    _apply_deadtime,
    generate_herald_stream,
)
from source_oracle import dense_herald_stream, loop_two_detectors


def stationary_herald_probability(pair_prob, eff, ratio, deadtime):
    """Exact steady-state herald probability of the two-detector arm.

    State (a, b): blind slots remaining for detectors A and B at the
    current slot (0 = live).  Per slot, a pair arrives with probability
    pair_prob, its idler picks A with probability ratio, and a live
    chosen detector fires with probability eff, resetting its counter to
    the deadtime; all counters otherwise decrement.
    """
    d = deadtime
    k = d + 1
    states = [(a, b) for a in range(k) for b in range(k)]
    index = {s: i for i, s in enumerate(states)}
    t_matrix = np.zeros((len(states), len(states)))
    herald_prob = np.zeros(len(states))
    for (a, b), i in index.items():
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
            t_matrix[i, index[dest]] += prob
            herald_prob[i] += prob * fired
    # stationary distribution: left eigenvector, found by linear solve
    m = np.vstack([t_matrix.T - np.eye(len(states)), np.ones(len(states))])
    rhs = np.zeros(len(states) + 1)
    rhs[-1] = 1.0
    pi, *_ = np.linalg.lstsq(m, rhs, rcond=None)
    return float(pi @ herald_prob)


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

    # name: (SourceParams overrides, slots)
    POINTS = {
        "fixture": (dict(pair_prob=0.0043882, herald_deadtime_slots=4), 50_000_000),
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


def _cluster_sizes(stream, window):
    """Per-detector histogram of clusters (gaps <= window) of two or more arrivals."""
    hist = np.zeros(8, dtype=np.int64)  # last bin: 7 or more
    for on_detector in (stream.to_detector_a, ~stream.to_detector_a):
        slots = stream.pair_slots[on_detector]
        if slots.size > 1:
            breaks = np.flatnonzero(np.diff(slots) > window) + 1
            sizes = np.diff(np.concatenate(([0], breaks, [slots.size])))
            np.add.at(hist, np.minimum(sizes[sizes > 1], 7), 1)
    return hist


def _summary(stream, window, herald_count):
    triggers = run_starts_from_heralds(stream.herald_slots, 2).size
    return herald_count, triggers, _cluster_sizes(stream, window)


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
ALPHA = 1e-3  # per comparison; about 20 of them run


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
            fast.append(_summary(stream, window, stream.herald_count))
            ref = dense_herald_stream(params, n_slots, RngStream(seed, (1,)).generator())
            dense.append(_summary(ref, window, int(ref.fired.sum())))
        for column in (0, 1):  # herald count, n = 2 trigger count
            a = [row[column] for row in fast]
            b = [row[column] for row in dense]
            assert stats.ks_2samp(a, b).pvalue > ALPHA, (column, np.mean(a), np.mean(b))
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

    def test_members_match_dense_oracle_slot_by_slot(self):
        # at N = 40 most clusters touch an end of the range: how often each
        # slot holds a member must follow the dense definition (a pair with
        # another pair of the range within the window)
        params = make_params(pair_prob=0.05)
        n_slots, draws = 40, 3000
        fast = np.zeros(n_slots, dtype=np.int64)
        dense = np.zeros(n_slots, dtype=np.int64)
        for i in range(draws):
            np.add.at(fast, generate_herald_stream(params, n_slots, RngStream(43, (i,)).generator()).pair_slots, 1)
            pairs = dense_herald_stream(params, n_slots, RngStream(47, (i,)).generator()).pair_slots
            close = np.diff(pairs) <= 4
            member = np.zeros(pairs.size, dtype=bool)
            member[1:] |= close
            member[:-1] |= close
            np.add.at(dense, pairs[member], 1)
        assert stats.chi2_contingency(np.array([fast, dense])).pvalue > ALPHA


class TestMemoryFigure:
    @pytest.mark.parametrize("overrides", [
        dict(pair_prob=1.0, herald_det_efficiency=0.7),
        dict(pair_prob=0.3),
        dict(pair_prob=0.0043882),
    ])
    def test_peak_bytes_per_member(self, overrides):
        params = make_params(**overrides)
        n_slots = int(2e6 / params.pair_prob)
        tracemalloc.start()
        try:
            stream = generate_herald_stream(params, n_slots, RngStream(53).generator())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _BYTES_PER_MEMBER * stream.pair_slots.size


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
        with pytest.raises(ValueError):
            generate_herald_stream(make_params(), 0, RngStream(0).generator())


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
