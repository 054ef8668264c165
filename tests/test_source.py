"""Photon-stream generation against an exact two-detector Markov oracle.

The heralding arm is a small Markov chain: the state is the pair of
blind-slot counters of the two detectors.  The oracle below builds the
full transition matrix of that chain, solves for its stationary
distribution, and reports the exact steady-state herald probability.
The simulation's empirical herald fraction must agree within sampling
error for any parameter set.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photondemux.model import SourceParams
from photondemux.source import (
    HeraldStream,
    RngStream,
    generate_herald_stream,
    herald_probability,
)


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


def make_params(**overrides):
    base = dict(pair_prob=0.02, rep_rate_hz=82e6, herald_deadtime_slots=4)
    base.update(overrides)
    return SourceParams(**base)


def same_detector_refire_gaps(stream: HeraldStream, deadtime: int) -> int:
    """Number of same-detector firing pairs closer than the blind window."""
    violations = 0
    for slots in (stream.herald_a_slots, stream.herald_b_slots):
        if slots.size > 1:
            violations += int((np.diff(slots) <= deadtime).sum())
    return violations


class TestHeraldFractionOracle:
    def test_saturated_source_matches_markov_chain(self):
        # every slot emits a pair: the chain is driven as hard as possible
        params = make_params(pair_prob=1.0)
        expected = stationary_herald_probability(1.0, 1.0, 0.5, 4)
        stream = generate_herald_stream(params, 1_000_000, RngStream(7).generator())
        fraction = stream.fired.mean()
        se = np.sqrt(expected * (1 - expected) / stream.n_slots)
        assert abs(fraction - expected) < 5 * se

    @pytest.mark.parametrize("pair_prob,eff,ratio,deadtime", [
        (0.3, 1.0, 0.5, 4),
        (0.8, 0.6, 0.5, 2),
        (0.5, 0.9, 0.3, 3),
        (1.0, 1.0, 0.0, 4),  # single working detector
        (0.2, 1.0, 0.5, 0),
    ])
    def test_general_operating_points(self, pair_prob, eff, ratio, deadtime):
        params = make_params(pair_prob=pair_prob, herald_det_efficiency=eff,
                             herald_splitter_ratio=ratio, herald_deadtime_slots=deadtime)
        expected = stationary_herald_probability(pair_prob, eff, ratio, deadtime)
        n = 400_000
        stream = generate_herald_stream(params, n, RngStream(11).generator())
        se = np.sqrt(expected * (1 - expected) / n)
        assert abs(stream.fired.sum() / n - expected) < 5 * se


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
        for fires in (stream.herald_a_slots, stream.herald_b_slots):
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
        assert stream.pair_slots.size == 0
        assert stream.herald_slots.size == 0

    def test_ideal_source_heralds_every_slot(self):
        params = make_params(pair_prob=1.0, herald_deadtime_slots=0)
        stream = generate_herald_stream(params, 10_000, RngStream(1).generator())
        assert stream.fired.all()
        assert stream.herald_slots.size == 10_000

    def test_pair_fraction_matches_bernoulli(self):
        params = make_params(pair_prob=0.01)
        n = 2_000_000
        stream = generate_herald_stream(params, n, RngStream(2).generator())
        se = np.sqrt(0.01 * 0.99 / n)
        assert abs(stream.pair_slots.size / n - 0.01) < 5 * se

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            generate_herald_stream(make_params(), 0, RngStream(0).generator())


class TestStreamConsistency:
    def test_heralds_are_fired_pairs(self):
        stream = generate_herald_stream(make_params(pair_prob=0.5), 2_000,
                                        RngStream(17).generator())
        pairs = stream.pair_slots
        assert (np.diff(pairs) > 0).all()
        assert stream.to_detector_a.size == stream.fired.size == stream.double_pair.size == pairs.size
        # a herald needs an emitted pair and exactly one detector that fired
        a, b = stream.herald_a_slots, stream.herald_b_slots
        assert stream.herald_slots.size > 0
        assert np.isin(stream.herald_slots, pairs).all()
        assert np.intersect1d(a, b).size == 0
        assert np.union1d(a, b).tolist() == stream.herald_slots.tolist()


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

    def test_substream_spawning(self):
        root = RngStream(99)
        assert root.substream(2, 5) == RngStream(99, (2, 5))

    def test_bad_seed_rejected(self):
        with pytest.raises(ValueError):
            RngStream(-1)
        with pytest.raises(ValueError):
            RngStream(2**64)


class TestMultiPair:
    def test_disabled_by_default(self):
        stream = generate_herald_stream(make_params(pair_prob=0.9), 10_000,
                                        RngStream(1).generator())
        assert stream.multi_pair_slot_count == 0

    def test_double_pair_rate_is_squared(self):
        params = make_params(pair_prob=0.2, multi_pair_enabled=True)
        n = 500_000
        stream = generate_herald_stream(params, n, RngStream(23).generator())
        expected = n * 0.2 * 0.2  # second pair rides on a pair slot
        assert abs(stream.multi_pair_slot_count - expected) < 5 * np.sqrt(expected)


class TestHeraldProbability:
    def test_product(self):
        params = make_params(pair_prob=0.01, herald_det_efficiency=0.31)
        assert herald_probability(params) == pytest.approx(0.0031)

    def test_zero_emission(self):
        assert herald_probability(make_params(pair_prob=0.0)) == 0.0

    def test_ideal(self):
        assert herald_probability(make_params(pair_prob=1.0, herald_deadtime_slots=0)) == 1.0
