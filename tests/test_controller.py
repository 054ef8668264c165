"""Run detection against a brute-force window-scan oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photondemux.controller import run_starts_from_heralds
from photondemux.converter import route_heralded_batch
from photondemux.model import ConverterParams, SourceParams
from photondemux.source import RngStream, generate_herald_stream
from routing_oracle import route_heralded_runs


def greedy_scan_oracle(effective, n):
    """Left-to-right window scan, claiming n slots per accepted run."""
    starts = []
    s = 0
    while s + n <= len(effective):
        if all(effective[s:s + n]):
            starts.append(s)
            s += n
        else:
            s += 1
    return starts


def run_starts(flags, n):
    """Run starts over a dense per-slot herald flag list."""
    return run_starts_from_heralds(np.flatnonzero(np.asarray(flags, dtype=bool)), n).tolist()


class TestKnownPatterns:
    def test_single_qualifying_window(self):
        flags = [False] * 10
        flags[3] = flags[4] = True
        assert run_starts(flags, 2) == [3]

    def test_three_heralds_give_one_pair_trigger(self):
        # greedy claiming: {3,4} is taken, the orphan 5 has no partner
        flags = [False] * 10
        for i in (3, 4, 5):
            flags[i] = True
        assert run_starts(flags, 2) == [3]

    def test_four_heralds_give_two_triggers(self):
        flags = [False] * 12
        for i in (3, 4, 5, 6):
            flags[i] = True
        assert run_starts(flags, 2) == [3, 5]

    def test_no_heralds(self):
        assert run_starts([False] * 8, 2) == []

    def test_run_length_one_takes_every_herald(self):
        flags = [True, False, True, True, False]
        assert run_starts(flags, 1) == [0, 2, 3]

    def test_invalid_run_length(self):
        with pytest.raises(ValueError):
            run_starts([True], 0)


@settings(max_examples=150, deadline=None)
@given(
    flags=st.lists(st.booleans(), min_size=0, max_size=120),
    n=st.integers(min_value=1, max_value=5),
)
def test_matches_window_scan_oracle(flags, n):
    herald_slots = np.flatnonzero(np.asarray(flags, dtype=bool))
    starts = run_starts_from_heralds(herald_slots, n).tolist()
    assert starts == greedy_scan_oracle(flags, n)


@settings(max_examples=50, deadline=None)
@given(
    flags=st.lists(st.booleans(), min_size=1, max_size=80),
    n=st.integers(min_value=1, max_value=4),
)
def test_every_trigger_window_is_fully_heralded(flags, n):
    claimed = set()
    for start in run_starts(flags, n):
        for s in range(start, start + n):
            assert flags[s]
            assert s not in claimed  # non-overlap
            claimed.add(s)


class TestOnGeneratedStreams:
    def test_dense_and_sparse_paths_agree(self):
        params = SourceParams(pair_prob=0.3, rep_rate_hz=82e6, herald_deadtime_slots=4)
        stream = generate_herald_stream(params, 30_000, RngStream(31).generator())
        flags = np.zeros(stream.n_slots, dtype=bool)
        flags[stream.herald_slots] = True
        starts = run_starts_from_heralds(stream.herald_slots, 2).tolist()
        assert starts == greedy_scan_oracle(flags.tolist(), 2)
        assert len(starts) > 0

    def test_trigger_rate_scales_to_counts_per_second(self):
        params = SourceParams(pair_prob=0.3, rep_rate_hz=82e6, herald_deadtime_slots=4)
        stream = generate_herald_stream(params, 30_000, RngStream(31).generator())
        starts = run_starts_from_heralds(stream.herald_slots, 2)
        rate = starts.size * 82e6 / 30_000
        assert rate > 0


class TestDriveSchedule:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_identity_assignment(self, n):
        # photon j of every triggered run is aimed at port j
        runs = route_heralded_runs(3, ConverterParams(n_modes=n), RngStream(10).generator())
        assert runs.scheduled.tolist() == [list(range(n))] * 3
        assert runs.ports.tolist() == [list(range(n))] * 3
        batch = route_heralded_batch(3, ConverterParams(n_modes=n), RngStream(10).generator())
        assert np.array_equal(batch.port_counts, 3 * np.eye(n, dtype=np.int64))
