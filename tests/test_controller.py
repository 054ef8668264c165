"""Run detection against a brute-force window-scan oracle."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photondemux import source
from photondemux.converter import route_heralded_batch
from photondemux.model import ConverterParams, SourceParams
from photondemux.source import (
    HeraldStream,
    RngStream,
    generate_herald_stream,
    herald_block_histogram,
    run_starts_from_heralds,
)
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


def flag_stream(flags, singles=0, doubles=0):
    """A stream whose members herald at the flagged slots, plus heralds only counted:
    ``singles`` lone ones and ``doubles`` blocks of two."""
    slots = np.flatnonzero(np.asarray(flags, dtype=bool))
    return HeraldStream(n_slots=len(flags), pair_slots=slots, to_detector_a=slots % 2 == 0,
                        fired=np.ones(slots.size, dtype=bool), pair_count=slots.size,
                        herald_count=slots.size + singles + 2 * doubles,
                        counted_blocks=np.array([0, singles, doubles], dtype=np.int64))


def histogram(flags, **counted):
    return herald_block_histogram(flag_stream(flags, **counted)).tolist()


def block_triggers(stream, n):
    """Runs of n claimed from a stream, as the pipeline counts them."""
    hist = herald_block_histogram(stream)
    return int(hist @ (np.arange(hist.size) // n))


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

    def test_histogram_of_one_block(self):
        flags = [False] * 12
        for i in (3, 4, 5, 6):
            flags[i] = True
        assert histogram(flags) == [0, 0, 0, 0, 1]
        assert [block_triggers(flag_stream(flags), n) for n in (1, 2, 3, 4, 5)] == [4, 2, 1, 1, 0]

    def test_histogram_of_mixed_blocks(self):
        # blocks of 1, 2, 1 and 3 heralds
        flags = [True, False, True, True, False, False, True, False, True, True, True]
        assert histogram(flags) == [0, 2, 1, 1]

    def test_histogram_without_heralds(self):
        assert histogram([False] * 8) == [0, 0, 0]
        assert histogram([False] * 8, singles=2, doubles=1) == [0, 2, 1]

    def test_counted_heralds_are_added_at_one_and_two(self):
        flags = [False, True, True, True, False, True]
        assert histogram(flags, singles=3, doubles=2) == [0, 4, 2, 1]
        stream = flag_stream(flags, singles=3, doubles=2)
        assert [block_triggers(stream, n) for n in (1, 2, 3)] == [stream.herald_count, 3, 1]


@settings(max_examples=150, deadline=None)
@given(
    flags=st.lists(st.booleans(), min_size=0, max_size=120),
    n=st.integers(min_value=1, max_value=5),
)
def test_matches_window_scan_oracle(flags, n):
    herald_slots = np.flatnonzero(np.asarray(flags, dtype=bool))
    starts = run_starts_from_heralds(herald_slots, n).tolist()
    assert starts == greedy_scan_oracle(flags, n)


@settings(max_examples=150, deadline=None)
@given(
    flags=st.lists(st.booleans(), min_size=0, max_size=120),
    n=st.integers(min_value=1, max_value=5),
)
def test_block_triggers_match_window_scan_oracle(flags, n):
    hist = herald_block_histogram(flag_stream(flags))
    assert int(hist @ np.arange(hist.size)) == sum(flags)
    assert block_triggers(flag_stream(flags), n) == len(greedy_scan_oracle(flags, n))


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


# (pair_prob, deadtime, efficiency, splitter ratio) x n_slots x seeds, by
# default and in vector rounds of 3 units, each with the source's K and with
# K = 3 at a window of one slot; every point makes members, counted blocks
# of two or more or lone counted heralds
STREAM_GRID = list(itertools.product(
    [(0.0043882, 3), (0.05, 0), (0.05, 4), (0.3, 0), (0.3, 1), (0.3, 4), (0.6, 1), (1.0, 4)],
    [(1.0, 0.5), (0.7, 0.3)],
    [10, 300, 4_000],
    range(3),
))


@pytest.fixture(params=["default_rounds", "three_unit_rounds",
                        "largest_three", "largest_three_in_three_unit_rounds"])
def round_size(request, monkeypatch):
    """The vector rounds and the K of a run; at K = 3 it returns the close
    pairs of each window-1 cluster of 2..K pairs that the end of a range cut
    from a placed or a counted cluster (tests/test_source.py checks those
    of a wider window, rarer in these ranges)."""
    if request.param.endswith("three_unit_rounds"):
        monkeypatch.setattr(source, "_BATCH_UNITS", 3)
    if not request.param.startswith("largest_three"):
        return None
    request.getfixturevalue("largest_three")
    cuts = []
    one = source._GapClassLaw.one

    def spy(law, gaps):
        if all(close == slots for close, slots in law.index):  # a window-1 table: every close gap one slot
            cuts.append(len(gaps))
        return one(law, gaps)

    monkeypatch.setattr(source._GapClassLaw, "one", spy)
    return cuts


class TestBlockHistogramOnGeneratedStreams:
    """The block histogram holds every herald, and its triggers equal the start-slot count."""

    @staticmethod
    def streams():
        for (pair_prob, deadtime), (eff, ratio), n_slots, seed in STREAM_GRID:
            params = SourceParams(pair_prob=pair_prob, rep_rate_hz=82e6, herald_deadtime_slots=deadtime,
                                  herald_det_efficiency=eff, herald_splitter_ratio=ratio)
            yield params, generate_herald_stream(params, n_slots, RngStream(71, (seed,)).generator())

    def test_lengths_add_up_to_the_herald_count(self, round_size):
        seen = np.zeros(5, dtype=np.int64)
        for params, stream in self.streams():
            hist = herald_block_histogram(stream)
            assert (hist >= 0).all() and hist[0] == 0
            assert int(hist @ np.arange(hist.size)) == stream.herald_count
            window_one = params.herald_deadtime_slots <= 1
            seen += [stream.herald_slots.size > 0, stream.counted_blocks[2:].sum() > 0, hist[1] > 0,
                     window_one and stream.pair_slots.size > 0,
                     not window_one and stream.counted_blocks[2:].sum() > 0]
        # members, counted blocks of two or more (at a wider window than one
        # slot too, where only counted clusters form them) and lone counted
        # heralds all occur, and at K = 3 placed clusters at a window of one
        # slot too, and clusters cut by the end of the range to 2 and to 3 pairs
        assert (seen[[0, 1, 2, 4]] > 0).all()
        if round_size is not None:
            assert seen[3] > 0
            assert set(round_size) == {1, 2}

    def test_triggers_equal_the_start_slot_count(self, round_size):
        longest = 0
        for _, stream in self.streams():
            hist = herald_block_histogram(stream)
            longest = max(longest, np.flatnonzero(hist).max(initial=0))
            assert block_triggers(stream, 1) == stream.herald_count
            for n in (2, 3, 4):
                starts = run_starts_from_heralds(stream.herald_slots, n).size
                counted = int(stream.counted_blocks @ (np.arange(stream.counted_blocks.size) // n))
                assert block_triggers(stream, n) == starts + counted
        assert longest >= 5


class TestDriveSchedule:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_identity_assignment(self, n):
        # photon j of every triggered run is aimed at port j
        runs = route_heralded_runs(3, ConverterParams(n_modes=n), RngStream(10).generator())
        assert runs.scheduled.tolist() == [list(range(n))] * 3
        assert runs.ports.tolist() == [list(range(n))] * 3
        batch = route_heralded_batch(3, ConverterParams(n_modes=n), RngStream(10).generator())
        assert np.array_equal(batch.port_counts, 3 * np.eye(n, dtype=np.int64))
