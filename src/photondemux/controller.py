"""Heralding logic: turn herald streams into router trigger events.

A delayed copy of each heralding signal is AND-ed with the next one, so a
run of n consecutive effective heralds starts a conversion.  Runs are
claimed greedily left to right without overlap: the router is busy for
the n slots of a conversion, so a slot consumed by one trigger can
neither start nor join another.  At realistic herald rates (hundreds of
counts per second against an 82 MHz clock) overlapping candidates are
vanishingly rare; the policy matters only under stress tests.

Within a maximal block of L consecutive heralds the greedy scan claims
floor(L/n) runs, so the trigger count of a stream is a sum over its
herald-block lengths: ``herald_block_histogram`` gives them, and
``run_starts_from_heralds`` lays the claimed runs out as start slots.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .source import HeraldStream


def herald_block_histogram(stream: HeraldStream) -> np.ndarray:
    """Blocks of consecutive heralds in a stream, counted by length.

    ``hist[L]`` is the number of maximal blocks of L consecutive heralds,
    so a greedy controller claims sum_L floor(L/n) * hist[L] runs of n,
    and sum_L L * hist[L] equals ``stream.herald_count``.  The blocks of
    the placed members are read from ``stream.herald_slots``; clusters lie
    at least two compressed slots apart, so no block spans two of them.
    Two additions cover the heralds that are only counted: each of the
    ``two_pair_blocks`` is one block at L = 2, and every other counted
    herald (``herald_count`` less the placed heralds and twice
    ``two_pair_blocks``) is a block of its own at L = 1, since it comes
    from an isolated pair or a two-pair cluster that did not herald in
    two adjacent slots.  ``hist`` has at least three entries; ``hist[0]``
    is 0.
    """
    placed = stream.herald_slots
    if placed.size:
        # where each block starts, then one past the last herald
        starts = np.flatnonzero(np.concatenate(([2], placed[1:] - placed[:-1], [2])) > 1)
        hist = np.bincount(starts[1:] - starts[:-1], minlength=3)
    else:
        hist = np.zeros(3, dtype=np.int64)
    hist[1] += stream.herald_count - placed.size - 2 * stream.two_pair_blocks
    hist[2] += stream.two_pair_blocks
    return hist


def run_starts_from_heralds(herald_slots: np.ndarray, n: int) -> np.ndarray:
    """Start slots of greedily claimed n-herald runs.

    ``herald_slots`` must be sorted strictly increasing slot indices.
    Within a maximal block of consecutive heralds of length L the greedy
    scan claims floor(L/n) runs, at offsets 0, n, 2n, ... into the block.
    """
    if n < 1:
        raise ValueError(f"run length must be >= 1 (got {n})")
    h = np.asarray(herald_slots, dtype=np.int64)
    if h.size == 0:
        return np.empty(0, dtype=np.int64)
    block_first = np.flatnonzero(np.concatenate(([True], np.diff(h) > 1)))
    block_len = np.append(block_first[1:], h.size) - block_first
    counts = block_len // n
    hold = counts > 0
    starts = h[block_first[hold]]
    counts = counts[hold]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    base = np.repeat(starts, counts)
    before = np.concatenate(([0], np.cumsum(counts)[:-1]))
    within = np.arange(total, dtype=np.int64) - np.repeat(before, counts)
    return base + within * n
