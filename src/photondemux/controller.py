"""Heralding logic: turn herald streams into router trigger events.

A delayed copy of each heralding signal is AND-ed with the next one, so a
run of n consecutive effective heralds starts a conversion.  Runs are
claimed greedily left to right without overlap: the router is busy for
the n slots of a conversion, so a slot consumed by one trigger can
neither start nor join another.  At realistic herald rates (hundreds of
counts per second against an 82 MHz clock) overlapping candidates are
vanishingly rare; the policy matters only under stress tests.
"""

from __future__ import annotations

import numpy as np


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
