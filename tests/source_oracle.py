"""Reference source that draws every pair: the oracle for ``photondemux.source``.

``dense_herald_stream`` places every pair slot by iid geometric gaps,
draws each pair's detector and efficiency outcome, and resolves the
deadtime with a per-cluster sequential scan.  It is slow (linear in
pairs, and a Python loop per cluster) but obviously exact.
The package's cluster-skipping sampler must agree with it in law, and
its deadtime resolver (closed form for clusters of one or two arrivals,
pointer doubling for longer ones) must agree with
``loop_two_detectors`` bit for bit.  ``two_pair_law`` is the closed
form of a two-pair cluster's heralds, the law that the package's
counted-cluster tables must give their two-pair rows.
``stream_triggers`` counts a stream's runs of n heralds from their start
slots, the count that the pipeline's block histogram must reproduce.

``absolute_members`` is the cluster-skipping sampler as it was before
it placed members in compressed slots: it draws where every stretch of
long gaps lies, one negative-binomial draw per unit, and returns the
absolute slots of every pair within ``window`` of another.  Dropping
its clusters of at most K pairs (2 <= K <= 16, or K = 1 past a window
of 512 slots), which the package's sampler counts without placing, and
compressing its inter-cluster gaps to ``window + 1`` must give the
package's sampler's law.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from photondemux.source import _BATCH_UNITS, _bisect_stretch, _draw_stretch, _max_piece, run_starts_from_heralds


def dense_pair_slots(pair_prob: float, n_slots: int, rng: np.random.Generator) -> np.ndarray:
    """Slot indices carrying a pair, via geometric inter-arrival gaps.

    Exactly equivalent to an independent Bernoulli(pair_prob) draw per
    slot, without touching the empty slots.
    """
    if pair_prob == 0.0 or n_slots == 0:
        return np.empty(0, dtype=np.int64)
    if pair_prob == 1.0:
        return np.arange(n_slots, dtype=np.int64)
    chunks: list[np.ndarray] = []
    expected = n_slots * pair_prob
    batch = int(expected + 6.0 * np.sqrt(expected + 1.0)) + 16
    last = -1
    while True:
        gaps = rng.geometric(pair_prob, size=batch)
        slots = last + np.cumsum(gaps)
        if slots[-1] >= n_slots:
            chunks.append(slots[slots < n_slots])
            break
        chunks.append(slots)
        last = int(slots[-1])
        batch = max(batch // 4, 1024)
    return np.concatenate(chunks) if len(chunks) > 1 else chunks[0]


def loop_apply_deadtime(slots: np.ndarray, eff_draws: np.ndarray, deadtime: int) -> np.ndarray:
    """Which arrivals fire, by a sequential scan of each close-spaced cluster.

    An arrival fires iff its efficiency draw succeeded and more than
    ``deadtime`` slots have passed since the detector's last fire.
    """
    m = len(slots)
    if m == 0 or deadtime == 0:
        return eff_draws.copy()
    fired = np.zeros(m, dtype=bool)
    starts = np.flatnonzero(np.concatenate(([True], np.diff(slots) > deadtime)))
    ends = np.append(starts[1:], m)
    singles = (ends - starts) == 1
    single_idx = starts[singles]
    fired[single_idx] = eff_draws[single_idx]
    for a, b in zip(starts[~singles].tolist(), ends[~singles].tolist()):
        s = slots[a:b].tolist()
        e = eff_draws[a:b].tolist()
        last = None
        for i in range(b - a):
            if (last is None or s[i] - last > deadtime) and e[i]:
                fired[a + i] = True
                last = s[i]
    return fired


def loop_two_detectors(slots: np.ndarray, to_a: np.ndarray, eff_draws: np.ndarray,
                       deadtime: int) -> np.ndarray:
    """``loop_apply_deadtime`` on each detector's arrivals."""
    fired = np.zeros(len(slots), dtype=bool)
    for on_detector in (to_a, ~to_a):
        fired[on_detector] = loop_apply_deadtime(slots[on_detector], eff_draws[on_detector], deadtime)
    return fired


def two_pair_law(params) -> list[float]:
    """Probabilities of 0, 1 and 2 heralds from a cluster of exactly two pairs.

    The cluster's first arrival always meets a live detector.  Its second
    arrival is at most w = max(deadtime, 1) slots later, so under a
    deadtime of at least one slot it is blind exactly when it goes to the
    detector that the first arrival fired.
    """
    eff = params.herald_det_efficiency
    r = params.herald_splitter_ratio
    apart = 1.0 if params.herald_deadtime_slots == 0 else 1.0 - r * r - (1.0 - r) ** 2
    both = eff * eff * apart
    none = (1.0 - eff) ** 2
    return [none, 1.0 - none - both, both]


def stream_triggers(stream, n: int) -> int:
    """Runs of n heralds in a ``HeraldStream``: the runs laid out as start slots over
    its placed heralds, and floor(L / n) per block of L heralds that it only counts.
    The pipeline counts them from the block histogram alone; the two must agree."""
    counted = stream.counted_blocks
    return int(run_starts_from_heralds(stream.herald_slots, n).size + counted @ (np.arange(counted.size) // n))


@dataclass(frozen=True)
class DenseStream:
    n_slots: int
    pair_slots: np.ndarray  # every pair, sorted
    to_detector_a: np.ndarray
    fired: np.ndarray

    @property
    def herald_slots(self) -> np.ndarray:
        return self.pair_slots[self.fired]


def dense_herald_stream(params, n_slots: int, rng: np.random.Generator) -> DenseStream:
    """Every pair of ``n_slots`` slots, with its detector and herald outcome."""
    pair_slots = dense_pair_slots(params.pair_prob, n_slots, rng)
    m = len(pair_slots)
    to_a = rng.random(m) < params.herald_splitter_ratio
    eff = params.herald_det_efficiency
    eff_draws = rng.random(m) < eff if eff < 1.0 else np.ones(m, dtype=bool)
    fired = loop_two_detectors(pair_slots, to_a, eff_draws, params.herald_deadtime_slots)
    return DenseStream(n_slots, pair_slots, to_a, fired)


def absolute_members(pair_prob: float, window: int, n_slots: int,
                     rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Slots of the pairs within ``window`` slots of a neighbour, and the pair count.

    Walks "units" of gap-index space: a stretch of k >= 0 long gaps
    (> window) closed by one close gap (<= window).  With
    q = 1 - (1-p)^window, k + 1 is Geom(q); the close gap is Geom(p)
    truncated to 1..window, drawn by inverse CDF; a stretch totals
    k (window + 1) + NegBinomial(k, p) by memorylessness, drawn by
    ``_draw_stretch`` when k exceeds ``_max_piece``.  Slot -1 is a
    virtual pair that starts the range.  Every other excess is drawn up
    front, so the unit that crosses the end of the range always has a
    known total, and ``_bisect_stretch`` finds its last pair in range; a
    pieced stretch that crosses is ended inside ``_draw_stretch``.
    """
    if pair_prob == 0.0:
        return np.empty(0, dtype=np.int64), 0
    with np.errstate(divide="ignore"):
        log_miss = np.log1p(-pair_prob)  # -inf at pair_prob 1: every gap is 1
    q = -np.expm1(window * log_miss)
    last = -1  # slot of the pair closing the previous unit
    pairs = 0
    chunks: list[np.ndarray] = []
    while True:
        expected = (n_slots - last) * pair_prob * q  # units left in the range
        batch = min(int(expected + 6.0 * np.sqrt(expected + 1.0)) + 16, _BATCH_UNITS)
        k = rng.geometric(q, size=batch) - 1
        close = np.ceil(np.log1p(-q * rng.random(batch)) / log_miss).astype(np.int64)
        np.clip(close, 1, window, out=close)
        step = k * (window + 1) + close
        room = n_slots - last
        pieced = k > _max_piece(pair_prob)
        short = (k > 0) & ~pieced
        step[short] += rng.negative_binomial(k[short], pair_prob)
        # capping a step at the room moves no end before the range ends,
        # and keeps the sums from overflowing
        capped = np.minimum(step, room)
        crossed = None  # pairs of the crossing stretch in range, once counted
        for u in np.flatnonzero(pieced):
            start = last + int(capped[:u].sum())
            if start >= n_slots:
                break
            in_range, excess = _draw_stretch(int(k[u]), n_slots - start, window, pair_prob, rng)
            if excess is None:
                crossed, capped[u] = in_range, room
                break
            step[u] += excess
            capped[u] = min(step[u], room)
        ends = last + np.cumsum(capped)  # slot of the pair after each close gap
        cross = int(np.searchsorted(ends, n_slots))
        members = np.empty(2 * cross, dtype=np.int64)
        members[0::2] = ends[:cross] - close[:cross]  # the pair before each close gap
        members[1::2] = ends[:cross]
        if not chunks and cross and k[0] == 0:
            # the first close gap runs from the virtual pair: neither end
            # is a member by it (the first real pair may be one by the next)
            members = members[2:]
        chunks.append(members)
        pairs += int(k[:cross].sum()) + cross
        if cross < batch:
            # no pair of the crossing stretch is a member: each has a long
            # gap before it, and after the last one the range ends
            if crossed is None:
                room = n_slots - (int(ends[cross - 1]) if cross else last)
                excess = int(step[cross] - k[cross] * (window + 1) - close[cross])
                crossed = _bisect_stretch(int(k[cross]), excess, room, window, rng)
            pairs += crossed
            break
        last = int(ends[-1])
    slots = np.concatenate(chunks)
    # a unit without long gaps starts at the pair that closed the previous one
    keep = np.ones(slots.size, dtype=bool)
    keep[1:] = slots[1:] != slots[:-1]
    return slots[keep], pairs
