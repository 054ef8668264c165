"""Slot-indexed photon stream of a heralded pair source.

The pump emits one pulse per slot; a slot carries a photon pair with
probability ``pair_prob``.  Each idler is split 50:50 (configurable) onto
one of two heralding detectors; a live detector registers it with
probability ``herald_det_efficiency`` and then goes blind for
``herald_deadtime_slots`` slots (non-paralyzable: arrivals during the
blind window neither fire nor extend it).  Two alternating detectors are
what make *consecutive* heralds possible at all when the deadtime spans
several pulse slots.

Only pairs within ``D = max(deadtime, 1)`` slots of a neighbouring pair
can be blinded by another pair or take part in a run of consecutive
heralds.  The sampler therefore places only those *cluster members*
slot by slot and counts every other pair: pair gaps are iid geometric,
so the gaps of length <= D ("close" gaps) sit at Bernoulli positions in
gap-index space, each has a truncated-geometric length, and a stretch of
k longer gaps has a negative-binomial total.  An isolated pair heralds
with probability ``herald_det_efficiency`` and enters only as a count.
The law of every count and of the member slots equals that of drawing
all pairs, while the cost scales with the number of close gaps.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .model import SourceParams


@dataclass(frozen=True)
class RngStream:
    """Deterministic random stream keyed by a master seed and a stream index.

    Identical ``(master_seed, stream_index)`` always reproduces the same
    sequence; distinct stream indices give statistically independent
    streams (PCG64 seeded through a ``SeedSequence`` spawn key), so trial
    workers never share state.
    """

    master_seed: int
    stream_index: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not 0 <= self.master_seed < 2**64:
            raise ValueError(f"master_seed must be a 64-bit unsigned integer (got {self.master_seed!r})")
        idx = self.stream_index
        if isinstance(idx, int):
            idx = (idx,)
        object.__setattr__(self, "stream_index", tuple(int(i) for i in idx))

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.master_seed, spawn_key=self.stream_index)
        return np.random.Generator(np.random.PCG64(seq))


@dataclass(frozen=True)
class HeraldStream:
    """Cluster members of a generated slot range, plus whole-range counts.

    ``pair_slots`` holds, sorted and unique, the slots of the pairs within
    ``max(deadtime, 1)`` slots of another pair; ``to_detector_a`` and
    ``fired`` are per member.  Every run of two or more consecutive
    heralds lies among the members, so ``herald_slots`` feeds run
    detection for any run length >= 2.  ``pair_count`` and
    ``herald_count`` cover all pairs of the range, members or not.
    """

    n_slots: int
    pair_slots: np.ndarray  # int64, sorted: cluster members only
    to_detector_a: np.ndarray  # bool, per member
    fired: np.ndarray  # bool, per member
    pair_count: int
    herald_count: int

    @property
    def herald_slots(self) -> np.ndarray:
        return self.pair_slots[self.fired]


# tracemalloc peak of one generate_herald_stream call per cluster member:
# 46 B at the two-mode operating point, 83 B at pair_prob 1 (every pair a
# member); tests/test_source.py holds the sampler to this figure
_BYTES_PER_MEMBER = 96


def expected_peak_bytes(params: SourceParams, n_slots: int) -> float:
    """Expected peak bytes of one ``generate_herald_stream`` call.

    A pair is a cluster member when the gap before or after it is close,
    with probability 1 - (1-q)^2 where q = 1 - (1-p)^max(deadtime, 1).
    """
    p = params.pair_prob
    q = 1.0 - (1.0 - p) ** max(params.herald_deadtime_slots, 1)
    return n_slots * p * (1.0 - (1.0 - q) ** 2) * _BYTES_PER_MEMBER


_BATCH_UNITS = 1 << 18  # units drawn per vector round; bounds the working arrays


def _max_piece(pair_prob: float) -> int:
    # long gaps per negative-binomial draw: numpy refuses a mean near 2^63
    return 2**62 if pair_prob >= 0.5 else int(2**62 * pair_prob / (1.0 - pair_prob))


def _draw_stretch(k: int, room: int, window: int, pair_prob: float,
                  rng: np.random.Generator) -> tuple[int, "int | None"]:
    """Pairs of a stretch of ``k`` fresh long gaps less than ``room`` slots on, and its excess.

    The excess is drawn in pieces of at most ``_max_piece`` gaps up to the
    piece that passes the room, which is bisected; then it is None.
    """
    done = excess = 0
    while done < k:
        piece = min(k - done, _max_piece(pair_prob))
        piece_excess = int(rng.negative_binomial(piece, pair_prob))
        span = piece * (window + 1) + piece_excess
        if span >= room:
            return done + _bisect_stretch(piece, piece_excess, room, window, rng), None
        room -= span
        done += piece
        excess += piece_excess
    return k, excess


def _bisect_stretch(k: int, excess: int, room: int, window: int, rng: np.random.Generator) -> int:
    """Pairs of a stretch of ``k`` long gaps that land less than ``room`` slots on.

    Gap i of the stretch is ``window + 1 + e_i`` with iid geometric
    excesses e_i >= 0 that total ``excess``.  Given the total, the
    excesses are uniform over weak compositions (each composition has
    probability p^k (1-p)^total), so the sum of the first a of b excesses
    is beta-binomial with shapes (a, b - a); bisection finds the last pair
    in range in O(log k) draws.
    """
    step = window + 1
    if k * step + excess < room:
        return k
    lo, lo_sum, hi, hi_sum = 0, 0, k, excess
    while hi - lo > 1:
        mid = (lo + hi) // 2
        share = rng.beta(mid - lo, hi - mid)
        mid_sum = lo_sum + int(rng.binomial(hi_sum - lo_sum, share))
        if mid * step + mid_sum < room:
            lo, lo_sum = mid, mid_sum
        else:
            hi, hi_sum = mid, mid_sum
    return lo


def _sample_members(pair_prob: float, window: int, n_slots: int,
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


def _apply_deadtime(slots: np.ndarray, to_a: np.ndarray, eff_draws: np.ndarray,
                    deadtime: int) -> np.ndarray:
    """Which arrivals fire, under detection efficiency and per-detector deadtime.

    ``slots`` is sorted; ``to_a`` picks each arrival's detector.  An
    arrival fires iff its efficiency draw succeeded and its detector is
    live, i.e. more than ``deadtime`` slots have passed since that
    detector's last *fire*.  Failed draws never blind, so each detector's
    successful arrivals split into clusters at gaps of more than
    ``deadtime``, and each cluster is resolved on its own.  Its first
    arrival fires.  In a cluster of two the second arrival is within the
    deadtime of the first, so it is blind: clusters of one or two, nearly
    all of them near the paper's operating point, are settled in closed
    form.  In a cluster of three or more the fired arrivals are the orbit
    of next(i) = the first arrival later than slot i + deadtime, started
    at the cluster's first arrival.  Only these clusters' arrivals are
    gathered, and their orbits are marked by pointer doubling, in
    log2(longest orbit) vector rounds.
    """
    if deadtime == 0:
        return eff_draws.copy()
    fired = np.zeros(slots.size, dtype=bool)
    for detector in (to_a & eff_draws, ~to_a & eff_draws):
        # gather and scatter through indices: boolean masks are several
        # times slower on these irregular patterns
        hits = np.flatnonzero(detector)
        s = slots[hits]
        on = np.ones(s.size, dtype=bool)  # first of its cluster
        np.greater(s[1:] - s[:-1], deadtime, out=on[1:])
        # three arrivals in a row with close gaps between them lie in one
        # cluster; these triples cover the clusters of three or more
        close = ~on[1:]
        triple = close[1:] & close[:-1]
        if triple.any():
            big = np.zeros(s.size, dtype=bool)
            big[:-2] = triple
            big[1:-1] |= triple
            big[2:] |= triple
            idx = np.flatnonzero(big)
            t = s[idx]
            k = idx.size
            first = np.append(on[idx], True)  # index k: "no further arrival"
            jump = np.empty(k + 1, dtype=np.int64)
            jump[:k] = np.searchsorted(t, t + (deadtime + 1))
            jump[k] = k
            jump[first[jump]] = k  # orbits stop at their cluster's end
            orbit = first.copy()
            orbit[k] = False
            starts = np.flatnonzero(orbit)
            while (jump[starts] != k).any():
                orbit[jump[orbit]] = True
                jump = jump[jump]
            on[idx] = orbit[:k]
        fired[hits] = on
    return fired


def generate_herald_stream(params: SourceParams, n_slots: int, rng: np.random.Generator) -> HeraldStream:
    """Run the source and heralding arm over ``n_slots`` pulse slots."""
    if n_slots < 1:
        raise ValueError(f"n_slots must be >= 1 (got {n_slots})")
    d = params.herald_deadtime_slots
    pair_slots, pair_count = _sample_members(params.pair_prob, max(d, 1), n_slots, rng)
    m = pair_slots.size
    to_a = rng.random(m) < params.herald_splitter_ratio
    eff = params.herald_det_efficiency
    eff_draws = rng.random(m) < eff if eff < 1.0 else np.ones(m, dtype=bool)
    fired = _apply_deadtime(pair_slots, to_a, eff_draws, d)
    # an isolated pair meets a live detector: it heralds with probability eff
    herald_count = int(fired.sum()) + int(rng.binomial(pair_count - m, eff))
    return HeraldStream(
        n_slots=n_slots,
        pair_slots=pair_slots,
        to_detector_a=to_a,
        fired=fired,
        pair_count=pair_count,
        herald_count=herald_count,
    )

