"""Slot-indexed photon stream of a heralded pair source.

The pump emits one pulse per slot; a slot carries a photon pair with
probability ``pair_prob``.  Each idler is split 50:50 (configurable) onto
one of two heralding detectors; a live detector registers it with
probability ``herald_det_efficiency`` and then goes blind for
``herald_deadtime_slots`` slots (non-paralyzable: arrivals during the
blind window neither fire nor extend it).  Two alternating detectors are
what make *consecutive* heralds possible at all when the deadtime spans
several pulse slots.

Only pairs within ``w = max(deadtime, 1)`` slots of a neighbouring pair
can be blinded by another pair or take part in a run of consecutive
heralds.  The sampler therefore places only those *cluster members* and
counts every other pair: pair gaps are iid geometric, so the gaps of
length <= w ("close" gaps) sit at Bernoulli positions in gap-index
space, each has a truncated-geometric length, and a stretch of k longer
gaps has a negative-binomial total.  Members sit in compressed slots:
gaps inside a cluster are exact, and each stretch of long gaps between
clusters takes w + 1 slots.  Deadtime and run detection read only gaps,
and to both a gap of w + 1 acts as any longer one, so detector clusters
and herald blocks are those of the real slots; real lengths are kept
only to find where the range ends.  An isolated pair heralds with
probability ``herald_det_efficiency`` and enters only as a count.  The
law of every count and of the member gaps equals that of drawing all
pairs, while the cost scales with the number of close gaps.
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
        object.__setattr__(self, "stream_index", tuple(int(i) for i in self.stream_index))

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.master_seed, spawn_key=self.stream_index)
        return np.random.Generator(np.random.PCG64(seq))


@dataclass(frozen=True)
class HeraldStream:
    """Cluster members of a generated slot range, plus whole-range counts.

    ``pair_slots`` holds, sorted and unique, the compressed slots of the
    pairs within w = ``max(deadtime, 1)`` slots of another pair: gaps
    inside a cluster are exact, and gaps between clusters are w + 1, so
    the slots lie in [0, n_slots) but are not the pairs' absolute slots.
    ``to_detector_a`` and ``fired`` are per member.  Every run of two or
    more consecutive heralds lies among the members, so ``herald_slots``
    feeds run detection for any run length >= 2.  ``pair_count`` and
    ``herald_count`` cover all pairs of the range, members or not.
    """

    n_slots: int
    pair_slots: np.ndarray  # int64, sorted: compressed slots of cluster members only
    to_detector_a: np.ndarray  # bool, per member
    fired: np.ndarray  # bool, per member
    pair_count: int
    herald_count: int

    @property
    def herald_slots(self) -> np.ndarray:
        return self.pair_slots[self.fired]


# tracemalloc peak of one generate_herald_stream call per cluster member,
# over 2e6 pairs at seed 53: 38.2 B at the two-mode operating point, 34.0 B
# at pair_prob 0.3 and 34.2 B at pair_prob 1 (efficiency 0.7, every pair a
# member); tests/test_source.py holds the sampler to this bound
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
    # successes per negative-binomial draw at this probability: numpy refuses a mean near 2^63
    return 2**62 if pair_prob >= 0.5 else int(2**62 * pair_prob / (1.0 - pair_prob))


def _negative_binomial(n: int, prob: float, rng: np.random.Generator) -> int:
    """NegBinomial(n, prob), drawn in pieces of at most ``_max_piece(prob)``."""
    total = 0
    while n > 0:
        piece = min(n, _max_piece(prob))
        total += int(rng.negative_binomial(piece, prob))
        n -= piece
    return total


def _split(total: int, left: int, right: int, rng: np.random.Generator) -> int:
    """Left share of a total of iid geometric variables, ``left`` of them left of ``right``.

    Given their total, iid geometric variables are uniform over weak
    compositions (each has probability p^count (1-p)^total), so the left
    share is beta-binomial with shapes (left, right).
    """
    if left == 0 or total == 0:
        return 0
    if right == 0:
        return total
    return int(rng.binomial(total, rng.beta(left, right)))


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
    excesses e_i >= 0 that total ``excess``; the sum of the first a of b
    excesses is ``_split`` with shapes (a, b - a), so bisection finds the
    last pair in range in O(log k) draws.
    """
    step = window + 1
    if k * step + excess < room:
        return k
    lo, lo_sum, hi, hi_sum = 0, 0, k, excess
    while hi - lo > 1:
        mid = (lo + hi) // 2
        mid_sum = lo_sum + _split(hi_sum - lo_sum, mid - lo, hi - mid, rng)
        if mid * step + mid_sum < room:
            lo, lo_sum = mid, mid_sum
        else:
            hi, hi_sum = mid, mid_sum
    return lo


def _walk_units(close_sum: np.ndarray, long_units: np.ndarray, long_gaps: int, room: int,
                window: int, pair_prob: float, rng: np.random.Generator) -> tuple[int, int, "int | None"]:
    """Units of a batch wholly in range, the pairs placed in range, and the room left.

    ``close_sum`` and ``long_units`` are the prefix sums of the batch's
    close gaps and of its units with long gaps; ``long_gaps`` is the
    batch's number of long gaps.  The walk takes segments of units left
    to right, each with its long gaps and, once drawn, their total
    excess; a segment that passes the room is halved, its long gaps
    beyond one per unit split by ``_split`` with the halves' counts of
    units with long gaps as shapes, its excess by ``_split`` with the
    halves' long gaps as shapes.  A segment whose excess is too large for
    one draw is halved before its excess is drawn, so each half draws its
    own.  In the unit that crosses the end, ``_bisect_stretch`` (or
    ``_draw_stretch``) counts the pairs of its stretch in range.  The
    room left is None once the batch crosses the end.
    """
    step = window + 1
    a, b = 0, close_sum.size - 1
    k, excess = long_gaps, None
    later: list[tuple[int, int, "int | None"]] = []  # (end, long gaps, excess) of segments to come
    pairs = 0
    while True:
        if excess is None and k <= _max_piece(pair_prob):
            excess = int(rng.negative_binomial(k, pair_prob)) if k else 0
        if excess is not None:
            length = int(close_sum[b] - close_sum[a]) + k * step + excess
            if length < room:
                room -= length
                pairs += k + b - a  # each gap ends at a pair
                if not later:
                    return b, pairs, room
                a, (b, k, excess) = b, later.pop()
                continue
            if b - a == 1:
                return a, pairs + _bisect_stretch(k, excess, room, window, rng), None
        elif b - a == 1:
            in_range, excess = _draw_stretch(k, room, window, pair_prob, rng)
            if excess is None:
                return a, pairs + in_range, None
            continue
        mid = (a + b) // 2
        left_units = int(long_units[mid] - long_units[a])
        right_units = int(long_units[b] - long_units[mid])
        left_k = left_units + _split(k - left_units - right_units, left_units, right_units, rng)
        left_excess = None if excess is None else _split(excess, left_k, k - left_k, rng)
        later.append((b, k - left_k, None if excess is None else excess - left_excess))
        b, k, excess = mid, left_k, left_excess


def _sample_members(params: SourceParams, n_slots: int, rng: np.random.Generator
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Compressed slots of the pairs within a window of a neighbour, their
    detector and efficiency draws, and the pair count.

    With window = max(deadtime, 1), the range is walked in "units" of
    gap-index space from its first pair: a stretch of k >= 0 long gaps
    (> window) closed by one close gap (<= window).  With
    q = 1 - (1-p)^window, k + 1 is Geom(q), so a unit has long gaps with
    probability 1 - q, one uniform per unit; the close gap is Geom(p)
    truncated to 1..window, drawn by inverse CDF.  Members are placed in
    compressed slots: close gaps are exact and a unit's stretch, if any,
    takes window + 1 slots.  Per batch of units, the m units with long
    gaps hold m + NegBinomial(m, q) long gaps, each window + 1 slots plus
    a geometric excess, so the batch's real length is known after one
    more negative-binomial draw; ``_walk_units`` places the end of the
    range.  Every draw follows the laws of drawing all pairs, while the
    cost scales with the number of close gaps.
    """
    p = params.pair_prob
    first = int(rng.geometric(p)) - 1 if p > 0.0 else n_slots  # slot of the first pair
    if first >= n_slots:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=bool), np.empty(0, dtype=bool), 0
    window = max(params.herald_deadtime_slots, 1)
    step = window + 1
    with np.errstate(divide="ignore"):
        log_miss = np.log1p(-p)  # -inf at pair_prob 1: every gap is 1
    q = -np.expm1(window * log_miss)
    room = n_slots - first  # a pair is in range if it lands less than room slots on
    last = 0  # compressed slot of the pair closing the previous unit; the first pair's is 0
    pairs = 1
    slots: list[np.ndarray] = []
    to_a: list[np.ndarray] = []
    eff_draws: list[np.ndarray] = []
    while room is not None:
        expected = room * p * q  # units left in the range
        # batch * window <= 2^62 keeps the close-gap sums within int64
        batch = min(int(expected + 6.0 * np.sqrt(expected + 1.0)) + 16, _BATCH_UNITS, 2**62 // window)
        has_long = rng.random(batch) >= q
        close = np.ceil(np.log1p(-q * rng.random(batch)) / log_miss).astype(np.int64)
        np.maximum(close, 1, out=close)
        np.minimum(close, window, out=close)
        close_sum = np.zeros(batch + 1, dtype=np.int64)
        np.cumsum(close, out=close_sum[1:])
        long_units = np.zeros(batch + 1, dtype=np.int64)
        np.cumsum(has_long, out=long_units[1:])
        m = int(long_units[-1])
        # a detector and an efficiency draw for every pair the batch's
        # units can place, so where the range ends changes none of them
        placeable = batch + m + int(not slots and not has_long[0])
        batch_to_a = rng.random(placeable) < params.herald_splitter_ratio
        eff = params.herald_det_efficiency
        batch_eff = rng.random(placeable) < eff if eff < 1.0 else np.ones(placeable, dtype=bool)
        done, in_range, room = _walk_units(close_sum, long_units, m + _negative_binomial(m, q, rng),
                                           room, window, p, rng)
        pairs += in_range
        ends = last + close_sum[1:done + 1] + step * long_units[1:done + 1]
        members = np.empty(2 * done, dtype=np.int64)
        members[0::2] = ends - close[:done]  # the pair before each close gap
        members[1::2] = ends
        # a unit without long gaps starts at the previous unit's last pair,
        # already placed, except for the range's first pair
        keep = np.ones(2 * done, dtype=bool)
        keep[0::2] = has_long[:done]
        keep[:1] |= not slots
        members = members[keep]
        slots.append(members)
        to_a.append(batch_to_a[:members.size])
        eff_draws.append(batch_eff[:members.size])
        if done:
            last = int(ends[-1])
    return np.concatenate(slots), np.concatenate(to_a), np.concatenate(eff_draws), pairs


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
    pair_slots, to_a, eff_draws, pair_count = _sample_members(params, n_slots, rng)
    fired = _apply_deadtime(pair_slots, to_a, eff_draws, params.herald_deadtime_slots)
    # an isolated pair meets a live detector: it heralds with probability eff
    herald_count = int(fired.sum()) + int(rng.binomial(pair_count - pair_slots.size,
                                                       params.herald_det_efficiency))
    return HeraldStream(
        n_slots=n_slots,
        pair_slots=pair_slots,
        to_detector_a=to_a,
        fired=fired,
        pair_count=pair_count,
        herald_count=herald_count,
    )

