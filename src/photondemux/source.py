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
heralds.  The sampler therefore draws only those pairs' clusters and
counts every other pair: pair gaps are iid geometric, so the gaps of
length <= w ("close" gaps) sit at Bernoulli positions in gap-index
space, each has a truncated-geometric length, and a stretch of k longer
gaps has a negative-binomial total.  A cluster of exactly two pairs
(nearly every cluster at the paper's operating point) heralds 0, 1 or 2
times by a closed-form law, so those clusters enter only as counts, as
does an isolated pair, which heralds with probability
``herald_det_efficiency``.  The pairs of clusters of three or more, the
"members", are placed in compressed slots: gaps inside a cluster are
exact, and each stretch between clusters takes w + 1 slots.  Deadtime
and run detection read only gaps, and to both a gap of w + 1 acts as any
longer one, so detector clusters and herald blocks are those of the real
slots; real lengths are kept only to find where the range ends.  The
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
    members: the pairs of clusters of three or more pairs, where a
    cluster chains pairs within w = ``max(deadtime, 1)`` slots of each
    other.  Gaps inside a cluster are exact, and gaps between clusters
    are w + 1, so the slots lie in [0, n_slots) but are not the pairs'
    absolute slots.  ``to_detector_a`` and ``fired`` are per member.  A
    cluster of exactly two pairs is only counted: ``two_pair_blocks`` is
    the number of them that herald in two adjacent slots, each one block
    of two heralds.  (The last cluster of a vector round, and a cluster
    cut short by the end of the range, may be placed with two pairs.)
    So the runs of n >= 2 consecutive heralds are those in
    ``herald_slots`` plus, at n = 2, the ``two_pair_blocks``.
    ``pair_count`` and ``herald_count`` cover all pairs of the range.
    """

    n_slots: int
    pair_slots: np.ndarray  # int64, sorted: compressed slots of cluster members only
    to_detector_a: np.ndarray  # bool, per member
    fired: np.ndarray  # bool, per member
    pair_count: int
    herald_count: int
    two_pair_blocks: int  # two-pair clusters that herald in adjacent slots

    @property
    def herald_slots(self) -> np.ndarray:
        return self.pair_slots[self.fired]


# bytes per member and per unit of a vector round that bound the tracemalloc
# peak of one generate_herald_stream call (tests/test_source.py holds the
# sampler to this bound); the measured peaks are in TestMemoryFigure
_BYTES_PER_MEMBER = 80
_BYTES_PER_UNIT = 64
_BATCH_UNITS = 1 << 18  # units drawn per vector round; bounds the working arrays


def _batch_units(units: float, window: int) -> int:
    """Units drawn in one vector round when ``units`` are expected in the range left."""
    # batch * window <= 2^62 keeps the close-gap sums within int64
    return min(int(units + 6.0 * np.sqrt(units + 1.0)) + 16, _BATCH_UNITS, 2**62 // window)


def expected_peak_bytes(params: SourceParams, n_slots: int) -> float:
    """Expected peak bytes of one ``generate_herald_stream`` call.

    With q = 1 - (1-p)^max(deadtime, 1), each pair is followed by a close
    gap with probability q, so per pair there are q units and q(1-q)
    clusters, and a cluster has 2 + Geom pairs, three or more with
    probability q.  The members, the pairs of clusters of three or more,
    number n_slots p q^2 (3 - 2q) in expectation; one vector round of
    unit arrays is alive at a time.
    """
    p = params.pair_prob
    window = max(params.herald_deadtime_slots, 1)
    q = 1.0 - (1.0 - p) ** window
    members = n_slots * p * q * q * (3.0 - 2.0 * q)
    return members * _BYTES_PER_MEMBER + _batch_units(n_slots * p * q, window) * _BYTES_PER_UNIT


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


def _two_pair_law(params: SourceParams) -> list[float]:
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


def _sample_members(params: SourceParams, n_slots: int, rng: np.random.Generator
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int, int]:
    """Compressed slots of the pairs of clusters of three or more, their
    detector and efficiency draws, the pair count, the heralds of the
    pairs not placed, and the two-pair clusters that herald in adjacent slots.

    With window = max(deadtime, 1), the range is walked in "units" of
    gap-index space from its first pair: a stretch of k >= 0 long gaps
    (> window) closed by one close gap (<= window).  With
    q = 1 - (1-p)^window, k + 1 is Geom(q), so a unit has long gaps with
    probability 1 - q, one uniform per unit; the close gap is Geom(p)
    truncated to 1..window, drawn by inverse CDF.  A unit starts a
    cluster if it has long gaps or holds the range's first pair, and one
    followed by another start closes a cluster of exactly two pairs; its
    outcome is drawn, per batch, as one multinomial per gap class (close
    gap 1, where two heralds form a block, or 2..window) from
    ``_two_pair_law``.  The other units are placed in compressed slots:
    close gaps are exact and a unit's stretch, if any, takes window + 1
    slots.  Per batch of units, the m units with long gaps hold
    m + NegBinomial(m, q) long gaps, each window + 1 slots plus a
    geometric excess, so the batch's real length is known after one more
    negative-binomial draw; ``_walk_units`` places the end of the range.
    An isolated pair heralds with probability ``herald_det_efficiency``.
    Every draw follows the laws of drawing all pairs, while the cost
    scales with the number of close gaps.
    """
    p = params.pair_prob
    first = int(rng.geometric(p)) - 1 if p > 0.0 else n_slots  # slot of the first pair
    if first >= n_slots:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=bool), np.empty(0, dtype=bool), 0, 0, 0
    window = max(params.herald_deadtime_slots, 1)
    step = window + 1
    eff = params.herald_det_efficiency
    law = _two_pair_law(params)
    with np.errstate(divide="ignore"):
        log_miss = np.log1p(-p)  # -inf at pair_prob 1: every gap is 1
    q = -np.expm1(window * log_miss)
    room = n_slots - first  # a pair is in range if it lands less than room slots on
    last = 0  # compressed slot of the last member placed; the first pair's is 0
    pairs = 1
    counted_pairs = heralds = blocks = 0  # of the two-pair clusters
    slots: list[np.ndarray] = []
    to_a: list[np.ndarray] = []
    eff_draws: list[np.ndarray] = []
    while room is not None:
        batch = _batch_units(room * p * q, window)  # room * p * q units are left in the range
        has_long = rng.random(batch) >= q
        close = np.ceil(np.log1p(-q * rng.random(batch)) / log_miss).astype(np.int64)
        np.maximum(close, 1, out=close)
        np.minimum(close, window, out=close)
        close_sum = np.zeros(batch + 1, dtype=np.int64)
        np.cumsum(close, out=close_sum[1:])
        long_units = np.zeros(batch + 1, dtype=np.int64)
        np.cumsum(has_long, out=long_units[1:])
        m = int(long_units[-1])
        # a unit starts a cluster if it has long gaps or holds the range's
        # first pair, and one followed by another start closes a cluster of
        # exactly two pairs (two[u]); the batch's last unit is placed, since
        # whether the next unit starts a cluster is not drawn yet
        first_unit = not slots  # unit 0 holds the range's first pair
        two = has_long[:-1] & has_long[1:]
        if first_unit and batch > 1:
            two[0] = has_long[1]
        # a detector and an efficiency draw for every pair the batch's placed
        # units can hold (two if they start a cluster, else one), so where
        # the range ends changes none of them
        placeable = batch + m + int(first_unit and not has_long[0]) - 2 * int(np.count_nonzero(two))
        batch_to_a = rng.random(placeable) < params.herald_splitter_ratio
        batch_eff = rng.random(placeable) < eff if eff < 1.0 else np.ones(placeable, dtype=bool)
        done, in_range, room = _walk_units(close_sum, long_units, m + _negative_binomial(m, q, rng),
                                           room, window, p, rng)
        pairs += in_range
        two = two[:done]  # of the units wholly in range
        units = (~two).nonzero()[0]  # the placed units wholly in range
        if done == batch:
            units = np.append(units, batch - 1)
        counted = done - units.size
        if counted:
            counted_pairs += 2 * counted
            adjacent = int(np.count_nonzero(close[:two.size][two] == 1))
            if adjacent:  # two heralds in adjacent slots form a block
                _, one, both = rng.multinomial(adjacent, law)
                heralds += int(one + 2 * both)
                blocks += int(both)
            if counted > adjacent:
                _, one, both = rng.multinomial(counted - adjacent, law)
                heralds += int(one + 2 * both)
        unit_close = close[units]
        unit_long = has_long[units]
        ends = (unit_close + step * unit_long).cumsum()
        ends += last
        members = np.empty(2 * units.size, dtype=np.int64)
        members[0::2] = ends - unit_close  # the pair before each close gap
        members[1::2] = ends
        # a unit that starts no cluster starts at the last member placed
        keep = np.ones(2 * units.size, dtype=bool)
        keep[0::2] = unit_long
        if first_unit and units.size and units[0] == 0:
            keep[0] = True
        members = members[keep]
        slots.append(members)
        to_a.append(batch_to_a[:members.size])
        eff_draws.append(batch_eff[:members.size])
        if units.size:
            last = int(ends[-1])
    placed_slots = np.concatenate(slots)
    # an isolated pair meets a live detector: it heralds with probability eff
    heralds += int(rng.binomial(pairs - placed_slots.size - counted_pairs, eff))
    return placed_slots, np.concatenate(to_a), np.concatenate(eff_draws), pairs, heralds, blocks


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
    if deadtime == 0 or slots.size == 0:
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
    pair_slots, to_a, eff_draws, pair_count, counted_heralds, two_pair_blocks = _sample_members(
        params, n_slots, rng)
    fired = _apply_deadtime(pair_slots, to_a, eff_draws, params.herald_deadtime_slots)
    return HeraldStream(
        n_slots=n_slots,
        pair_slots=pair_slots,
        to_detector_a=to_a,
        fired=fired,
        pair_count=pair_count,
        herald_count=int(fired.sum()) + counted_heralds,
        two_pair_blocks=two_pair_blocks,
    )
