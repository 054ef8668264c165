"""Slot-indexed photon stream of a heralded pair source, and its herald blocks.

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
``herald_det_efficiency``: between two clusters of three or more pairs,
the two-pair clusters are one geometric count, and their close gaps one
composition of counts that carries their exact sum.  The pairs of
clusters of three or more, the "members", are placed in compressed
slots: gaps inside a cluster are exact, and each stretch between
clusters takes w + 1 slots.  Deadtime and run detection read only gaps,
and to both a gap of w + 1 acts as any longer one, so detector clusters
and herald blocks are those of the real slots; real lengths are kept
only to find where the range ends.  The law of every count and of the
member gaps equals that of drawing all pairs, while the cost scales with
the number of members.

A delayed copy of each herald is AND-ed with the next, so a run of n
consecutive heralds starts a conversion.  Runs are claimed greedily left
to right without overlap, since the router is busy for the n slots of a
conversion: a maximal block of L consecutive heralds yields floor(L/n)
runs.  ``herald_block_histogram`` counts a stream's blocks by length,
and ``run_starts_from_heralds`` lays the claimed runs out as start slots.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import math
import operator

import numpy as np

from .model import MAX_SLOTS, SourceParams


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
    cluster with exactly two pairs in range, one cut short by the end of
    the range included, is only counted: ``two_pair_blocks`` is the number
    of them that herald in two adjacent slots, each one block of two
    heralds.  So the blocks of consecutive heralds, which
    ``herald_block_histogram`` counts, are those in ``herald_slots``, the
    ``two_pair_blocks`` and the lone heralds that are only counted.
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


# bytes per member and per super-unit of a vector round that bound the
# tracemalloc peak of one generate_herald_stream call (tests/test_source.py
# holds the sampler to this bound; the measured peaks are in
# TestMemoryFigure).  A member keeps its slot and two flags and, within
# its round, its gap, slot and uniform draws; the deadtime resolver then
# gathers, one detector at a time, the members whose efficiency draw
# succeeded.  A super-unit's round holds two uniform draws, their integer
# casts and two prefix sums.
_BYTES_PER_MEMBER = 80
_BYTES_PER_UNIT = 64
# super-units, and members, drawn per vector round; bounds the working arrays
_BATCH_UNITS = 1 << 18
_HYPERGEOMETRIC_LIMIT = 10**9  # numpy draws hypergeometric counts below this


def _batch_units(units: float, window: int) -> int:
    """Items drawn in one vector round when ``units`` are expected in the range left."""
    # items * window <= 2^62 keeps a round's compressed slots below 2^64
    return min(int(units + 6.0 * math.sqrt(units + 1.0)) + 16, _BATCH_UNITS, 2**62 // window)


def expected_peak_bytes(params: SourceParams, n_slots: int) -> float:
    """Expected peak bytes of one ``generate_herald_stream`` call.

    With q = 1 - (1-p)^max(deadtime, 1), each pair is followed by a close
    gap with probability q, and a cluster has 2 + Geom pairs, three or
    more with probability q.  The members, the pairs of clusters of three
    or more, number n_slots p q^2 (3 - 2q) in expectation, and the
    clusters of three or more, each closing a super-unit, n_slots p (1-q)
    q^2.  One vector round of super-unit arrays is alive at a time.
    """
    p = params.pair_prob
    window = max(params.herald_deadtime_slots, 1)
    q = 1.0 - (1.0 - p) ** window
    members = n_slots * p * q * q * (3.0 - 2.0 * q)
    super_units = _batch_units(n_slots * p * (1.0 - q) * q * q, window)
    return members * _BYTES_PER_MEMBER + super_units * _BYTES_PER_UNIT


def _max_piece(pair_prob: float) -> int:
    # successes per negative-binomial draw at this probability: numpy refuses a mean near 2^63
    return 2**62 if pair_prob >= 0.5 else int(2**62 * pair_prob / (1.0 - pair_prob))


def _split(total: int, left: int, right: int, rng: np.random.Generator) -> int:
    """Left share of a total of iid geometric variables, ``left`` of them left of ``right``.

    Given their total, iid geometric variables are uniform over weak
    compositions (each has probability p^count (1-p)^total), so the left
    share is beta-binomial with shapes (left, right).
    """
    if left == 0 or total == 0:
        return 0
    return int(rng.binomial(total, rng.beta(left, right)))


def _hypergeometric(good: int, bad: int, sample: int, rng: np.random.Generator) -> int:
    """Good items among ``sample`` drawn without replacement from ``good + bad``."""
    if sample == 0 or good == 0:
        return 0
    if bad == 0:
        return sample
    if sample == good + bad:
        return good
    return int(rng.hypergeometric(good, bad, sample))


@dataclass(frozen=True)
class _CloseGapLaw:
    """Counts that carry the exact sum of m iid close gaps (Geom(p) cut to 1..window).

    A composition is a list: the gaps of 1 slot, then the gaps of 2..window
    per dyadic block of the window - 1 values 2..window, then for each
    block of 2^b values and each bit t < b, the block's gaps whose offset
    in the block has bit t set.  The law of a gap of 2..window is
    proportional to (1-p)^(value - 2), so inside a block the bits of a
    gap's offset from the block's first value are independent, bit t set
    with probability r / (1 + r) at r = (1-p)^(2^t).  The sum of the gaps is
    then a weighted sum of counts, drawn in O(log^2 window) draws, and the
    counts of any subset of the gaps are hypergeometric given the whole.
    """

    adjacent: float  # P(gap = 1 | gap <= window)
    block_probs: tuple[float, ...]  # P(block i | block >= i, gap >= 2)
    bits: tuple[tuple[int, float], ...]  # (block, P(bit t set)) for each bit t of each block
    weights: tuple[int, ...]  # slots per count: 1, each block's first value, each bit's 2^t

    def draw(self, gaps: int, rng: np.random.Generator) -> list[int]:
        """Composition of ``gaps`` fresh close gaps."""
        if gaps == 0:
            return [0] * len(self.weights)
        ones = gaps if self.adjacent == 1.0 else int(rng.binomial(gaps, self.adjacent))
        rest = gaps - ones
        blocks = []
        for prob in self.block_probs:
            count = int(rng.binomial(rest, prob)) if rest and prob < 1.0 else rest
            blocks.append(count)
            rest -= count
        return [ones, *blocks, *(int(rng.binomial(blocks[i], prob)) if blocks[i] else 0
                                 for i, prob in self.bits)]

    def split(self, comp: list[int], gaps: int, left: int,
              rng: np.random.Generator) -> tuple[list[int], list[int]]:
        """Compositions of the first ``left`` of ``gaps`` gaps of composition ``comp``, and of the rest.

        Given the counts, the gaps are exchangeable, and given its block
        counts each block's bit columns are independent and uniform: so
        each count of the left part is hypergeometric.
        """
        if left == 0 or left == gaps:
            return ([0] * len(comp), comp) if left == 0 else (comp, [0] * len(comp))
        n_blocks = len(self.block_probs)
        ones = _hypergeometric(comp[0], gaps - comp[0], left, rng)
        rest, rest_left = gaps - comp[0], left - ones
        blocks = []
        for count in comp[1:n_blocks]:
            in_left = _hypergeometric(count, rest - count, rest_left, rng)
            blocks.append(in_left)
            rest -= count
            rest_left -= in_left
        if n_blocks:
            blocks.append(rest_left)
        bits = [_hypergeometric(count, comp[1 + i] - count, blocks[i], rng)
                for (i, _), count in zip(self.bits, comp[1 + n_blocks:])]
        left_comp = [ones, *blocks, *bits]
        return left_comp, [x - y for x, y in zip(comp, left_comp)]

    def total(self, comp: list[int]) -> int:
        """Sum of the gaps of a composition."""
        return sum(map(operator.mul, self.weights, comp))


@lru_cache(maxsize=64)
def _close_gap_law(pair_prob: float, window: int) -> _CloseGapLaw:
    """``_CloseGapLaw`` of the close gaps at this pair probability and window."""
    if window == 1 or pair_prob == 1.0:  # every close gap is 1 slot
        return _CloseGapLaw(1.0, (), (), (1,))
    log_miss = math.log1p(-pair_prob)
    probs, bits, starts, bit_weights = [], [], [], []
    offset = 0
    size = window - 1  # values 2..window
    for b in reversed(range(size.bit_length())):
        if size >> b & 1:
            # 2^b values from 2 + offset, of weight (1-p)^offset (1 - (1-p)^(2^b))
            probs.append(math.exp(offset * log_miss) * -math.expm1(2**b * log_miss))
            for t in range(b):
                r = math.exp(2**t * log_miss)
                bits.append((len(starts), r / (1.0 + r)))
                bit_weights.append(2**t)
            starts.append(2 + offset)
            offset += 2**b
    tails = [sum(probs[i:]) for i in range(len(probs))]
    adjacent = pair_prob / -math.expm1(window * log_miss)
    conditional = (*(x / tail for x, tail in zip(probs[:-1], tails)), 1.0)
    return _CloseGapLaw(adjacent, conditional, tuple(bits), (1, *starts, *bit_weights))


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


def _walk_units(clusters: np.ndarray, members: np.ndarray, member_slots: np.ndarray, room: int,
                opens: int, gaps: _CloseGapLaw, window: int, pair_prob: float, q: float,
                rng: np.random.Generator) -> tuple[int, int, int, int, "int | None"]:
    """In-range tallies of a batch: its two-pair clusters, those of them
    with a gap of 1 slot, its members placed, its pairs, and the room left.

    The batch's clusters are numbered in order: super-unit i holds the
    clusters ``clusters[i]`` to ``clusters[i + 1] - 1``, its two-pair
    clusters and then its placed cluster, whose pairs are the members
    ``members[i]`` to ``members[i + 1] - 1``: a first pair (but in a cut
    cluster's rest) and one per close gap.  ``member_slots`` are their
    compressed slots, with window + 1 slots before each placed cluster but
    a cut cluster's rest.  Every cluster follows a stretch of long gaps,
    one plus a Geom0(q) number, except cluster 0 when ``opens`` is 1 (the
    range's first cluster: a Geom0(q) number) or 2 (the rest of a cluster
    the last batch cut: none).

    The walk takes segments of clusters left to right, each with its long
    gaps k = its stretches' first long gaps + NegBinomial(its stretches,
    q), their excess over window + 1 slots each, NegBinomial(k, p), and its
    two-pair close-gap composition; the excess and the composition are
    drawn once the segment is small enough for one draw.  A fresh segment
    holds the clusters expected in the room, at least one, so its
    stretches stay within ``_max_piece(q)`` for any range of at most 2^62
    slots.  A segment that passes the room is cut where the room's share
    of its length falls: its long gaps beyond the first of each stretch
    split by ``_split`` with the parts' stretches as shapes, its excess by
    ``_split`` with the parts' long gaps, its composition by
    ``_CloseGapLaw.split``.  In the cluster that crosses the end,
    ``_bisect_stretch`` (or ``_draw_stretch``) counts the pairs of its
    stretch in range, and the close pairs in range are those less than the
    room left slots after the cluster's first pair.  A placed cluster cut
    to two pairs counts as a two-pair cluster, and one cut to one pair as
    an isolated pair.  The room left is None once the batch crosses the end.
    """
    step = window + 1
    p_piece = _max_piece(pair_prob)
    density = pair_prob * q * (1.0 - q)  # clusters per slot
    head = 1 if opens == 2 else 0  # super-unit 0 lacks a first pair, a stretch and a step
    skip = 1 if opens else 0  # cluster 0 lacks the first long gap of a stretch

    def at(c: int) -> tuple[int, int, int, int, int]:
        """Two-pair clusters, stretches, first long gaps, placed close gaps and their slots before cluster c."""
        i = int(clusters.searchsorted(c, "right")) - 1  # super-units before c
        if i == 0:
            return c, c - head * (c > 0), c - skip * (c > 0), 0, 0
        m = int(members[i])
        return c - i, c - head, c - skip, m - i + head, int(member_slots[m - 1]) - step * (i - head)

    total = int(clusters[-1])
    a, at_a = 0, (0, 0, 0, 0, 0)
    later: list[tuple] = []  # (end, its prefix, long gaps, excess, composition) of segments to come
    pairs = adjacent = 0
    fresh = True
    while True:
        if fresh:
            if a == total:
                return at_a[0], adjacent, int(members[-1]), pairs, room
            b = min(a + max(int(room * density), 1), total)
            at_b, excess, comp = at(b), None, None
        two, shapes, base = at_b[0] - at_a[0], at_b[1] - at_a[1], at_b[2] - at_a[2]
        if fresh:
            k, fresh = base + int(rng.negative_binomial(shapes, q)) if shapes else 0, False
        if excess is None and k <= p_piece:
            excess = int(rng.negative_binomial(k, pair_prob)) if k else 0
        if comp is None and two < _HYPERGEOMETRIC_LIMIT:
            comp = gaps.draw(two, rng)
        if excess is None and b - a == 1:  # one stretch, drawn in pieces
            in_range, excess = _draw_stretch(k, room, window, pair_prob, rng)
            if excess is None:
                return at_a[0], adjacent, int(members[a - at_a[0]]), pairs + in_range, None
        length = None
        if excess is not None and comp is not None:
            length = k * step + excess + gaps.total(comp) + at_b[4] - at_a[4]
            if length < room:
                room -= length
                pairs += k + two + at_b[3] - at_a[3]  # each gap ends at a pair
                adjacent += comp[0]
                a, at_a = b, at_b
                if later:
                    b, at_b, k, excess, comp = later.pop()
                else:
                    fresh = True
                continue
            if b - a == 1:
                break
        if length is None:
            mid = (a + b) // 2
        else:
            mid = a + min(max((b - a) * room // length, 1), b - a - 1)
        at_mid = at(mid)
        left_k = at_mid[2] - at_a[2] + _split(k - base, at_mid[1] - at_a[1], at_b[1] - at_mid[1], rng)
        left_excess = left_comp = right_excess = right_comp = None
        if excess is not None:
            left_excess = _split(excess, left_k, k - left_k, rng)
            right_excess = excess - left_excess
        if comp is not None:
            left_comp, right_comp = gaps.split(comp, two, at_mid[0] - at_a[0], rng)
        later.append((b, at_b, k - left_k, right_excess, right_comp))
        b, at_b, k, excess, comp = mid, at_mid, left_k, left_excess, left_comp
    # cluster a passes the room: first its stretch, then its close gaps
    i = a - at_a[0]  # super-units before cluster a
    two_in, placed = at_a[0], int(members[i])
    stretch = k * step + excess
    if stretch >= room:
        return two_in, adjacent, placed, pairs + _bisect_stretch(k, excess, room, window, rng), None
    pairs += k  # the last long gap ends at the cluster's first pair; a two-pair cluster's second is out
    if at_b[0] == at_a[0]:
        # a placed cluster: its close pairs in range lie less than room - stretch
        # slots after ref, the slot of its first pair or, in the rest of a cut
        # cluster, of the last member placed (0 in member_slots)
        lead = 0 if head and i == 0 else 1
        first = placed + lead  # its first close pair
        ref = int(member_slots[first - 1]) if first else 0
        close = member_slots[first:members[i + 1]]
        crossing = int(close.searchsorted(ref + room - stretch))
        pairs += crossing
        if lead and crossing == 1:  # cut to two pairs
            return two_in + 1, adjacent + (int(close[0]) - ref == 1), placed, pairs, None
        if crossing:
            placed = first + crossing
    return two_in, adjacent, placed, pairs, None


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

    With window = max(deadtime, 1) and q = 1 - (1-p)^window, a pair gap is
    close (<= window) with probability q.  From the range's first pair the
    gaps are walked in "super-units": g ~ Geom0(q) clusters of exactly two
    pairs, closed by one cluster of three or more pairs, whose close gaps
    number 1 + j with j ~ Geom(1 - q).  Each cluster follows a stretch of
    1 + Geom0(q) long gaps (Geom0(q) before the range's first cluster),
    each window + 1 slots plus a Geom0(p) excess.  Only g, j and the close
    gaps of the clusters of three or more, each Geom(p) cut to 1..window
    and drawn by inverse CDF, are arrays: the two-pair clusters of a batch
    are counts, with their long gaps and the ``_CloseGapLaw`` composition
    of their close gaps.  ``_walk_units`` walks a batch up to the end of
    the range and returns what of it lies in range: the two-pair clusters,
    those with a gap of 1 slot, the members to place and the pairs.
    A batch holds at most a budget of members: it ends with the first
    super-unit that passes the budget less three, whose cluster keeps at
    most the rest of the budget, and the next batch opens with the rest of
    that cluster, j ~ Geom(1 - q) more close gaps by memorylessness.  The
    clusters of three or more in range are placed in compressed slots:
    close gaps are exact and each stretch takes window + 1 slots, the
    first one from slot -(window + 1), so the first member lands on 0.  The
    two-pair clusters in range draw their outcomes, per batch, as one
    multinomial per gap class (1 slot, where two heralds form a block, or
    2..window) from ``_two_pair_law``, and an isolated pair heralds with
    probability ``herald_det_efficiency``.  Every draw follows the laws of
    drawing all pairs, while the cost scales with the number of clusters
    of three or more.
    """
    p = params.pair_prob
    first = int(rng.geometric(p)) - 1 if p > 0.0 else n_slots  # slot of the first pair
    if first >= n_slots:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=bool), np.empty(0, dtype=bool), 0, 0, 0
    window = max(params.herald_deadtime_slots, 1)
    step = window + 1
    eff = params.herald_det_efficiency
    law = _two_pair_law(params)
    gaps = _close_gap_law(p, window)
    log_miss = math.log1p(-p) if p < 1.0 else -math.inf  # every gap is 1 at pair_prob 1
    log_long = window * log_miss  # log P(gap > window)
    q = -math.expm1(log_long)
    log_q = math.log1p(-math.exp(log_long))  # 0 when every gap is close
    # g = floor(log(u) / log(1 - q)) and j - 1 = floor(log(u') / log(q)); when
    # q is 1, j is the cap, put in place of log(u') and divided by -1
    scale = np.array([[log_long], [log_q if log_q < 0.0 else -1.0]])
    super_units = p * q * q * (1.0 - q)  # per slot
    member_rate = p * q * q * (3.0 - 2.0 * q)  # pairs of clusters of three or more, per slot
    room = n_slots - first  # a pair is in range if it lands less than room slots on
    last = -step  # compressed slot of the last member placed; the first lands on 0
    pairs = 1
    counted_pairs = heralds = blocks = 0  # of the two-pair clusters
    opens = 1  # how super-unit 0 of a batch opens; see _walk_units
    slots: list[np.ndarray] = []
    to_a: list[np.ndarray] = []
    eff_draws: list[np.ndarray] = []
    while room is not None:
        batch = _batch_units(room * super_units, window)
        budget = max(_batch_units(room * member_rate, window), 3)
        draws = rng.random((2, batch))
        np.negative(draws, out=draws)
        np.log1p(draws, out=draws)
        if log_q == 0.0:
            draws[1] = -budget
        draws /= scale
        # more than room // (step + 1) + 1 two-pair clusters pass the room
        np.minimum(draws[0], room // (step + 1) + 2, out=draws[0])
        np.minimum(draws[1], budget, out=draws[1])
        two, count = draws.astype(np.int64)
        count += 3  # members: a first pair and 2 + floor(...) close gaps
        head = opens == 2  # super-unit 0 holds only the rest of a cut cluster
        if head:
            two[0] = 0
            count[0] -= 2
        members = np.zeros(batch + 1, dtype=np.int64)
        count.cumsum(out=members[1:])
        # the batch ends with the first super-unit that passes budget - 3
        # members, and that one keeps at most the rest of the budget
        cut = int(members.searchsorted(budget - 3, "right"))
        cut_open = False
        if cut <= batch:
            kept = min(int(count[cut - 1]), budget - int(members[cut - 1]))
            cut_open = kept < count[cut - 1]
            batch = cut
            two, members = two[:batch], members[:batch + 1]
            members[batch] = members[batch - 1] + kept
        n_members = int(members[-1])
        if window == 1:
            member_gaps = np.ones(n_members, dtype=np.uint64)
        else:  # Geom(p) cut to 1..window by inverse CDF
            u = rng.random(n_members)
            u *= -q
            np.log1p(u, out=u)
            u /= log_miss
            member_gaps = u.astype(np.uint64)
            member_gaps += 1
            np.minimum(member_gaps, window, out=member_gaps)
        member_gaps[members[head:batch]] = step  # a placed cluster starts window + 1 slots on
        member_slots = member_gaps.cumsum()  # after the last member placed; 2 close gaps may reach 2^63
        two += 1
        clusters = np.zeros(batch + 1, dtype=np.int64)
        two.cumsum(out=clusters[1:])
        # a detector and an efficiency draw for every pair the batch's placed
        # clusters hold, so where the range ends changes none of them
        batch_to_a = rng.random(n_members) < params.herald_splitter_ratio
        batch_eff = rng.random(n_members) < eff if eff < 1.0 else np.ones(n_members, dtype=bool)
        two_in, adjacent, placed, in_range, room = _walk_units(
            clusters, members, member_slots, room, opens, gaps, window, p, q, rng)
        pairs += in_range
        opens = 2 if cut_open else 0
        if two_in:
            counted_pairs += 2 * two_in
            if adjacent:  # two heralds in adjacent slots form a block
                _, one, both = rng.multinomial(adjacent, law)
                heralds += int(one + 2 * both)
                blocks += int(both)
            if two_in > adjacent:
                _, one, both = rng.multinomial(two_in - adjacent, law)
                heralds += int(one + 2 * both)
        placed_slots = member_slots[:placed].astype(np.int64)
        placed_slots += last
        slots.append(placed_slots)
        to_a.append(batch_to_a[:placed])
        eff_draws.append(batch_eff[:placed])
        if placed:
            last = int(placed_slots[-1])
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
    ``deadtime``, and each cluster is resolved on its own, one detector at
    a time.  A cluster's first arrival fires.  In a cluster of two the
    second arrival is within the deadtime of the first, so it is blind:
    clusters of one or two, nearly all of them near the paper's operating
    point, are settled in closed form.  In a cluster of three or more the
    fired arrivals are the orbit of next(i) = the first arrival later than
    slot i + deadtime, started at the cluster's first arrival.  Only these
    clusters' arrivals are gathered, and their orbits are marked by
    pointer doubling, in log2(longest orbit) vector rounds.
    """
    if deadtime == 0 or slots.size == 0:
        return eff_draws.copy()
    fired = np.zeros(slots.size, dtype=bool)
    for detector in (to_a, ~to_a):
        # gather and scatter through indices: boolean masks are several
        # times slower on these irregular patterns
        hits = np.flatnonzero(detector & eff_draws)
        s = slots[hits]
        on = np.ones(s.size, dtype=bool)  # first of its cluster
        np.greater(s[1:] - s[:-1], deadtime, out=on[1:])
        del s  # the orbits below gather their own slots: a smaller peak
        # three arrivals in a row with close gaps between them lie in one
        # cluster; these triples cover the clusters of three or more
        close = ~on[1:]
        triple = close[1:] & close[:-1]
        if triple.any():
            big = np.zeros(on.size, dtype=bool)
            big[:-2] = triple
            big[1:-1] |= triple
            big[2:] |= triple
            idx = np.flatnonzero(big)
            t = slots[hits[idx]]
            k = idx.size
            first = np.append(on[idx], True)  # index k: "no further arrival"
            jump = np.empty(k + 1, dtype=np.int64)
            # the first arrival later than t + deadtime, which jump holds meanwhile:
            # three orbit-length arrays at once, the search result the third
            np.add(t, deadtime, out=jump[:k])
            jump[:k] = t.searchsorted(jump[:k], "right")
            del t  # the doubling reads only indices
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
    if not 1 <= n_slots <= MAX_SLOTS:
        raise ValueError(f"n_slots must lie in 1..2**62 (got {n_slots})")
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
