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
gaps has a negative-binomial total.  Both detectors are live at a
cluster's first pair and its blocks of heralds end inside it, so a
cluster of at most K pairs heralds by a law of its own, and a table per
source gives it.  The law depends on the cluster's size and the sum of
its close gaps, its class.  K is the smallest size that leaves at most
one cluster in a million larger, within a budget of table entries: at
w = 1, where every close gap is one slot, a class is a size (K = 13 at
pair_prob 0.3); at w > 1, K = 5 at the two-mode point (340 gap vectors
in 34 classes), K = 2, a class per close gap, where q <= 1e-6 or even
K = 3 would take too many gap vectors, and K = 1 past w = 512, where not
even the two-pair classes fit, so every cluster is placed.
Those clusters enter only as counts, as does an isolated pair, which
heralds with probability ``herald_det_efficiency``: between two clusters
of more than K pairs, the counted clusters are one geometric count, and
their classes one composition of counts that carries their exact sum.
The pairs of clusters of more than K pairs, the "members", are placed
in compressed slots: gaps inside a cluster are exact, and each stretch
between clusters takes w + 1 slots.  Deadtime and run detection read
only gaps, and to both a gap of w + 1 acts as any longer
one, so detector clusters and herald blocks are those of the real
slots; real lengths are kept only to find where the range ends.  The law
of every count and of the member gaps equals that of drawing all pairs,
while the cost scales with the number of members.

A delayed copy of each herald is AND-ed with the next, so a run of n
consecutive heralds starts a conversion.  Runs are claimed greedily left
to right without overlap, since the router is busy for the n slots of a
conversion: a maximal block of L consecutive heralds yields floor(L/n)
runs.  ``herald_block_histogram`` counts a stream's blocks by length,
and ``run_starts_from_heralds`` lays the claimed runs out as start slots.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import lru_cache
import itertools
import math
import operator

import numpy as np

from .model import MAX_SLOTS, SourceParams, is_int


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
        if not (is_int(self.master_seed) and 0 <= self.master_seed < 2**64):
            raise ValueError(f"master_seed must be a 64-bit unsigned integer (got {self.master_seed!r})")
        index = tuple(self.stream_index)
        for i in index:
            if not is_int(i):
                raise ValueError(f"stream_index entries must be integers (got {i!r} in {index!r})")
        object.__setattr__(self, "stream_index", tuple(map(int, index)))

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.master_seed, spawn_key=self.stream_index)
        return np.random.Generator(np.random.PCG64(seq))


@dataclass(frozen=True)
class HeraldStream:
    """Cluster members of a generated slot range, plus whole-range counts.

    ``pair_slots`` holds, sorted and unique, the compressed slots of the
    members: the pairs of clusters of more than K pairs, where a cluster
    chains pairs within w = ``max(deadtime, 1)`` slots of each other and K
    is set by the source's close-gap probability and w (13 at pair_prob
    0.3 and w = 1, 5 at the two-mode point; see ``_largest_counted``), so
    that almost every cluster is counted, but past w = 512 K is 1 and
    every cluster is placed.  Gaps inside a cluster are
    exact, and gaps between clusters are w + 1, so the slots lie in
    [0, n_slots) but are not the pairs' absolute slots.  ``to_detector_a`` and ``fired`` are
    per member.  Every other pair of the range, in a cluster of at most K
    pairs in range (one cut short by the end of the range included) or
    isolated, is only counted: ``counted_blocks[L]`` is the number of
    blocks of L consecutive heralds that those pairs form.  So the blocks
    that ``herald_block_histogram`` counts are those in ``herald_slots``
    and the ``counted_blocks``.  ``pair_count`` and ``herald_count`` cover
    all pairs of the range.
    """

    n_slots: int
    pair_slots: np.ndarray  # int64, sorted: compressed slots of cluster members only
    to_detector_a: np.ndarray  # bool, per member
    fired: np.ndarray  # bool, per member
    pair_count: int
    herald_count: int
    counted_blocks: np.ndarray  # int64, 3+ entries: blocks of L heralds of the pairs not placed, at L

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
# and a call's fixed arrays, lists and draws, which alone set the peak
# where nearly every cluster is counted: 7 to 10 kB measured for a call
# whose range ends among the first super-unit's counted clusters and so
# draws no round (the `fixture` and `sweep` points), 10 to 15 kB for one
# that draws a round of a few super-units
_BYTES_PER_CALL = 1 << 14
# super-units, and members, drawn per vector round; bounds the working arrays
_BATCH_UNITS = 1 << 18
_HYPERGEOMETRIC_LIMIT = 10**9  # numpy draws hypergeometric counts below this
_NO_MEMBERS = np.zeros(1, dtype=np.int64)  # the members and slots of a walk of counted clusters alone
_NO_MEMBERS.flags.writeable = False
_CLASS_BUDGET = 512  # gap vectors whose outcome laws a window of two or more slots builds (_largest_counted)


def _batch_units(units: float, window: int) -> int:
    """Items drawn in one vector round when ``units`` are expected in the range left."""
    # items * window <= 2^62 keeps a round's compressed slots below 2^64
    return min(int(units + 6.0 * math.sqrt(units + 1.0)) + 16, _BATCH_UNITS, 2**62 // window)


def expected_peak_bytes(params: SourceParams, n_slots: int) -> float:
    """Expected peak bytes of one ``generate_herald_stream`` call.

    With q = 1 - (1-p)^max(deadtime, 1), each pair is followed by a close
    gap with probability q, and a cluster has 2 + Geom pairs, more than K
    with probability q^(K-1) (K as ``_sample_members`` takes it).  The
    members, the pairs of clusters of more than K, number
    n_slots p q^K (K + 1 - K q) in expectation, and those clusters, each
    closing a super-unit, n_slots p (1-q) q^K.  One vector round of
    super-unit arrays is alive at a time; a call whose range ends among
    the first super-unit's counted clusters, nearly every call at the
    two-mode point, draws none, and its peak is the fixed cost alone.
    The table of outcomes that the counted clusters are drawn by is built
    once per source and kept, so it is not a per-call cost.
    """
    p = params.pair_prob
    window = max(params.herald_deadtime_slots, 1)
    largest = _counted_law(params).largest if p > 0.0 else 2
    q = 1.0 - (1.0 - p) ** window
    members = n_slots * p * q * q ** (largest - 1) * (largest + 1.0 - largest * q)
    super_units = _batch_units(n_slots * p * (1.0 - q) * q * q ** (largest - 1), window)
    return members * _BYTES_PER_MEMBER + super_units * _BYTES_PER_UNIT + _BYTES_PER_CALL


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


def _largest_counted(q: float, window: int) -> int:
    """K: clusters of at most K pairs are counted, not placed.

    The smallest K >= 1 with q^(K - 1) <= 1e-6, so that at most one cluster
    in a million holds more pairs and is placed, but at most 16, and with
    at most ``_CLASS_BUDGET`` gap vectors of 2..K pairs, sum_{s=2..K}
    window^(s - 1): at a window of one slot a cluster's outcomes grow
    about as the partitions of its size, and at a wider window its gap
    vectors as window^(K - 1).  Both bounds keep a source's table within
    a few milliseconds.  Since q^0 = 1, K is at least 2 wherever the w
    gap vectors of two pairs fit the budget; a window of more than 512
    slots has K = 1: it counts no cluster and places every one.
    """
    largest = 1
    while (largest < 16 and q ** (largest - 1) > 1e-6
           and sum(window ** close for close in range(1, largest + 1)) <= _CLASS_BUDGET):
        largest += 1
    return largest


def _size_law(params: SourceParams, q: float, largest: int) -> _GapClassLaw:
    """``_GapClassLaw`` of a window of one slot (deadtime 0 or 1), with pairs close with probability q.

    Every close gap is one slot, so class i holds the clusters of i + 2
    pairs, one gap vector of ones, and is a group of its own, in size
    order.  A cluster's outcome is built from its first block and what
    follows: either its s pairs all herald, one block of s, or its first
    L pairs herald and pair L + 1 does not, and then the rest, s - L - 1
    pairs, starts afresh, since the slot after a pair that does not herald
    finds both detectors live.  The first L pairs herald with a
    probability that a two-state recursion over the detector of the last
    herald gives (the other one, under a deadtime of one slot).
    """
    eff = params.herald_det_efficiency
    on_a = params.herald_splitter_ratio * eff
    on_b = eff - on_a
    run = [(1.0, 0.0, 0.0)]  # P(the first L pairs herald), and the L-th on A, on B
    for length in range(1, largest + 1):
        _, a, b = run[-1]
        if length == 1:
            a, b = on_a, on_b
        elif params.herald_deadtime_slots:  # the next herald takes the other detector
            a, b = b * on_a, a * on_b
        else:
            a, b = (a + b) * on_a, (a + b) * on_b
        run.append((a + b, a, b))
    # P(the first L pairs herald, and pair L + 1 does not)
    stop = [run[length][0] - run[length + 1][0] for length in range(largest)]
    laws: list[dict[tuple[int, ...], float]] = [{(): 1.0}]
    for size in range(1, largest + 1):
        law = {(size,): run[size][0]} if run[size][0] > 0.0 else {}
        for length in range(size):
            if stop[length] > 0.0:
                for rest, prob in laws[size - length - 1].items():
                    key = tuple(sorted((*rest, length))) if length else rest
                    law[key] = law.get(key, 0.0) + stop[length] * prob
        laws.append(law)
    # each size's outcomes likeliest first, after zeros up to the widest size
    rows = [sorted(law.items(), key=lambda item: (-item[1], item[0])) for law in laws[2:]]
    width = max(map(len, rows))
    outcomes = np.zeros((largest - 1, width))
    lengths = np.zeros((largest - 1, width, max(largest + 1, 3)), dtype=np.int64)
    for i, row in enumerate(rows):
        for j, (blocks, prob) in enumerate(row, width - len(row)):
            outcomes[i, j] = prob
            for length in blocks:
                lengths[i, j, length] += 1
    # sizes 2..largest: P(s) proportional to q^(s - 2)
    sizes = np.array([q ** s for s in range(largest - 1)])
    log_counted = math.log1p(-q ** (largest - 1)) if q < 1.0 else -math.inf
    close = np.arange(1, largest, dtype=np.int64)
    return _GapClassLaw(largest, log_counted, sizes / sizes.sum(), close, close,
                        tuple(((1,) * c,) for c in range(1, largest)), {(c, c): c - 1 for c in range(1, largest)},
                        close - 1, close - 1, outcomes, lengths.reshape(-1, lengths.shape[2]))


@dataclass(frozen=True, eq=False)
class _GapClassLaw:
    """Counted clusters of 2..K pairs at a window of w slots: their classes and herald blocks.

    A cluster's close gaps are each 1..w slots.  Every gap before a
    cluster is longer than w, so both detectors are live at its first
    pair, and its blocks of heralds end inside it: at w = 1 the slot after
    it is empty, and at w >= 2 that gap is at least three slots long.  So
    a cluster's contribution to the herald-block histogram has a law that
    depends on its gaps and the source alone.  The gap vectors of s pairs
    and S close slots are equally likely (each (1-p)^S times a factor of
    s alone), so a cluster's class is (s, S): its outcome law is the mean
    of its gap vectors' laws, and a cluster that the end of the range cuts
    takes a uniform one of them.  At w = 1 a class is a size, S = s - 1
    with one gap vector of ones, whose blocks are up to s heralds long
    (``_size_law``); at w >= 2 a block holds one or two heralds, since
    three heralds in three slots would need a detector to fire twice
    within two slots (``_gap_class_law``).  A composition is an int64
    array of counts per class, likeliest class first; ``slots`` and
    ``close`` give each class's S and s - 1, so a composition's sums are
    dot products.  Classes of one outcome law form a group: the classes
    ``order[starts[i]:starts[i + 1]]`` share the law ``outcomes[i]``, whose
    outcome j holds the blocks ``lengths[i * outcomes.shape[1] + j]``.  A
    row lists its outcomes likeliest first after zeros, so a multinomial
    draw consumes nothing for the zeros, stops once its count is spent,
    and leaves any rounding residue on an outcome of the law.
    """

    largest: int  # the pairs of the largest cluster counted
    log_counted: float  # log P(a cluster holds at most ``largest`` pairs)
    probs: np.ndarray  # P(class | 2 <= s <= largest), likeliest first
    slots: np.ndarray  # int64, per class: S
    close: np.ndarray  # int64, per class: s - 1
    gaps: tuple[tuple[tuple[int, ...], ...], ...]  # per class: its gap vectors
    index: dict  # (s - 1, S) -> its class
    order: np.ndarray  # the classes, group by group
    starts: np.ndarray  # per group: where its classes start in ``order``
    outcomes: np.ndarray  # per group: P(outcome), likeliest first after zeros
    lengths: np.ndarray  # int64, per group and outcome, row-major: its blocks of L heralds at L (3 or K + 1 columns)

    def draw(self, clusters: int, rng: np.random.Generator) -> np.ndarray:
        """Composition of ``clusters`` fresh counted clusters: one multinomial."""
        if clusters == 0:
            return np.zeros(self.probs.size, dtype=np.int64)
        return rng.multinomial(clusters, self.probs)

    def split(self, comp: np.ndarray, clusters: int, left: int,
              rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Compositions of the first ``left`` of ``clusters`` clusters of ``comp``, and of the rest.

        Given the counts, the clusters are exchangeable, so each count of
        the left part is hypergeometric given those before it.  The chain
        visits the classes likeliest first and stops once the left part is
        empty or takes all the rest.  Over the few classes a composition
        holds, its scalar draws cost less than one
        ``multivariate_hypergeometric`` call, whose argument checks take
        most of its time; the chain reads the counts as a list, since
        stepping over numpy scalars costs more than the draws.
        """
        counts = comp.tolist()
        taken = [0] * len(counts)
        for i, count in enumerate(counts):
            if left == 0 or left == clusters:  # the rest go right, or all go left
                if left:
                    taken[i:] = counts[i:]
                break
            if count:
                # the last class takes the whole left part without a draw: numpy's draw
                # would spend random numbers there once the sample reaches 10
                in_left = left if count == clusters else int(rng.hypergeometric(count, clusters - count, left))
                taken[i] = in_left
                clusters -= count
                left -= in_left
        left_comp = np.array(taken, dtype=np.int64)
        return left_comp, comp - left_comp

    def total(self, comp: np.ndarray) -> int:
        """Close slots of a composition."""
        return int(comp.dot(self.slots))

    def pairs(self, comp: np.ndarray) -> int:
        """Pairs after each cluster's first: one per close gap."""
        return int(comp.dot(self.close))

    def one(self, gaps: list[int]) -> np.ndarray:
        """Composition of one cluster whose close gaps are ``gaps``."""
        comp = np.zeros(self.probs.size, dtype=np.int64)
        comp[self.index[len(gaps), sum(gaps)]] = 1
        return comp

    def cut(self, comp: np.ndarray, slots: int, rng: np.random.Generator) -> np.ndarray:
        """Composition of the pairs less than ``slots`` slots after the first of
        the one cluster ``comp``, empty when only its first pair is.

        Its gaps are a uniform vector of its class; given its sum, which
        alone decided that the cluster crosses the end, so are those of the
        prefix in range, and heralding is causal: the prefix's blocks
        follow the prefix's class.
        """
        vectors = self.gaps[int(comp.argmax())]
        gaps = vectors[int(rng.integers(len(vectors)))] if len(vectors) > 1 else vectors[0]
        kept = bisect.bisect_left(list(itertools.accumulate(gaps)), slots)
        return self.one(gaps[:kept]) if kept else np.zeros_like(comp)

    def blocks(self, comp: np.ndarray, rng: np.random.Generator) -> list[int]:
        """Herald blocks by length of the clusters of a composition: one
        multinomial per group, all in one call, and none where every group
        has a single outcome (deadtime 0 at efficiency 1).  Only the
        outcomes drawn are summed: at w = 1 most rows of ``lengths`` are
        padding or sizes the composition lacks."""
        groups = np.add.reduceat(comp[self.order], self.starts)
        if self.outcomes.shape[1] == 1:
            return (groups @ self.lengths).tolist()
        drawn = rng.multinomial(groups, self.outcomes).ravel()
        held = np.flatnonzero(drawn)
        return (drawn[held] @ self.lengths.take(held, axis=0)).tolist()


def _gap_class_law(params: SourceParams, q: float, largest: int) -> _GapClassLaw:
    """``_GapClassLaw`` of a window of w = deadtime >= 2 slots, with pairs close with probability q.

    P(gap vector) is proportional to q^(s - 2) prod_i P(g_i | g_i <= w).
    The outcome laws of the gap vectors come from a dynamic program along
    the gaps that runs all vectors of one length at once and extends each
    by every next gap, so a vector shares its prefix's rows.  A row holds
    a prefix, the slots since each detector last fired as of the prefix's
    last pair (capped at w, since every gap is at least one slot: a
    detector w slots on is live at the next pair), its blocks of one and
    of two heralds so far, and a probability.  A new herald one slot after
    a herald that opened a block of one, a detector that fired 0 slots ago
    while the other did not fire 1 slot ago, closes a block of two.
    """
    if largest == 1:  # no class: every cluster is placed
        empty = np.zeros(0, dtype=np.int64)
        return _GapClassLaw(1, -math.inf, np.zeros(0), empty, empty, (), {}, empty, empty,
                            np.zeros((0, 0)), np.zeros((0, 3), dtype=np.int64))
    window = params.herald_deadtime_slots
    p = params.pair_prob
    eff = params.herald_det_efficiency
    on_a = params.herald_splitter_ratio * eff
    on_b = eff - on_a
    width = largest // 2 + 1  # an outcome is blocks of one * width + blocks of two
    size = (largest + 1) * width
    gap_probs = np.array([p * (1.0 - p) ** g for g in range(window)])  # P(gap = 1..w)
    gap_probs /= gap_probs.sum()
    steps = np.arange(1, window + 1)
    # rows after a cluster's first pair: A fired, B fired, neither did
    prefix = np.zeros(3, dtype=np.int64)
    age_a, age_b = np.array([0, window, window]), np.array([window, 0, window])
    outcome, prob = np.array([width, width, 0]), np.array([on_a, on_b, 1.0 - eff])
    weight = np.ones(1)
    weights, laws = [], []
    for close in range(1, largest):
        opened = ((age_a == 0) & (age_b != 1)) | ((age_b == 0) & (age_a != 1))
        joins = (opened[:, None] & (steps == 1)).ravel()
        prefix = (prefix[:, None] * window + steps - 1).ravel()
        age_a = (age_a[:, None] + steps).ravel()
        age_b = (age_b[:, None] + steps).ravel()
        live_a, live_b = age_a > window, age_b > window
        np.minimum(age_a, window, out=age_a)
        np.minimum(age_b, window, out=age_b)
        outcome, prob = np.repeat(outcome, window), np.repeat(prob, window)
        herald = outcome + np.where(joins, 1 - width, width)
        # the pair fires A, fires B, or neither (its detector blind, or its efficiency draw failed)
        fired = np.zeros_like(age_a)
        prefix = np.concatenate((prefix, prefix, prefix))
        age_a, age_b = np.concatenate((fired, age_a, age_a)), np.concatenate((age_b, fired, age_b))
        outcome = np.concatenate((herald, herald, outcome))
        prob = np.concatenate((prob * (on_a * live_a), prob * (on_b * live_b),
                               prob * (1.0 - eff + on_a * ~live_a + on_b * ~live_b)))
        weight = np.outer(weight, gap_probs).ravel()
        weights.append(weight * q ** (close - 1))
        laws.append(np.bincount(prefix * size + outcome, weights=prob,
                                minlength=window ** close * size).reshape(-1, size))
        if close < largest - 1:  # merge the rows of one state
            kept = prob > 0.0
            key = ((prefix[kept] * (window + 1) + age_a[kept]) * (window + 1) + age_b[kept]) * size + outcome[kept]
            key, where = np.unique(key, return_inverse=True)
            prob = np.bincount(where.ravel(), weights=prob[kept])
            key, outcome = np.divmod(key, size)
            key, age_b = np.divmod(key, window + 1)
            prefix, age_a = np.divmod(key, window + 1)
    # the classes (s, S): s - 1 = close gaps, S = close..close * w slots
    vectors = [gaps for close in range(1, largest) for gaps in itertools.product(range(1, window + 1), repeat=close)]
    keys = sorted({(len(gaps), sum(gaps)) for gaps in vectors})
    canonical = {key: i for i, key in enumerate(keys)}
    of_class = np.array([canonical[len(gaps), sum(gaps)] for gaps in vectors])
    members: list[list[tuple[int, ...]]] = [[] for _ in keys]
    for gaps, c in zip(vectors, of_class.tolist()):
        members[c].append(gaps)
    sizes = np.bincount(of_class)
    weights = np.bincount(of_class, weights=np.concatenate(weights))
    by_class = np.argsort(of_class, kind="stable")
    laws = np.add.reduceat(np.concatenate(laws)[by_class], np.cumsum(sizes) - sizes) / sizes[:, None]
    # likeliest first: a multinomial draw stops once its count is spent
    rank = np.argsort(-weights, kind="stable").tolist()
    keys = [keys[c] for c in rank]
    laws, group = np.unique(laws[rank], axis=0, return_inverse=True)
    group = group.ravel()
    order = np.argsort(group, kind="stable")
    # each group's outcomes, likeliest first after zeros
    held = (laws > 0.0).sum(axis=1)
    likeliest = np.arange(held.max()) - (held.max() - held)[:, None]  # a zero where negative
    column = np.take_along_axis(np.argsort(-laws, axis=1, kind="stable"), np.maximum(likeliest, 0), axis=1)
    zero = likeliest < 0
    outcomes = np.where(zero, 0.0, np.take_along_axis(laws, column, axis=1))
    lengths = np.stack((np.zeros_like(column), column // width, column % width), axis=-1)
    lengths[zero] = 0
    lengths = lengths.reshape(-1, 3)
    log_counted = math.log1p(-q ** (largest - 1)) if q < 1.0 else -math.inf
    return _GapClassLaw(
        largest, log_counted, weights[rank] / weights.sum(),
        np.array([slots for _, slots in keys], dtype=np.int64), np.array([close for close, _ in keys], dtype=np.int64),
        tuple(tuple(members[c]) for c in rank), {key: i for i, key in enumerate(keys)}, order,
        np.searchsorted(group[order], np.arange(len(laws))), outcomes, lengths)


@lru_cache(maxsize=64)
def _counted_law(params: SourceParams) -> _GapClassLaw:
    """What counts the clusters of at most K pairs for this source; see ``_sample_members``.

    K is ``_largest_counted``.  One law type serves every window, from
    two builders: a window of one slot has a class per size, 2..K, built by
    ``_size_law``'s renewal recursion; a wider one has the classes of
    ``_gap_class_law``'s gap DP: at K = 2 (q <= 1e-6, or a window of 23 to
    512 slots) the two-pair clusters' close gaps of 1..w slots, and at
    K = 1 (a window of more than 512 slots) none.  Needs pair_prob > 0.
    """
    p = params.pair_prob
    window = max(params.herald_deadtime_slots, 1)
    log_long = window * math.log1p(-p) if p < 1.0 else -math.inf
    q = -math.expm1(log_long)
    largest = _largest_counted(q, window)
    if window == 1:
        return _size_law(params, q, largest)
    return _gap_class_law(params, q, largest)


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
                opens: int, counted: _GapClassLaw, window: int, pair_prob: float,
                q: float, rng: np.random.Generator, total: "int | None" = None
                ) -> tuple[int, np.ndarray, int, int, "int | None"]:
    """In-range tallies of a batch's first ``total`` clusters (all of them
    by default): their counted clusters and summed composition, their
    members placed, their pairs, and the room left.

    The batch's clusters are numbered in order: super-unit i holds the
    clusters ``clusters[i]`` to ``clusters[i + 1] - 1``, its counted
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
    q), their excess over window + 1 slots each, NegBinomial(k, p), and the
    composition of its counted clusters by ``counted``'s classes (sizes at
    a window of one slot); the excess and the composition are drawn once
    the segment is small enough for one draw.
    A fresh segment holds the clusters expected in the room, at least one,
    so its stretches stay within ``_max_piece(q)`` for any range of at
    most 2^62 slots.  A segment that passes the room is cut where the
    room's share of its length falls: its long gaps beyond the first of
    each stretch split by ``_split`` with the parts' stretches as shapes,
    its excess by ``_split`` with the parts' long gaps, its composition by
    ``counted.split``.  In the cluster that crosses the end,
    ``_bisect_stretch`` (or ``_draw_stretch``) counts the pairs of its
    stretch in range, and the close pairs in range are those less than the
    room left slots after the cluster's first pair.  A cluster cut to two
    to K pairs (K = ``counted.largest``) is counted by its gaps in range
    (``counted.cut``, or ``counted.one`` for a placed one), and one
    cut to one pair is an isolated pair.  The room left is None once the
    batch crosses the end.
    """
    step = window + 1
    p_piece = _max_piece(pair_prob)
    density = pair_prob * q * (1.0 - q)  # clusters per slot
    head = 1 if opens == 2 else 0  # super-unit 0 lacks a first pair, a stretch and a step
    skip = 1 if opens else 0  # cluster 0 lacks the first long gap of a stretch

    def at(c: int) -> tuple[int, int, int, int, int]:
        """Counted clusters, stretches, first long gaps, placed close gaps and their slots before c."""
        i = int(clusters.searchsorted(c, "right")) - 1  # super-units before c
        if i == 0:
            return c, c - head * (c > 0), c - skip * (c > 0), 0, 0
        m = int(members[i])
        return c - i, c - head, c - skip, m - i + head, int(member_slots[m - 1]) - step * (i - head)

    total = int(clusters[-1]) if total is None else total
    a, at_a = 0, (0, 0, 0, 0, 0)
    later: list[tuple] = []  # (end, its prefix, long gaps, excess, composition) of segments to come
    pairs = 0
    tally = counted.draw(0, rng)  # an empty composition: no draw
    fresh = True
    while True:
        if fresh:
            if a == total:
                return at_a[0], tally, int(members[-1]), pairs, room
            b = min(a + max(int(room * density), 1), total)
            at_b, excess, comp = at(b), None, None
        n_counted, shapes, base = at_b[0] - at_a[0], at_b[1] - at_a[1], at_b[2] - at_a[2]
        if fresh:
            k, fresh = base + int(rng.negative_binomial(shapes, q)) if shapes else 0, False
        if excess is None and k <= p_piece:
            excess = int(rng.negative_binomial(k, pair_prob)) if k else 0
        if comp is None and n_counted < _HYPERGEOMETRIC_LIMIT:
            comp = counted.draw(n_counted, rng)
        if excess is None and b - a == 1:  # one stretch, drawn in pieces
            in_range, excess = _draw_stretch(k, room, window, pair_prob, rng)
            if excess is None:
                return at_a[0], tally, int(members[a - at_a[0]]), pairs + in_range, None
        length = None
        if excess is not None and comp is not None:
            length = k * step + excess + counted.total(comp) + at_b[4] - at_a[4]
            if length < room:
                room -= length
                pairs += k + counted.pairs(comp) + at_b[3] - at_a[3]  # each gap ends at a pair
                tally = tally + comp
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
            left_comp, right_comp = counted.split(comp, n_counted, at_mid[0] - at_a[0], rng)
        later.append((b, at_b, k - left_k, right_excess, right_comp))
        b, at_b, k, excess, comp = mid, at_mid, left_k, left_excess, left_comp
    # cluster a passes the room: first its stretch, then its close gaps
    i = a - at_a[0]  # super-units before cluster a
    n_counted, placed = at_a[0], int(members[i])
    stretch = k * step + excess
    if stretch >= room:
        return n_counted, tally, placed, pairs + _bisect_stretch(k, excess, room, window, rng), None
    pairs += k  # the last long gap ends at the cluster's first pair
    if at_b[0] > at_a[0]:  # a counted cluster, alone in comp
        part = counted.cut(comp, room - stretch, rng)
        close = counted.pairs(part)
        if close:
            tally = tally + part
            n_counted += 1
        return n_counted, tally, placed, pairs + close, None
    # a placed cluster: its close pairs in range lie less than room - stretch
    # slots after ref, the slot of its first pair or, in the rest of a cut
    # cluster, of the last member placed (0 in member_slots)
    lead = 0 if head and i == 0 else 1
    first = placed + lead  # its first close pair
    ref = int(member_slots[first - 1]) if first else 0
    close = member_slots[first:members[i + 1]]
    crossing = int(close.searchsorted(ref + room - stretch))
    pairs += crossing
    if lead and 0 < crossing < counted.largest:  # cut to 2..K pairs
        tally = tally + counted.one(np.diff(member_slots[first - 1:first + crossing]).tolist())
        return n_counted + 1, tally, placed, pairs, None
    if crossing:
        placed = first + crossing
    return n_counted, tally, placed, pairs, None


def _sample_members(params: SourceParams, n_slots: int, rng: np.random.Generator
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, list[int]]:
    """Compressed slots of the pairs of clusters of more than K pairs, their
    detector and efficiency draws, the pair count, and the herald blocks,
    by length, of the pairs not placed.

    With window = max(deadtime, 1) and q = 1 - (1-p)^window, a pair gap is
    close (<= window) with probability q.  ``_counted_law`` sets K,
    ``_largest_counted(q, window)``.  From the range's first pair the gaps are walked in
    "super-units": g counted clusters of 2..K pairs, g ~ Geom0(q^(K-1)),
    none at K = 1, closed by one placed cluster of more than K pairs, whose close gaps
    number K - 1 + j with j ~ Geom(1 - q).  Each cluster follows a stretch
    of 1 + Geom0(q) long gaps (Geom0(q) before the range's first
    cluster), each window + 1 slots plus a Geom0(p) excess.  Only g, j and
    the close gaps of the placed clusters, each Geom(p) cut to 1..window
    and drawn by inverse CDF, are arrays: the counted clusters of a batch
    are counts, with their long gaps and the ``_counted_law`` composition
    of their classes (at a window of one slot, their sizes).
    ``_walk_units`` walks a batch up to the end of the
    range and returns what of it lies in range: the counted clusters and
    their composition, the members to place and the pairs.  A batch holds
    at most a budget of members: it ends with the first super-unit that
    passes the budget less K + 1, whose cluster keeps at most the rest of
    the budget, and the next batch opens with the rest of that cluster,
    j ~ Geom(1 - q) more close gaps by memorylessness.  The placed
    clusters in range are placed in compressed slots: close gaps are exact
    and each stretch takes window + 1 slots, the first one from slot
    -(window + 1), so the first member lands on 0.  The counted clusters
    in range draw their herald blocks per batch, by their composition
    (``blocks``), into a list with an entry per column of the law's
    ``lengths`` (blocks of up to K heralds at a window of one slot, of up
    to two at a wider one), and an isolated pair heralds with probability
    ``herald_det_efficiency``, a block of one.  Every draw follows the laws
    of drawing all pairs, while the cost scales with the number of placed
    clusters.

    The draws come in this order: the slot of the range's first pair; at
    K >= 2, super-unit 0's g alone, capped as a round caps it, and the walk
    of its g counted clusters (``_walk_units`` with ``total`` g).  Where
    the range ends among them, nearly every call at the two-mode point (g
    has a mean of about 1e7 there, and a 2.5e8-slot range holds about
    19,000 clusters), their blocks and the isolated pairs' binomial follow
    and no round is drawn.  Else the rounds follow, the first with
    super-unit 0's g set to 0, so its placed cluster follows a whole
    stretch, as a later round's first cluster does.  A round draws the
    uniforms of its g and j, its members' close gaps, detectors and
    efficiency draws, then walks, then draws the blocks of its counted
    clusters in range; the isolated pairs' binomial comes last.  At K = 1
    no g is drawn before the rounds.
    """
    p = params.pair_prob
    first = int(rng.geometric(p)) - 1 if p > 0.0 else n_slots  # slot of the first pair
    if first >= n_slots:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.astype(bool), empty.astype(bool), 0, [0, 0, 0]
    window = max(params.herald_deadtime_slots, 1)
    step = window + 1
    eff = params.herald_det_efficiency
    counted = _counted_law(params)
    largest = counted.largest
    log_miss = math.log1p(-p) if p < 1.0 else -math.inf  # every gap is 1 at pair_prob 1
    log_long = window * log_miss  # log P(gap > window)
    q = -math.expm1(log_long)
    log_q = math.log1p(-math.exp(log_long))  # 0 when every gap is close
    # g = floor(log(u) / log P(counted)) and j - 1 = floor(log(u') / log(q)); when
    # q is 1, j is the cap, put in place of log(u') and divided by -1.  A log(q)
    # nearer 0 than -1e-300 (1 - q subnormal) is taken as -1e-300: every j with
    # u' > 0 then still passes the cap, and no quotient overflows
    scale = np.array([[counted.log_counted], [min(log_q, -1e-300) if log_q < 0.0 else -1.0]])
    # clusters of more than K pairs (a pair, then K close gaps, then a long
    # one), and their pairs, per slot
    super_units = p * q * q ** (largest - 1) * (1.0 - q)
    member_rate = p * q * q ** (largest - 1) * (largest + 1.0 - largest * q)
    room = n_slots - first  # a pair is in range if it lands less than room slots on
    last = -step  # compressed slot of the last member placed; the first lands on 0
    pairs = 1
    counted_pairs = 0
    blocks = [0] * counted.lengths.shape[1]  # of the pairs not placed, by length
    opens = 1  # how super-unit 0 of a batch opens; see _walk_units
    if largest > 1:  # super-unit 0's counted clusters, walked before any round
        g = int(min(math.log1p(-rng.random()) / counted.log_counted, room // (step + 1) + 2))
        if g:
            counted_in, tally, _, pairs_in, room = _walk_units(
                np.array([0, g + 1]), _NO_MEMBERS, _NO_MEMBERS, room, 1, counted, window, p, q, rng, g)
            pairs += pairs_in
            if counted_in:
                counted_pairs = counted_in + counted.pairs(tally)
                blocks = counted.blocks(tally, rng)
            if room is None:  # the range ends among them: no member is placed
                blocks[1] += int(rng.binomial(pairs - counted_pairs, eff))
                empty = np.empty(0, dtype=np.int64)
                return empty, empty.astype(bool), empty.astype(bool), pairs, blocks
            opens = 0  # the placed cluster follows a whole stretch
    slots: list[np.ndarray] = []
    to_a: list[np.ndarray] = []
    eff_draws: list[np.ndarray] = []
    while room is not None:
        batch = _batch_units(room * super_units, window)
        budget = max(_batch_units(room * member_rate, window), largest + 1)
        draws = rng.random((2, batch))
        np.negative(draws, out=draws)
        np.log1p(draws, out=draws)
        if log_q == 0.0:
            draws[1] = -budget
        draws /= scale
        # more than room // (step + 1) + 1 counted clusters pass the room
        np.minimum(draws[0], room // (step + 1) + 2, out=draws[0])
        np.minimum(draws[1], budget, out=draws[1])
        n_counted, count = draws.astype(np.int64)
        count += largest + 1  # members: a first pair and K + floor(...) close gaps
        head = opens == 2  # super-unit 0 holds only the rest of a cut cluster
        if head or not slots:  # or its counted clusters were walked before the first round
            n_counted[0] = 0
        if head:
            count[0] -= largest
        members = np.zeros(batch + 1, dtype=np.int64)
        count.cumsum(out=members[1:])
        # the batch ends with the first super-unit that passes budget - K - 1
        # members, and that one keeps at most the rest of the budget
        cut = int(members.searchsorted(budget - largest - 1, "right"))
        cut_open = False
        if cut <= batch:
            kept = min(int(count[cut - 1]), budget - int(members[cut - 1]))
            cut_open = kept < count[cut - 1]
            batch = cut
            n_counted, members = n_counted[:batch], members[:batch + 1]
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
        n_counted += 1  # clusters per super-unit: the counted ones and the placed one
        clusters = np.zeros(batch + 1, dtype=np.int64)
        n_counted.cumsum(out=clusters[1:])
        # a detector and an efficiency draw for every pair the batch's placed
        # clusters hold, so where the range ends changes none of them
        batch_to_a = rng.random(n_members) < params.herald_splitter_ratio
        batch_eff = rng.random(n_members) < eff if eff < 1.0 else np.ones(n_members, dtype=bool)
        counted_in, tally, placed, in_range, room = _walk_units(
            clusters, members, member_slots, room, opens, counted, window, p, q, rng)
        pairs += in_range
        opens = 2 if cut_open else 0
        if counted_in:
            counted_pairs += counted_in + counted.pairs(tally)
            blocks = list(map(operator.add, blocks, counted.blocks(tally, rng)))
        placed_slots = member_slots[:placed].astype(np.int64)
        placed_slots += last
        slots.append(placed_slots)
        to_a.append(batch_to_a[:placed])
        eff_draws.append(batch_eff[:placed])
        if placed:
            last = int(placed_slots[-1])
    placed_slots = np.concatenate(slots)
    # an isolated pair meets a live detector: it heralds with probability eff, a block of one
    blocks[1] += int(rng.binomial(pairs - placed_slots.size - counted_pairs, eff))
    return placed_slots, np.concatenate(to_a), np.concatenate(eff_draws), pairs, blocks


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
    clusters of one or two are settled in closed form.  They are nearly
    all the clusters of a source that places short ones, K = 1 or 2 (a
    window of more than 22 slots, or q <= 1e-6); at the paper's operating
    point (K = 5) a trial places a cluster about once in 600.  In a
    cluster of three or more the fired arrivals are the orbit of next(i)
    = the first arrival later than slot i + deadtime, started at the
    cluster's first arrival.  Only these clusters' arrivals are gathered,
    and their orbits are marked by pointer doubling, in log2(longest
    orbit) vector rounds.
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
    if not (is_int(n_slots) and 1 <= n_slots <= MAX_SLOTS):
        raise ValueError(f"n_slots must be an integer in 1..2**62 (got {n_slots!r})")
    pair_slots, to_a, eff_draws, pair_count, blocks = _sample_members(params, n_slots, rng)
    fired = _apply_deadtime(pair_slots, to_a, eff_draws, params.herald_deadtime_slots)
    return HeraldStream(
        n_slots=n_slots,
        pair_slots=pair_slots,
        to_detector_a=to_a,
        fired=fired,
        pair_count=pair_count,
        herald_count=int(fired.sum()) + sum(map(operator.mul, range(len(blocks)), blocks)),
        counted_blocks=np.array(blocks, dtype=np.int64),
    )


def herald_block_histogram(stream: HeraldStream) -> np.ndarray:
    """Blocks of consecutive heralds in a stream, counted by length.

    ``hist[L]`` is the number of maximal blocks of L consecutive heralds,
    so a greedy controller claims sum_L floor(L/n) * hist[L] runs of n,
    and sum_L L * hist[L] equals ``stream.herald_count``.  The blocks of
    the placed members are read from ``stream.herald_slots``; clusters lie
    at least two compressed slots apart, so no block spans two of them.
    The heralds that are only counted add their own blocks,
    ``stream.counted_blocks``.  ``hist`` has at least three entries;
    ``hist[0]`` is 0.
    """
    placed = stream.herald_slots
    counted = stream.counted_blocks
    if not placed.size:
        return counted.copy()
    # where each block starts, then one past the last herald
    starts = np.flatnonzero(np.concatenate(([2], placed[1:] - placed[:-1], [2])) > 1)
    hist = np.bincount(starts[1:] - starts[:-1], minlength=counted.size)
    hist[:counted.size] += counted
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
