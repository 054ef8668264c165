"""Slot-indexed photon stream of a heralded pair source.

The pump emits one pulse per slot; a slot carries a photon pair with
probability ``pair_prob``.  Each idler is split 50:50 (configurable) onto
one of two heralding detectors; a live detector registers it with
probability ``herald_det_efficiency`` and then goes blind for
``herald_deadtime_slots`` slots (non-paralyzable: arrivals during the
blind window neither fire nor extend it).  Two alternating detectors are
what make *consecutive* heralds possible at all when the deadtime spans
several pulse slots.

Pair slots are generated sparsely (geometric inter-arrival gaps), so tens
of billions of slots are tractable as long as the pair rate is realistic.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .model import SourceParams


@dataclass(frozen=True)
class RngStream:
    """Deterministic, splittable random stream.

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

    def substream(self, *index: int) -> "RngStream":
        return RngStream(self.master_seed, self.stream_index + tuple(index))


@dataclass(frozen=True)
class HeraldStream:
    """Sparse view of a generated slot range: only pair slots are stored.

    ``pair_slots`` is sorted and unique.  ``fired`` marks pairs whose
    idler was registered by its heralding detector; ``herald_slots`` is
    therefore also sorted.  ``double_pair`` flags slots carrying a second
    pair (diagnostics only; the extra photon never feeds the estimator).
    """

    n_slots: int
    pair_slots: np.ndarray  # int64, sorted
    to_detector_a: np.ndarray  # bool, per pair
    fired: np.ndarray  # bool, per pair
    double_pair: np.ndarray  # bool, per pair

    @property
    def herald_slots(self) -> np.ndarray:
        return self.pair_slots[self.fired]

    @property
    def herald_a_slots(self) -> np.ndarray:
        return self.pair_slots[self.fired & self.to_detector_a]

    @property
    def herald_b_slots(self) -> np.ndarray:
        return self.pair_slots[self.fired & ~self.to_detector_a]

    @property
    def multi_pair_slot_count(self) -> int:
        return int(self.double_pair.sum())


def _sample_pair_slots(pair_prob: float, n_slots: int, rng: np.random.Generator) -> np.ndarray:
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


def _apply_deadtime(slots: np.ndarray, eff_draws: np.ndarray, deadtime: int) -> np.ndarray:
    """Which arrivals fire, under detection efficiency and deadtime.

    An arrival fires iff its efficiency draw succeeded and the detector is
    live, i.e. more than ``deadtime`` slots have passed since its last
    *fire* (failed draws do not blind).  Arrivals separated from their
    predecessor by more than the deadtime are trivially live, so only
    clusters of close-spaced arrivals need the sequential scan.
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


def generate_herald_stream(params: SourceParams, n_slots: int, rng: np.random.Generator) -> HeraldStream:
    """Run the source and heralding arm over ``n_slots`` pulse slots."""
    if n_slots < 1:
        raise ValueError(f"n_slots must be >= 1 (got {n_slots})")
    pair_slots = _sample_pair_slots(params.pair_prob, n_slots, rng)
    m = len(pair_slots)
    to_a = rng.random(m) < params.herald_splitter_ratio
    if params.multi_pair_enabled:
        double = rng.random(m) < params.pair_prob  # second pair, joint prob pair_prob**2
    else:
        double = np.zeros(m, dtype=bool)
    eff = params.herald_det_efficiency
    eff_draws = rng.random(m) < eff if eff < 1.0 else np.ones(m, dtype=bool)
    fired = np.zeros(m, dtype=bool)
    d = params.herald_deadtime_slots
    fired[to_a] = _apply_deadtime(pair_slots[to_a], eff_draws[to_a], d)
    fired[~to_a] = _apply_deadtime(pair_slots[~to_a], eff_draws[~to_a], d)
    return HeraldStream(
        n_slots=n_slots,
        pair_slots=pair_slots,
        to_detector_a=to_a,
        fired=fired,
        double_pair=double,
    )


def herald_probability(params: SourceParams) -> float:
    """Per-slot herald probability, neglecting deadtime.

    Calibration helper: the product pair_prob * herald_det_efficiency is
    the rate knob that sets the n-run trigger rate.
    """
    return params.pair_prob * params.herald_det_efficiency
