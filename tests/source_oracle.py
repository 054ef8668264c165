"""Reference source that draws every pair: the oracle for ``photondemux.source``.

``dense_herald_stream`` places every pair slot by iid geometric gaps,
draws each pair's detector and efficiency outcome, and resolves the
deadtime with a per-cluster sequential scan.  It is slow (linear in
pairs, and a Python loop per cluster) but obviously exact.
The package's cluster-skipping sampler must agree with it in law, and
its deadtime resolver (closed form for clusters of one or two arrivals,
pointer doubling for longer ones) must agree with
``loop_two_detectors`` bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
