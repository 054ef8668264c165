"""Routing of signal-photon runs to output ports, three ways.

Active heralded routing drives the switches from the heralding signals
themselves: photon j is steered toward port j, survives the converter
optics with probability t (lumped, once per traversal), and given
survival exits its designated port with probability eta_j, else a
uniformly random other port.  Success for the conversion tally means
photon j is *detected at port j*: coincidence gating is time aligned, so
a photon on the wrong port falls outside its bin and never fakes a
success.  The expected success rate is therefore t^n * prod(eta_i).

Active clocked routing ignores the photons and cycles with a divided
clock: photon j is scheduled for port (j + offset) mod n with the run's
phase offset uniform in 0..n-1, and reaches the scheduled port with the
composite probability eta_sw.  Conversion succeeds only when the phase
happens to be aligned and no photon strays.

Passive routing sends each photon out a uniformly random port (ideal
lossless splitter), succeeding when every photon happens to pick its own
designated port: (1/n)^n.

Each strategy routes a batch of many independent runs at once and
returns a :class:`RoutingBatch`; a single run is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ConverterParams, RoutingStrategy
from .source import RngStream

_LOST = -1


def _as_generator(rng: "RngStream | np.random.Generator") -> np.random.Generator:
    return rng.generator() if isinstance(rng, RngStream) else rng


@dataclass(frozen=True)
class RoutingBatch:
    """Vectorized outcome of many independent n-photon runs.

    ``ports[k, j]`` is the port photon j of run k left on (-1 when lost
    in the converter optics); ``detected[k, j]`` whether that photon's
    detector fired.  ``scheduled[k, j]`` is the port the router aimed
    photon j at, which is what misroute statistics condition on.
    """

    n_modes: int
    scheduled: np.ndarray  # (runs, n) int16
    ports: np.ndarray  # (runs, n) int16, _LOST when absorbed
    detected: np.ndarray  # (runs, n) bool

    def __len__(self) -> int:
        return self.ports.shape[0]

    @property
    def success_mask(self) -> np.ndarray:
        """Runs where every photon j was detected at port j."""
        designated = np.arange(self.n_modes, dtype=self.ports.dtype)
        return ((self.ports == designated) & self.detected).all(axis=1)

    @property
    def success_count(self) -> int:
        return int(self.success_mask.sum())

    @property
    def lost_per_run(self) -> np.ndarray:
        return (self.ports == _LOST).sum(axis=1)

    def port_counts(self, detected_only: bool = True) -> np.ndarray:
        """(n, n) table: entry [i, j] counts photon i seen on port j."""
        n = self.n_modes
        counts = np.zeros((n, n), dtype=np.int64)
        for i in range(n):
            col = self.ports[:, i]
            keep = col >= 0
            if detected_only:
                keep &= self.detected[:, i]
            counts[i] = np.bincount(col[keep], minlength=n)
        return counts


def _misroute(ports: np.ndarray, stray: np.ndarray, n: int, rng: np.random.Generator) -> None:
    """Send strayed photons to a uniform port other than their scheduled one.

    With a single output there is no other port; a strayed photon leaves
    the designated mode entirely and counts as lost.
    """
    m = int(stray.sum())
    if m == 0:
        return
    if n == 1:
        ports[stray] = _LOST
        return
    scheduled = ports[stray]
    other = rng.integers(0, n - 1, size=m, dtype=np.int16)
    ports[stray] = other + (other >= scheduled)


def route_heralded_batch(
    runs: int,
    params: ConverterParams,
    rng: "RngStream | np.random.Generator",
    signal_det_efficiency: float = 1.0,
) -> RoutingBatch:
    """Route ``runs`` independent heralded n-photon runs."""
    if params.strategy is not RoutingStrategy.ACTIVE_HERALDED:
        raise ValueError(f"heralded routing called with strategy {params.strategy.value!r}")
    rng = _as_generator(rng)
    n = params.n_modes
    scheduled = np.broadcast_to(np.arange(n, dtype=np.int16), (runs, n))
    ports = np.tile(np.arange(n, dtype=np.int16), (runs, 1))
    t = params.transmittance
    survived = rng.random((runs, n)) < t if t < 1.0 else np.ones((runs, n), dtype=bool)
    eta = np.asarray(params.port_efficiencies)
    stray = survived & (rng.random((runs, n)) >= eta)
    _misroute(ports, stray, n, rng)
    ports[~survived] = _LOST
    arrived = ports >= 0
    eta_d = signal_det_efficiency
    detected = arrived & (rng.random((runs, n)) < eta_d) if eta_d < 1.0 else arrived
    return RoutingBatch(n_modes=n, scheduled=scheduled, ports=ports, detected=detected)


def route_clocked_batch(
    runs: int,
    params: ConverterParams,
    rng: "RngStream | np.random.Generator",
    clock_offsets: "np.ndarray | int | None" = None,
    signal_det_efficiency: float = 1.0,
) -> RoutingBatch:
    """Route ``runs`` clocked n-photon runs.

    ``clock_offsets`` may be a per-run array, a single shared offset, or
    None to draw each run's phase uniformly (the physical situation: the
    divided clock free-runs relative to photon arrivals).
    """
    if params.strategy is not RoutingStrategy.ACTIVE_CLOCKED:
        raise ValueError(f"clocked routing called with strategy {params.strategy.value!r}")
    rng = _as_generator(rng)
    n = params.n_modes
    if n < 2:
        raise ValueError("clocked routing needs n_modes >= 2")
    if clock_offsets is None:
        offsets = rng.integers(0, n, size=runs, dtype=np.int16)
    else:
        offsets = np.broadcast_to(np.asarray(clock_offsets, dtype=np.int16), (runs,))
        if offsets.size and (offsets.min() < 0 or offsets.max() >= n):
            raise ValueError(f"clock offsets must lie in 0..{n - 1}")
    scheduled = (np.arange(n, dtype=np.int16) + offsets[:, None]).astype(np.int16) % n
    ports = scheduled.copy()
    eta_sw = params.switching_efficiency
    stray = rng.random((runs, n)) >= eta_sw
    _misroute(ports, stray, n, rng)
    eta_d = signal_det_efficiency
    if eta_d < 1.0:
        detected = rng.random((runs, n)) < eta_d
    else:
        detected = np.ones((runs, n), dtype=bool)
    return RoutingBatch(n_modes=n, scheduled=scheduled, ports=ports, detected=detected)


def route_passive_batch(
    runs: int,
    n_modes: int,
    rng: "RngStream | np.random.Generator",
    signal_det_efficiency: float = 1.0,
) -> RoutingBatch:
    """Route ``runs`` runs through an ideal lossless 1-to-n splitter."""
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1 (got {n_modes})")
    rng = _as_generator(rng)
    ports = rng.integers(0, n_modes, size=(runs, n_modes), dtype=np.int16)
    eta_d = signal_det_efficiency
    if eta_d < 1.0:
        detected = rng.random((runs, n_modes)) < eta_d
    else:
        detected = np.ones((runs, n_modes), dtype=bool)
    scheduled = np.broadcast_to(np.arange(n_modes, dtype=np.int16), (runs, n_modes))
    return RoutingBatch(n_modes=n_modes, scheduled=scheduled, ports=ports, detected=detected)


def monte_carlo_efficiency(
    strategy: "RoutingStrategy | str",
    n_modes: int,
    eta_sw: float,
    trials: int,
    rng: "RngStream | np.random.Generator",
    chunk: int = 1 << 20,
) -> tuple[float, float]:
    """Empirical conversion efficiency over ``trials`` independent runs.

    Returns (success frequency, binomial standard error).  ``eta_sw`` is
    realized as ideal transmittance with every port efficiency equal to
    eta_sw for the heralded strategy, so the misroute path is exercised;
    the clocked strategy consumes it directly; passive ignores it.
    Trials are processed in chunks and merged additively, so the total
    only ever grows by independent increments.
    """
    strategy = RoutingStrategy.parse(strategy)
    if trials < 1:
        raise ValueError(f"trials must be >= 1 (got {trials})")
    rng = _as_generator(rng)
    if strategy is RoutingStrategy.ACTIVE_HERALDED:
        params = ConverterParams(n_modes=n_modes, strategy=strategy,
                                 port_efficiencies=(eta_sw,) * n_modes)
    elif strategy is RoutingStrategy.ACTIVE_CLOCKED:
        params = ConverterParams(n_modes=n_modes, strategy=strategy, transmittance=eta_sw)
    else:
        params = None
    successes = 0
    remaining = trials
    while remaining > 0:
        m = min(remaining, chunk)
        if strategy is RoutingStrategy.ACTIVE_HERALDED:
            batch = route_heralded_batch(m, params, rng)
        elif strategy is RoutingStrategy.ACTIVE_CLOCKED:
            batch = route_clocked_batch(m, params, rng)
        else:
            batch = route_passive_batch(m, n_modes, rng)
        successes += batch.success_count
        remaining -= m
    freq = successes / trials
    std_error = float(np.sqrt(freq * (1.0 - freq) / trials))
    return freq, std_error
