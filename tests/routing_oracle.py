"""Reference routers: the oracles for ``photondemux.converter``.

``route_heralded_runs``, ``route_clocked_runs`` and ``route_passive_runs``
draw, per run and per photon, the port it leaves on and whether its
detector fired, and return a :class:`RunBatch` of (runs, n) arrays.
They are slow (linear in runs) but follow the physical description
photon by photon.  The package's count-level routers must agree with
them in law: the same landing table and the same success count.

``reference_laws`` builds the per-photon landing laws of the count-level
routers with whole-array numpy operations, one ``np.roll`` per clocked
phase; ``reference_count_route`` draws from them through the converter's
own ``_count_runs``.  The package's routers must match these bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from photondemux.converter import _count_runs
from photondemux.model import ConverterParams, RoutingStrategy

LOST = -1


@dataclass(frozen=True)
class RunBatch:
    """Per-run outcome of many independent n-photon runs.

    ``ports[k, j]`` is the port photon j of run k left on (-1 when lost
    in the converter optics); ``detected[k, j]`` whether that photon's
    detector fired.  ``scheduled[k, j]`` is the port the router aimed
    photon j at, which is what misroute statistics condition on.
    """

    n_modes: int
    scheduled: np.ndarray  # (runs, n) int16
    ports: np.ndarray  # (runs, n) int16, LOST when absorbed
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
        return (self.ports == LOST).sum(axis=1)

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

    def landing_counts(self) -> np.ndarray:
        """(n, n + 2) table: detected on each port, lost in the optics, arrived undetected."""
        lost = (self.ports == LOST).sum(axis=0)
        undetected = ((self.ports >= 0) & ~self.detected).sum(axis=0)
        return np.column_stack([self.port_counts(detected_only=True), lost, undetected])


def _misroute(ports: np.ndarray, stray: np.ndarray, n: int, rng: np.random.Generator) -> None:
    """Send strayed photons to a uniform port other than their scheduled one.

    With a single output there is no other port; a strayed photon leaves
    the designated mode entirely and counts as lost.
    """
    m = int(stray.sum())
    if m == 0:
        return
    if n == 1:
        ports[stray] = LOST
        return
    scheduled = ports[stray]
    other = rng.integers(0, n - 1, size=m, dtype=np.int16)
    ports[stray] = other + (other >= scheduled)


def _detect(arrived: np.ndarray, eta_d: float, rng: np.random.Generator) -> np.ndarray:
    return arrived & (rng.random(arrived.shape) < eta_d) if eta_d < 1.0 else arrived


def route_heralded_runs(runs: int, params: ConverterParams, rng: np.random.Generator,
                        signal_det_efficiency: float = 1.0) -> RunBatch:
    """Route ``runs`` independent heralded n-photon runs, photon by photon."""
    if params.strategy is not RoutingStrategy.ACTIVE_HERALDED:
        raise ValueError(f"heralded routing called with strategy {params.strategy.value!r}")
    n = params.n_modes
    scheduled = np.broadcast_to(np.arange(n, dtype=np.int16), (runs, n))
    ports = np.tile(np.arange(n, dtype=np.int16), (runs, 1))
    survived = rng.random((runs, n)) < params.transmittance
    stray = survived & (rng.random((runs, n)) >= np.asarray(params.port_efficiencies))
    _misroute(ports, stray, n, rng)
    ports[~survived] = LOST
    detected = _detect(ports >= 0, signal_det_efficiency, rng)
    return RunBatch(n_modes=n, scheduled=scheduled, ports=ports, detected=detected)


def route_clocked_runs(runs: int, params: ConverterParams, rng: np.random.Generator,
                       clock_offsets: "np.ndarray | int | None" = None,
                       signal_det_efficiency: float = 1.0) -> RunBatch:
    """Route ``runs`` clocked n-photon runs, photon by photon.

    ``clock_offsets`` may be a per-run array, a single shared offset, or
    None to draw each run's phase uniformly (the physical situation: the
    divided clock free-runs relative to photon arrivals).
    """
    if params.strategy is not RoutingStrategy.ACTIVE_CLOCKED:
        raise ValueError(f"clocked routing called with strategy {params.strategy.value!r}")
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
    stray = rng.random((runs, n)) >= params.switching_efficiency
    _misroute(ports, stray, n, rng)
    detected = _detect(np.ones((runs, n), dtype=bool), signal_det_efficiency, rng)
    return RunBatch(n_modes=n, scheduled=scheduled, ports=ports, detected=detected)


def route_passive_runs(runs: int, params: ConverterParams, rng: np.random.Generator,
                       signal_det_efficiency: float = 1.0) -> RunBatch:
    """Route ``runs`` runs through an ideal lossless 1-to-n splitter, photon by photon."""
    if params.strategy is not RoutingStrategy.PASSIVE_BEAMSPLITTER:
        raise ValueError(f"passive routing called with strategy {params.strategy.value!r}")
    n_modes = params.n_modes
    ports = rng.integers(0, n_modes, size=(runs, n_modes), dtype=np.int16)
    detected = _detect(np.ones((runs, n_modes), dtype=bool), signal_det_efficiency, rng)
    scheduled = np.broadcast_to(np.arange(n_modes, dtype=np.int16), (runs, n_modes))
    return RunBatch(n_modes=n_modes, scheduled=scheduled, ports=ports, detected=detected)


def landing_law(on_port: np.ndarray, eta_d: float) -> np.ndarray:
    """(n, n + 2) per-photon law from where photons land.

    ``on_port[i, j]`` is the probability photon i reaches port j; the rest
    of its row is lost in the optics.  Each arrival is then detected with
    probability ``eta_d``.
    """
    arrived = on_port.sum(axis=1)
    lost = np.maximum(1.0 - arrived, 0.0)  # rounding may leave -1e-16
    return np.column_stack([on_port * eta_d, lost, arrived * (1.0 - eta_d)])


def aimed(n: int, hit: "float | Sequence[float]") -> np.ndarray:
    """(n, n) landing law of photons aimed at port i, each on it with ``hit[i]``.

    A strayed photon takes a uniform other port; with a single port there
    is none, so it leaves the designated mode and counts as lost.
    """
    hit = np.broadcast_to(np.asarray(hit, dtype=float), (n,))
    on_port = np.repeat(((1.0 - hit) / max(n - 1, 1))[:, None], n, axis=1)
    np.fill_diagonal(on_port, hit)
    return on_port


def reference_laws(params: ConverterParams, signal_det_efficiency: float = 1.0) -> list[np.ndarray]:
    """The per-photon laws a count router routes with, one per clock phase when clocked."""
    n = params.n_modes
    if params.strategy is RoutingStrategy.ACTIVE_HERALDED:
        return [landing_law(params.transmittance * aimed(n, params.port_efficiencies), signal_det_efficiency)]
    if params.strategy is RoutingStrategy.ACTIVE_CLOCKED:
        aligned = aimed(n, params.switching_efficiency)
        return [landing_law(np.roll(aligned, phase, axis=1), signal_det_efficiency) for phase in range(n)]
    return [landing_law(np.full((n, n), 1.0 / n), signal_det_efficiency)]


def reference_count_route(runs: int, params: ConverterParams, rng: np.random.Generator,
                          signal_det_efficiency: float = 1.0) -> tuple[np.ndarray, int]:
    """Landing counts and success count of ``runs`` runs, drawn from ``reference_laws``.

    Clocked runs first split into phase groups by a Multinomial(runs, 1/n, ...) draw.
    """
    laws = reference_laws(params, signal_det_efficiency)
    n = params.n_modes
    clocked = params.strategy is RoutingStrategy.ACTIVE_CLOCKED
    groups = rng.multinomial(runs, np.full(n, 1.0 / n)) if clocked else [runs]
    return _count_runs(groups, laws, rng)
