"""Shared domain types for the photon-stream demultiplexing simulator.

Everything in this module is a passive, validated value object: source and
converter parameter sets and efficiency estimates.  All types are
immutable after construction and safe to share between concurrent trial
workers.

Validation happens eagerly in ``__post_init__`` so that an out-of-range
field can never propagate into a simulation; each type collects all of
its violations into one :class:`ConfigError`.  Reading a scenario file
into these types is :mod:`photondemux.config`'s job.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence


class ConfigError(ValueError):
    """Raised when a configuration is invalid.

    ``violations`` holds one human-readable message per offending field so
    a caller can report every problem in a file at once.
    """

    def __init__(self, violations: Sequence[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class RoutingStrategy(enum.Enum):
    """How the converter decides where each photon of a run goes."""

    ACTIVE_HERALDED = "heralded"
    ACTIVE_CLOCKED = "clocked"
    PASSIVE_BEAMSPLITTER = "passive"

    @classmethod
    def parse(cls, name: "str | RoutingStrategy") -> "RoutingStrategy":
        if isinstance(name, cls):
            return name
        try:
            return cls(str(name).lower())
        except ValueError:
            valid = ", ".join(s.value for s in cls)
            raise ConfigError([f"strategy: unknown value {name!r} (expected one of {valid})"]) from None


def is_int(value: object) -> bool:
    """An integer config value; ``bool`` is an ``int`` subclass but not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_real(value: object) -> bool:
    """A numeric config value: an ``int`` or ``float``, but not a ``bool``."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# largest slot count or deadtime in slots: the sampler sums slot offsets in int64
MAX_SLOTS = 2**62


def _check_prob(name: str, value: float, violations: list[str]) -> None:
    if not (is_real(value) and math.isfinite(value) and 0.0 <= value <= 1.0):
        violations.append(f"{name}: probability out of range (got {value!r}, expected 0..1)")


def deadtime_to_slots(deadtime_s: float, rep_rate_hz: float) -> int:
    """Convert a detector deadtime in seconds to whole pulse slots.

    The detector is blind for any slot that overlaps the deadtime window,
    so the duration is rounded *up*; a tiny relative epsilon absorbs
    binary-float fuzz when the product is an exact integer.
    """
    if not (is_real(deadtime_s) and math.isfinite(deadtime_s) and deadtime_s >= 0):
        raise ConfigError([f"herald_deadtime_s: expected a finite number >= 0 (got {deadtime_s!r})"])
    if not (is_real(rep_rate_hz) and math.isfinite(rep_rate_hz) and rep_rate_hz > 0):
        raise ConfigError([f"rep_rate_hz: expected a finite number > 0 (got {rep_rate_hz!r})"])
    v = deadtime_s * rep_rate_hz
    return int(math.ceil(v - 1e-9 * max(1.0, abs(v))))


@dataclass(frozen=True)
class SourceParams:
    """Pulsed pair source plus its two-detector heralding arm.

    ``pair_prob`` is the probability per pump pulse of emitting one photon
    pair.  The idler goes to heralding detector A with probability
    ``herald_splitter_ratio`` (else B); a live detector registers it with
    probability ``herald_det_efficiency`` and is then blind for
    ``herald_deadtime_slots`` subsequent slots (non-paralyzable).
    ``signal_det_efficiency`` is the per-photon detection probability at
    every output detector; only its product with the heralded one-photon
    probability is observable, so calibration folds both into it.
    """

    pair_prob: float
    rep_rate_hz: float
    herald_det_efficiency: float = 1.0
    herald_deadtime_slots: int = 0
    herald_splitter_ratio: float = 0.5
    signal_det_efficiency: float = 1.0

    def __post_init__(self) -> None:
        violations: list[str] = []
        _check_prob("pair_prob", self.pair_prob, violations)
        _check_prob("herald_det_efficiency", self.herald_det_efficiency, violations)
        _check_prob("herald_splitter_ratio", self.herald_splitter_ratio, violations)
        _check_prob("signal_det_efficiency", self.signal_det_efficiency, violations)
        if not (is_real(self.rep_rate_hz) and math.isfinite(self.rep_rate_hz) and self.rep_rate_hz > 0):
            violations.append(f"rep_rate_hz: expected a finite number > 0 (got {self.rep_rate_hz!r})")
        if not (is_int(self.herald_deadtime_slots) and self.herald_deadtime_slots >= 0):
            violations.append(
                f"herald_deadtime_slots: expected nonnegative integer (got {self.herald_deadtime_slots!r})"
            )
        elif self.herald_deadtime_slots > MAX_SLOTS:
            violations.append(
                f"herald_deadtime_slots: expected at most 2**62 (got {self.herald_deadtime_slots!r})"
            )
        if violations:
            raise ConfigError(violations)


@dataclass(frozen=True)
class ConverterParams:
    """Geometry and quality of the serial-to-parallel converter.

    A converter with ``n_modes`` outputs uses ``n_modes - 1`` routers.
    ``transmittance`` is the lumped probability a photon survives the
    converter optics; ``port_efficiencies[i]`` is the probability photon i
    is routed to output i *given* it survived.  The clocked strategy only
    sees the composite ``switching_efficiency``, and needs two or more modes.
    """

    n_modes: int
    strategy: RoutingStrategy = RoutingStrategy.ACTIVE_HERALDED
    transmittance: float = 1.0
    port_efficiencies: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        violations: list[str] = []
        if not (is_int(self.n_modes) and self.n_modes >= 1):
            violations.append(f"n_modes: expected integer >= 1 (got {self.n_modes!r})")
        try:
            object.__setattr__(self, "strategy", RoutingStrategy.parse(self.strategy))
        except ConfigError as err:
            # keep collecting; the construction fails below either way
            violations.extend(err.violations)
            object.__setattr__(self, "strategy", RoutingStrategy.ACTIVE_HERALDED)
        if self.strategy is RoutingStrategy.ACTIVE_CLOCKED and is_int(self.n_modes) and self.n_modes == 1:
            violations.append("n_modes: clocked routing needs n_modes >= 2 (got 1)")
        _check_prob("transmittance", self.transmittance, violations)
        ports = self.port_efficiencies
        if not isinstance(ports, (list, tuple)):
            violations.append(f"port_efficiencies: expected a list (got {ports!r})")
            ports = ()
        ports = tuple(float(p) if is_real(p) else p for p in ports)
        if not ports and is_int(self.n_modes) and self.n_modes >= 1:
            ports = (1.0,) * self.n_modes  # ideal routers unless stated otherwise
        object.__setattr__(self, "port_efficiencies", ports)
        for i, p in enumerate(ports):
            _check_prob(f"port_efficiencies[{i}]", p, violations)
        if is_int(self.n_modes) and self.n_modes >= 1 and len(ports) != self.n_modes:
            violations.append(
                f"port_efficiencies: expected {self.n_modes} entries, got {len(ports)}"
            )
        if violations:
            raise ConfigError(violations)

    @property
    def switching_efficiency(self) -> float:
        """Composite probability of routing one photon to its designated mode."""
        return self.transmittance * (sum(self.port_efficiencies) / len(self.port_efficiencies))


@dataclass(frozen=True)
class EfficiencyEstimate:
    """A conversion-efficiency value with its standard error."""

    value: float
    std_error: float

    def __post_init__(self) -> None:
        violations: list[str] = []
        if not math.isfinite(self.value):
            violations.append(f"value: not finite ({self.value!r})")
        if not (math.isfinite(self.std_error) and self.std_error >= 0.0):
            violations.append(f"std_error: expected >= 0 (got {self.std_error!r})")
        if violations:
            raise ConfigError(violations)


@dataclass(frozen=True)
class SimulationConfig:
    """A validated (source, converter) pair.

    A trigger is a run of ``converter.n_modes`` consecutive heralds; a
    pair whose heralding arm cannot herald that many in a row is refused.
    A detector is blind for the deadtime after it fires, so at a deadtime
    of one slot or more a lone detector (splitter ratio 0 or 1) never
    heralds two slots in a row, and at two slots or more two alternating
    detectors herald at most two in a row.
    """

    source: SourceParams
    converter: ConverterParams

    def __post_init__(self) -> None:
        n, d = self.converter.n_modes, self.source.herald_deadtime_slots
        ratio = self.source.herald_splitter_ratio
        if d >= 1 and ratio in (0.0, 1.0) and n >= 2:
            why = (f"with a {d}-slot deadtime and herald_splitter_ratio {ratio} one detector"
                   " takes every idler and never heralds two slots in a row; use a deadtime of 0 slots")
        elif d >= 2 and n >= 3:
            why = (f"with a {d}-slot deadtime the two alternating detectors herald at most 2 in a row;"
                   " use a deadtime of 0 or 1 slots")
        else:
            return
        raise ConfigError([f"n_modes: no run of {n} consecutive heralds can occur: {why}"])

