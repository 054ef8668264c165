"""Shared domain types for the photon-stream demultiplexing simulator.

Everything in this module is a passive, validated value object: source and
converter parameter sets and efficiency estimates.  All types are
immutable after construction and safe to share between concurrent trial
workers.

Validation happens eagerly in ``__post_init__`` so that an out-of-range
field can never propagate into a simulation.  :func:`validate_config`
additionally accepts raw mappings (e.g. a parsed config file), collects
*all* violations instead of failing on the first one, and normalizes a
deadtime given in seconds to whole pulse slots.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass
from typing import Mapping, Sequence


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
        if violations:
            raise ConfigError(violations)

    @property
    def slot_duration_s(self) -> float:
        return 1.0 / self.rep_rate_hz


@dataclass(frozen=True)
class ConverterParams:
    """Geometry and quality of the serial-to-parallel converter.

    A converter with ``n_modes`` outputs uses ``n_modes - 1`` routers.
    ``transmittance`` is the lumped probability a photon survives the
    converter optics; ``port_efficiencies[i]`` is the probability photon i
    is routed to output i *given* it survived.  The clocked strategy only
    sees the composite ``switching_efficiency``.
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
        _check_prob("transmittance", self.transmittance, violations)
        ports = tuple(float(p) if is_real(p) else p for p in self.port_efficiencies)
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
    def n_routers(self) -> int:
        return self.n_modes - 1

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

    A trigger is a run of ``converter.n_modes`` consecutive heralds.
    """

    source: SourceParams
    converter: ConverterParams


_SOURCE_KEYS = {f.name for f in dataclasses.fields(SourceParams)} | {"herald_deadtime_s"}
_CONVERTER_KEYS = {f.name for f in dataclasses.fields(ConverterParams)}


def _build_source(raw: Mapping, violations: list[str]) -> SourceParams | None:
    kwargs = dict(raw)
    for key in raw:
        if key not in _SOURCE_KEYS:
            violations.append(f"source.{key}: unknown key")
            kwargs.pop(key)
    rate = kwargs.get("rep_rate_hz", 0.0)
    if "herald_deadtime_s" in kwargs:
        seconds = kwargs.pop("herald_deadtime_s")
        if "herald_deadtime_slots" in kwargs:
            violations.append("source.herald_deadtime_s: give deadtime in seconds or slots, not both")
        else:
            try:
                kwargs["herald_deadtime_slots"] = deadtime_to_slots(seconds, rate)
            except ConfigError as err:
                violations.extend("source." + v for v in err.violations)
    if "port_efficiencies" in kwargs:  # catches a common misplacement
        violations.append("source.port_efficiencies: belongs to the converter section")
        return None
    try:
        return SourceParams(**kwargs)
    except ConfigError as err:
        violations.extend("source." + v for v in err.violations)
    except TypeError as err:
        violations.append(f"source: {err}")
    return None


def _build_converter(raw: Mapping, violations: list[str]) -> ConverterParams | None:
    kwargs = dict(raw)
    for key in raw:
        if key not in _CONVERTER_KEYS:
            violations.append(f"converter.{key}: unknown key")
            kwargs.pop(key)
    try:
        return ConverterParams(**kwargs)
    except ConfigError as err:
        violations.extend("converter." + v for v in err.violations)
    except TypeError as err:
        violations.append(f"converter: {err}")
    return None


def validate_config(
    source: "SourceParams | Mapping",
    converter: "ConverterParams | Mapping",
) -> SimulationConfig:
    """Build a validated simulation configuration.

    Accepts already-constructed parameter objects or raw mappings (parsed
    from a config file).  Mapping input is normalized field by field,
    converting ``herald_deadtime_s`` to slots, and every violation is
    collected before a single :class:`ConfigError` is raised, so a bad
    file reports all of its problems at once.
    """
    violations: list[str] = []
    if isinstance(source, Mapping):
        source = _build_source(source, violations)
    if isinstance(converter, Mapping):
        converter = _build_converter(converter, violations)
    if violations:
        raise ConfigError(violations)
    assert source is not None and converter is not None
    return SimulationConfig(source=source, converter=converter)
