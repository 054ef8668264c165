"""Scenario files: parsing, run overrides, normalization, and provenance digests.

A scenario file is a single JSON document with up to four sections::

    {
      "source":    { ... SourceParams fields ... },
      "converter": { ... ConverterParams fields ... },
      "run":       { seed, slots_per_trial, trials, calibration_mode,
                     workers },
      "sweep":     { strategy: [...], n_modes: [...], eta_sw: [...] }
    }

Only "source" and "converter" are required.  The deadtime may be given
as ``herald_deadtime_s`` (seconds, converted to whole slots) or
``herald_deadtime_slots``.  Every run section key has a default, so the
minimal file is just the physics.

:func:`scenario_from_mapping` builds all four sections in one pass and
raises a single :class:`ConfigError` listing every violation of every
section, each prefixed with its section: an unknown key, a missing
required key (``source.rep_rate_hz: missing key``) or a field the value
type refuses.  Overrides of the run section (:func:`override_controls`)
go through the same checks.

The config digest is a SHA-256 over the *normalized* configuration
(defaults filled in, deadtime in slots, strategy lowercased), so key
order in the file never matters while any value change, the seed
included, produces a new digest.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Mapping

from .model import (
    MAX_SLOTS,
    ConfigError,
    ConverterParams,
    RoutingStrategy,
    SimulationConfig,
    SourceParams,
    deadtime_to_slots,
    is_int,
    is_real,
)


@dataclass(frozen=True)
class RunControls:
    """Execution knobs that do not change the physics being simulated.

    Defaults give 8 x 10^7 slots, enough to push the statistical error
    on a two-mode estimate below 0.01 at experiment-like rates.
    """

    seed: int = 0
    slots_per_trial: int = 10_000_000
    trials: int = 8
    calibration_mode: bool = False
    workers: int = 1

    def __post_init__(self) -> None:
        violations: list[str] = []
        if not (is_int(self.seed) and 0 <= self.seed < 2**64):
            violations.append(f"seed: expected a 64-bit unsigned integer (got {self.seed!r})")
        if not (is_int(self.slots_per_trial) and self.slots_per_trial >= 1):
            violations.append(f"slots_per_trial: expected integer >= 1 (got {self.slots_per_trial!r})")
        elif self.slots_per_trial > MAX_SLOTS:
            violations.append(f"slots_per_trial: expected at most 2**62 (got {self.slots_per_trial!r})")
        if not (is_int(self.trials) and self.trials >= 1):
            violations.append(f"trials: expected integer >= 1 (got {self.trials!r})")
        if not isinstance(self.calibration_mode, bool):
            violations.append(f"calibration_mode: expected true or false (got {self.calibration_mode!r})")
        if not (is_int(self.workers) and self.workers >= 1):
            violations.append(f"workers: expected integer >= 1 (got {self.workers!r})")
        if violations:
            raise ConfigError(violations)

    def replace(self, **overrides: object) -> "RunControls":
        return dataclasses.replace(self, **overrides)


@dataclass(frozen=True)
class SweepGrid:
    """Cartesian parameter grid for a sweep; empty axes keep base values.

    ``eta_sw`` points are realized as a lossless converter whose
    transmittance equals the requested composite switching efficiency.
    """

    strategies: tuple[RoutingStrategy, ...] = ()
    n_modes: tuple[int, ...] = ()
    eta_sw: tuple[float, ...] = ()

    def points(self) -> list[tuple["RoutingStrategy | None", "int | None", "float | None"]]:
        axes = (
            self.strategies or (None,),
            self.n_modes or (None,),
            self.eta_sw or (None,),
        )
        return list(itertools.product(*axes))


@dataclass(frozen=True)
class Scenario:
    """A fully validated scenario: physics, run controls, optional sweep."""

    config: SimulationConfig
    controls: RunControls
    sweep: SweepGrid = SweepGrid()


def _build_sweep(raw: Mapping, violations: list[str]) -> SweepGrid:
    axes = {"strategy": [], "n_modes": [], "eta_sw": []}
    for key, values in raw.items():
        if key not in axes:
            violations.append(f"sweep.{key}: unknown key")
        elif not isinstance(values, (list, tuple)):
            violations.append(f"sweep.{key}: expected a list (got {values!r})")
        else:
            axes[key] = values
    try:
        strategies = tuple(RoutingStrategy.parse(s) for s in axes["strategy"])
    except ConfigError as err:
        violations.extend("sweep." + v for v in err.violations)
        strategies = ()
    n_modes = tuple(axes["n_modes"])
    for n in n_modes:
        if not (is_int(n) and n >= 1):
            violations.append(f"sweep.n_modes: expected integers >= 1 (got {n!r})")
    eta_sw: list[float] = []
    for v in axes["eta_sw"]:
        if not (is_real(v) and 0.0 <= v <= 1.0):
            violations.append(f"sweep.eta_sw: expected values in 0..1 (got {v!r})")
        else:
            eta_sw.append(float(v))
    return SweepGrid(strategies=strategies, n_modes=n_modes, eta_sw=tuple(eta_sw))


def _build_section(name: str, cls: type, raw: Mapping, violations: list[str]):
    """Build dataclass ``cls`` from section ``name``, or append its violations and give None.

    Every key must name a field of ``cls``, and every field without a
    default must be given.  A missing field is passed as None, so the
    given ones are still checked; its own complaint is dropped.
    """
    fields = dataclasses.fields(cls)
    known = {f.name for f in fields}
    missing = [f.name for f in fields if f.default is dataclasses.MISSING and f.name not in raw]
    violations.extend(f"{name}.{key}: unknown key" for key in raw if key not in known)
    violations.extend(f"{name}.{key}: missing key" for key in missing)
    kwargs = {key: value for key, value in raw.items() if key in known}
    try:
        built = cls(**kwargs, **dict.fromkeys(missing))
    except ConfigError as err:
        violations.extend(f"{name}.{v}" for v in err.violations if v.partition(":")[0] not in missing)
        return None
    return None if missing else built


def _build_source(raw: Mapping, violations: list[str]) -> "SourceParams | None":
    """The source section; a deadtime in seconds is first turned into slots."""
    kwargs = dict(raw)
    if "herald_deadtime_s" in kwargs:
        seconds = kwargs.pop("herald_deadtime_s")
        if "herald_deadtime_slots" in kwargs:
            violations.append("source.herald_deadtime_s: give deadtime in seconds or slots, not both")
        elif "rep_rate_hz" in kwargs:  # else the builder reports the missing rate
            try:
                kwargs["herald_deadtime_slots"] = deadtime_to_slots(seconds, kwargs["rep_rate_hz"])
            except ConfigError as err:
                violations.extend("source." + v for v in err.violations)
    return _build_section("source", SourceParams, kwargs, violations)


_SECTIONS = {
    "source": _build_source,
    "converter": partial(_build_section, "converter", ConverterParams),
    "run": partial(_build_section, "run", RunControls),
    "sweep": _build_sweep,
}


def scenario_from_mapping(raw: Mapping) -> Scenario:
    """Validate a parsed config document, listing every violation of every section."""
    violations = [f"{key}: unknown section" for key in raw if key not in _SECTIONS]
    built = {}
    for name, build in _SECTIONS.items():
        section = raw.get(name, {})
        if name not in raw and name in ("source", "converter"):
            violations.append(f"{name}: missing section")
        elif not isinstance(section, Mapping):
            violations.append(f"{name}: expected a mapping")
        else:
            built[name] = build(section, violations)
    if violations:
        # a bad rate beside a deadtime in seconds is reported by the conversion and the source
        raise ConfigError(list(dict.fromkeys(violations)))
    try:
        config = SimulationConfig(source=built["source"], converter=built["converter"])
    except ConfigError as err:
        raise ConfigError([f"converter.{v}" for v in err.violations]) from None
    return Scenario(config=config, controls=built["run"], sweep=built["sweep"])


def override_controls(scenario: Scenario, **overrides: object) -> Scenario:
    """``scenario`` with the run keys given (not None) replaced, checked as a run section."""
    given = {key: value for key, value in overrides.items() if value is not None}
    violations: list[str] = []
    raw = {**dataclasses.asdict(scenario.controls), **given}
    controls = _build_section("run", RunControls, raw, violations)
    if violations:
        raise ConfigError(violations)
    return dataclasses.replace(scenario, controls=controls)


def load_scenario(path: "str | Path") -> Scenario:
    """Load and validate a scenario file, with parse-position diagnostics."""
    text = Path(path).read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError([f"{path}: parse error at line {err.lineno} column {err.colno}: {err.msg}"]) from None
    if not isinstance(raw, Mapping):
        raise ConfigError([f"{path}: top level must be a mapping"])
    return scenario_from_mapping(raw)


def _echo_fields(params: object) -> dict:
    """Every dataclass field of ``params``, as a JSON value."""
    doc = {}
    for f in dataclasses.fields(params):
        value = getattr(params, f.name)
        if isinstance(value, RoutingStrategy):
            value = value.value
        elif isinstance(value, tuple):
            value = list(value)
        doc[f.name] = value
    return doc


def scenario_to_mapping(scenario: Scenario) -> dict:
    """Normalized echo of a scenario (defaults filled, units canonical)."""
    doc: dict = {
        "source": _echo_fields(scenario.config.source),
        "converter": _echo_fields(scenario.config.converter),
        "run": _echo_fields(scenario.controls),
    }
    sweep = scenario.sweep
    if sweep.strategies or sweep.n_modes or sweep.eta_sw:
        doc["sweep"] = {
            "strategy": [s.value for s in sweep.strategies],
            "n_modes": list(sweep.n_modes),
            "eta_sw": list(sweep.eta_sw),
        }
    return doc


def config_digest(config_echo: Mapping) -> str:
    """SHA-256 of the normalized config; any value change changes it."""
    doc = {k: (dict(v) if isinstance(v, Mapping) else v) for k, v in config_echo.items()}
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def apply_grid_point(
    scenario: Scenario,
    point: tuple["RoutingStrategy | None", "int | None", "float | None"],
) -> Scenario:
    """Override (strategy, n_modes, eta_sw) on a base scenario.

    An eta_sw override rebuilds the converter as lossless with
    transmittance = eta_sw (ideal ports), the composite the closed forms
    are written in; None entries keep the base converter's values.
    """
    strategy, n_modes, eta_sw = point
    conv = scenario.config.converter
    new_strategy = strategy or conv.strategy
    new_n = n_modes or conv.n_modes
    if eta_sw is None:
        transmittance = conv.transmittance
        ports = conv.port_efficiencies if new_n == conv.n_modes else (1.0,) * new_n
    else:
        transmittance = eta_sw
        ports = (1.0,) * new_n
    converter = ConverterParams(
        n_modes=new_n,
        strategy=new_strategy,
        transmittance=transmittance,
        port_efficiencies=ports,
    )
    config = SimulationConfig(source=scenario.config.source, converter=converter)
    return Scenario(config=config, controls=scenario.controls, sweep=SweepGrid())
