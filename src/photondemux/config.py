"""Config files: loading, normalization, and provenance digests.

A scenario file is a single JSON document with up to four sections::

    {
      "source":    { ... SourceParams fields ... },
      "converter": { ... ConverterParams fields ... },
      "run":       { seed, slots_per_trial, trials, calibration_mode,
                     workers, herald_signal_offset_slots },
      "sweep":     { strategy: [...], n_modes: [...], eta_sw: [...] }
    }

Only "source" and "converter" are required.  The deadtime may be given
as ``herald_deadtime_s`` (seconds, converted to whole slots) or
``herald_deadtime_slots``.  Every run section key has a default, so the
minimal file is just the physics.

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
from pathlib import Path
from typing import Mapping

from .model import (
    ConfigError,
    ConverterParams,
    RoutingStrategy,
    SimulationConfig,
    SourceParams,
    is_int,
    validate_config,
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
    herald_signal_offset_slots: int = 0

    def __post_init__(self) -> None:
        violations: list[str] = []
        if not (is_int(self.seed) and 0 <= self.seed < 2**64):
            violations.append(f"run.seed: expected a 64-bit unsigned integer (got {self.seed!r})")
        if not (is_int(self.slots_per_trial) and self.slots_per_trial >= 1):
            violations.append(f"run.slots_per_trial: expected integer >= 1 (got {self.slots_per_trial!r})")
        if not (is_int(self.trials) and self.trials >= 1):
            violations.append(f"run.trials: expected integer >= 1 (got {self.trials!r})")
        if not isinstance(self.calibration_mode, bool):
            violations.append(f"run.calibration_mode: expected true or false (got {self.calibration_mode!r})")
        if not (is_int(self.workers) and self.workers >= 1):
            violations.append(f"run.workers: expected integer >= 1 (got {self.workers!r})")
        if not is_int(self.herald_signal_offset_slots):
            violations.append(
                f"run.herald_signal_offset_slots: expected integer (got {self.herald_signal_offset_slots!r})"
            )
        if violations:
            raise ConfigError(violations)

    def replace(self, **overrides: object) -> "RunControls":
        return dataclasses.replace(self, **overrides)


_RUN_DEFAULTS: dict[str, object] = {f.name: f.default for f in dataclasses.fields(RunControls)}


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


def _build_controls(raw: Mapping, violations: list[str]) -> RunControls:
    kwargs = dict(_RUN_DEFAULTS)
    for key, value in raw.items():
        if key not in _RUN_DEFAULTS:
            violations.append(f"run.{key}: unknown key")
        else:
            kwargs[key] = value
    try:
        return RunControls(**kwargs)  # type: ignore[arg-type]
    except ConfigError as err:
        violations.extend(err.violations)
        return RunControls()


def _build_sweep(raw: Mapping, violations: list[str]) -> SweepGrid:
    known = {"strategy", "n_modes", "eta_sw"}
    for key in raw:
        if key not in known:
            violations.append(f"sweep.{key}: unknown key")
    try:
        strategies = tuple(RoutingStrategy.parse(s) for s in raw.get("strategy", ()))
    except ConfigError as err:
        violations.extend("sweep." + v for v in err.violations)
        strategies = ()
    n_modes = tuple(raw.get("n_modes", ()))
    for n in n_modes:
        if not (is_int(n) and n >= 1):
            violations.append(f"sweep.n_modes: expected integers >= 1 (got {n!r})")
    eta_sw: list[float] = []
    for v in raw.get("eta_sw", ()):
        if not (isinstance(v, (int, float)) and 0.0 <= v <= 1.0):
            violations.append(f"sweep.eta_sw: expected values in 0..1 (got {v!r})")
        else:
            eta_sw.append(float(v))
    return SweepGrid(strategies=strategies, n_modes=n_modes, eta_sw=tuple(eta_sw))


def scenario_from_mapping(raw: Mapping) -> Scenario:
    """Validate a parsed config document, collecting every violation."""
    violations: list[str] = []
    known = {"source", "converter", "run", "sweep"}
    for key in raw:
        if key not in known:
            violations.append(f"{key}: unknown section")
    for section in ("source", "converter"):
        if section not in raw:
            violations.append(f"{section}: missing section")
        elif not isinstance(raw[section], Mapping):
            violations.append(f"{section}: expected a mapping")
    run_raw = raw.get("run", {})
    if isinstance(run_raw, Mapping):
        controls = _build_controls(run_raw, violations)
    else:
        violations.append("run: expected a mapping")
        controls = RunControls()
    sweep_raw = raw.get("sweep", {})
    if isinstance(sweep_raw, Mapping):
        sweep = _build_sweep(sweep_raw, violations)
    else:
        violations.append("sweep: expected a mapping")
        sweep = SweepGrid()
    if violations:
        raise ConfigError(violations)
    config = validate_config(raw["source"], raw["converter"])
    return Scenario(config=config, controls=controls, sweep=sweep)


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


def scenario_to_mapping(scenario: Scenario) -> dict:
    """Normalized echo of a scenario (defaults filled, units canonical)."""
    src = scenario.config.source
    conv = scenario.config.converter
    ctl = scenario.controls
    doc: dict = {
        "source": {
            "pair_prob": src.pair_prob,
            "rep_rate_hz": src.rep_rate_hz,
            "herald_det_efficiency": src.herald_det_efficiency,
            "herald_deadtime_slots": src.herald_deadtime_slots,
            "herald_splitter_ratio": src.herald_splitter_ratio,
            "signal_det_efficiency": src.signal_det_efficiency,
            "multi_pair_enabled": src.multi_pair_enabled,
        },
        "converter": {
            "n_modes": conv.n_modes,
            "strategy": conv.strategy.value,
            "transmittance": conv.transmittance,
            "port_efficiencies": list(conv.port_efficiencies),
        },
        "run": {key: getattr(ctl, key) for key in _RUN_DEFAULTS},
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
