"""Scenario execution: full simulation runs, sweeps, and report emission.

A run walks the whole chain at pulse-slot resolution: generate the
heralded photon stream, detect runs of n consecutive heralds, route each
run's photons through the converter, count trigger and coincidence
rates, and invert the counting estimator for the conversion efficiency.

Trials execute on disjoint random substreams keyed by (grid index,
trial), and partial counts merge additively in trial order, so results
are byte-for-byte reproducible for a given (config, seed) regardless of
worker scheduling, and a sweep containing a single grid point reproduces
a plain run exactly.  Wall-clock time is kept out of written reports for
the same reason.
"""

from __future__ import annotations

import csv
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from .analytic import s_heralded, s_passive, s_unheralded_clocked
from .config import (
    Scenario,
    SweepGrid,
    apply_grid_point,
    config_digest,
    load_scenario,
    scenario_to_mapping,
)
from .controller import run_starts_from_heralds
# perfbench/spans.py looks these three names up on this module; routing
# itself goes through route_chunks, which calls the converter's own names
from .converter import route_chunks, route_clocked_batch, route_heralded_batch, route_passive_batch  # noqa: F401
from .measurement import count_rates, estimate_s
from .model import RoutingStrategy, SimulationReport
from .source import RngStream, generate_herald_stream

Progress = Callable[[str], None]


@dataclass
class _TrialCounts:
    """Additive per-trial tallies; merging is order-independent."""

    slots: int = 0
    heralds: int = 0
    triggers: int = 0
    coincidences: int = 0
    calib_trials: int = 0
    calib_detected: int = 0
    multi_pair_slots: int = 0
    port_counts: np.ndarray = field(default_factory=lambda: np.zeros((0, 0), dtype=np.int64))

    def merge(self, other: "_TrialCounts") -> None:
        self.slots += other.slots
        self.heralds += other.heralds
        self.triggers += other.triggers
        self.coincidences += other.coincidences
        self.calib_trials += other.calib_trials
        self.calib_detected += other.calib_detected
        self.multi_pair_slots += other.multi_pair_slots
        if self.port_counts.size == 0:
            self.port_counts = other.port_counts.copy()
        else:
            self.port_counts += other.port_counts


@dataclass(frozen=True)
class ExecutionResult:
    """A finished run: the report plus diagnostics that back it."""

    report: SimulationReport
    port_counts: np.ndarray  # (n, n): photon i detected at port j, over all triggers
    p_rel_error: float  # relative error of the delivered-photon probability used
    config_echo: dict


def _simulate_trial(scenario: Scenario, rng: RngStream) -> _TrialCounts:
    src = scenario.config.source
    conv = scenario.config.converter
    ctl = scenario.controls
    n = conv.n_modes
    gen = rng.generator()
    stream = generate_herald_stream(src, ctl.slots_per_trial, gen)
    herald_slots = stream.herald_slots
    starts = run_starts_from_heralds(herald_slots, n)
    counts = _TrialCounts(
        slots=ctl.slots_per_trial,
        heralds=int(herald_slots.size),
        triggers=int(starts.size),
        multi_pair_slots=stream.multi_pair_slot_count,
        port_counts=np.zeros((n, n), dtype=np.int64),
    )
    # an uncompensated herald/signal delay routes empty slots: the runs
    # trigger, but no photon is there to convert
    if ctl.herald_signal_offset_slots == 0:
        for batch in route_chunks(int(starts.size), conv, gen, src.signal_det_efficiency):
            counts.coincidences += batch.success_count
            counts.port_counts += batch.port_counts(detected_only=True)
    if ctl.calibration_mode and herald_slots.size:
        counts.calib_trials = int(herald_slots.size)
        counts.calib_detected = int(gen.binomial(herald_slots.size, src.signal_det_efficiency))
    return counts


def execute_scenario(scenario: Scenario, grid_index: int = 0, progress: "Progress | None" = None) -> ExecutionResult:
    """Run all trials of a scenario and assemble the report."""
    ctl = scenario.controls
    streams = [RngStream(ctl.seed, (grid_index, t)) for t in range(ctl.trials)]
    if ctl.workers > 1:
        with ThreadPoolExecutor(max_workers=ctl.workers) as pool:
            results = list(pool.map(lambda s: _simulate_trial(scenario, s), streams))
    else:
        results = []
        for t, s in enumerate(streams):
            results.append(_simulate_trial(scenario, s))
            if progress is not None:
                progress(f"trial {t + 1}/{ctl.trials}")
    total = _TrialCounts()
    for r in results:  # trial order, not completion order
        total.merge(r)
    src = scenario.config.source
    n = scenario.config.converter.n_modes
    if total.triggers == 0:
        hint = ""
        if n > 2 and src.herald_deadtime_slots >= 2:
            hint = (
                f" (with a {src.herald_deadtime_slots}-slot deadtime the two alternating"
                " detectors cannot herald runs longer than 2; use a deadtime of 0 or 1"
                " slots for longer runs)"
            )
        raise ValueError(
            f"no runs of {n} consecutive heralds occurred; increase slots_per_trial,"
            f" trials, or pair_prob{hint}"
        )
    c_n_rate, c_h_rate = count_rates(total.coincidences, total.triggers, total.slots, src.rep_rate_hz)
    if ctl.calibration_mode:
        if total.calib_detected == 0:
            raise ValueError(
                "calibration measured zero delivered photons; cannot form the estimator"
            )
        p_used = total.calib_detected / total.calib_trials
        p_rel = float(np.sqrt((1.0 - p_used) / total.calib_detected)) if p_used < 1.0 else 0.0
    else:
        p_used = src.signal_det_efficiency
        p_rel = 0.0
    s_est = estimate_s(
        c_n_rate,
        c_h_rate,
        p_used,
        n,
        coincidence_count=total.coincidences,
        trigger_count=total.triggers,
        p_rel_error=p_rel,
    )
    echo = scenario_to_mapping(scenario)
    report = SimulationReport(
        c_n_rate=c_n_rate,
        c_h_rate=c_h_rate,
        p_h1_eta_d=p_used,
        s_estimate=s_est,
        seed=ctl.seed,
        config_digest=config_digest(echo),
        slots_simulated=total.slots,
        coincidence_count=total.coincidences,
        trigger_count=total.triggers,
        herald_count=total.heralds,
        multi_pair_slots=total.multi_pair_slots,
    )
    return ExecutionResult(report=report, port_counts=total.port_counts,
                           p_rel_error=p_rel, config_echo=echo)


def report_to_mapping(result: ExecutionResult) -> dict:
    """Serializable report: every counted quantity plus the config echo.

    Wall time is deliberately absent so identical (config, seed) runs
    produce identical bytes.
    """
    rep = result.report
    return {
        "c_n_rate": rep.c_n_rate,
        "c_h_rate": rep.c_h_rate,
        "p_h1_eta_d": rep.p_h1_eta_d,
        "p_h1_eta_d_rel_error": result.p_rel_error,
        "s_estimate": {
            "value": rep.s_estimate.value,
            "std_error": rep.s_estimate.std_error,
            "method": rep.s_estimate.method.value,
        },
        "seed": rep.seed,
        "config_digest": rep.config_digest,
        "slots_simulated": rep.slots_simulated,
        "coincidence_count": rep.coincidence_count,
        "trigger_count": rep.trigger_count,
        "herald_count": rep.herald_count,
        "multi_pair_slots": rep.multi_pair_slots,
        "config": result.config_echo,
    }


def write_report(mapping: Mapping, out_path: "str | Path") -> None:
    Path(out_path).write_text(json.dumps(mapping, sort_keys=True, indent=2) + "\n")


def read_report(path: "str | Path") -> dict:
    return json.loads(Path(path).read_text())


def report_digest_matches(mapping: Mapping) -> bool:
    """Does a report's recorded digest match its own config echo?"""
    return config_digest(mapping["config"]) == mapping["config_digest"]


def _resolve(scenario: "Scenario | str | Path") -> Scenario:
    if isinstance(scenario, Scenario):
        return scenario
    return load_scenario(scenario)


def _override_controls(scenario: Scenario, seed, slots, trials, calibration_mode=None) -> Scenario:
    overrides: dict = {}
    if seed is not None:
        overrides["seed"] = seed
    if slots is not None:
        overrides["slots_per_trial"] = slots
    if trials is not None:
        overrides["trials"] = trials
    if calibration_mode is not None:
        overrides["calibration_mode"] = calibration_mode
    if not overrides:
        return scenario
    return Scenario(config=scenario.config, controls=scenario.controls.replace(**overrides),
                    sweep=scenario.sweep)


def run_simulation(
    scenario: "Scenario | str | Path",
    seed: "int | None" = None,
    slots: "int | None" = None,
    trials: "int | None" = None,
    out_path: "str | Path | None" = None,
    progress: "Progress | None" = None,
) -> dict:
    """Execute one scenario end to end; optionally write the JSON report."""
    sc = _override_controls(_resolve(scenario), seed, slots, trials)
    result = execute_scenario(sc, grid_index=0, progress=progress)
    mapping = report_to_mapping(result)
    if out_path is not None:
        write_report(mapping, out_path)
    return mapping


def run_calibrate(
    scenario: "Scenario | str | Path",
    seed: "int | None" = None,
    slots: "int | None" = None,
    trials: "int | None" = None,
    out_path: "str | Path | None" = None,
    progress: "Progress | None" = None,
) -> dict:
    """Measure the delivered-photon probability in a bypass run.

    Forces calibration mode: the per-herald delivered-and-detected
    probability is estimated from the stream itself (the way the
    experiment measures it with the router bypassed) and used in the
    estimator; the report's p value is the measured one.
    """
    sc = _override_controls(_resolve(scenario), seed, slots, trials, calibration_mode=True)
    return run_simulation(sc, out_path=out_path, progress=progress)


def run_sweep(
    scenario: "Scenario | str | Path",
    out_path: "str | Path | None" = None,
    seed: "int | None" = None,
    slots: "int | None" = None,
    trials: "int | None" = None,
    strategy: "RoutingStrategy | str | None" = None,
    progress: "Progress | None" = None,
) -> list[dict]:
    """Run every grid point of a scenario's sweep section.

    Each point is a full simulation, keyed by its grid index so that a
    single-point sweep equals a plain run of the same scenario.  Returns
    one row per point; optionally writes them as CSV with columns
    strategy, n, eta_sw, s_estimate, std_error.
    """
    sc = _override_controls(_resolve(scenario), seed, slots, trials)
    sweep = sc.sweep
    if strategy is not None:
        sweep = SweepGrid(strategies=(RoutingStrategy.parse(strategy),),
                          n_modes=sweep.n_modes, eta_sw=sweep.eta_sw)
    points = sweep.points()
    if not points:
        raise ValueError("sweep grid is empty")
    rows: list[dict] = []
    for index, point in enumerate(points):
        applied = apply_grid_point(Scenario(config=sc.config, controls=sc.controls, sweep=sweep), point)
        if progress is not None:
            progress(f"grid point {index + 1}/{len(points)}")
        result = execute_scenario(applied, grid_index=index)
        conv = applied.config.converter
        rows.append({
            "strategy": conv.strategy.value,
            "n": conv.n_modes,
            "eta_sw": conv.switching_efficiency,
            "s_estimate": result.report.s_estimate.value,
            "std_error": result.report.s_estimate.std_error,
        })
    if out_path is not None:
        with open(out_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["strategy", "n", "eta_sw", "s_estimate", "std_error"])
            writer.writeheader()
            for row in rows:
                writer.writerow({k: _cell(v) for k, v in row.items()})
    return rows


def _cell(value) -> str:
    # repr round-trips floats exactly; str() matches repr() for float
    return str(value)


def run_analytic(n_max: int, eta_sw: float, out_path: "str | Path | None" = None) -> list[dict]:
    """Closed-form efficiency table for n = 1..n_max at a given eta_sw.

    CSV columns n, heralded, clocked, passive; the clocked cell is empty
    at n = 1, where that strategy is undefined.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2 (got {n_max})")
    rows = [
        {
            "n": n,
            "heralded": s_heralded(n, eta_sw),
            "clocked": s_unheralded_clocked(n, eta_sw) if n >= 2 else None,
            "passive": s_passive(n),
        }
        for n in range(1, n_max + 1)
    ]
    if out_path is not None:
        with open(out_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["n", "heralded", "clocked", "passive"])
            writer.writeheader()
            for row in rows:
                writer.writerow({k: ("" if v is None else _cell(v)) for k, v in row.items()})
    return rows

