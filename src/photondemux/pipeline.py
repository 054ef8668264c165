"""Scenario execution: full simulation runs, sweeps, and report emission.

A run walks the whole chain at pulse-slot resolution: generate the
heralded photon stream, detect runs of n consecutive heralds, route each
run's photons through the converter, count trigger and coincidence
rates, and invert the counting estimator for the conversion efficiency.
``execute_scenario`` turns the merged counts straight into the report
mapping; every entry point writes or reads that mapping.

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
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, fields
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
    override_controls,
    scenario_to_mapping,
)
from .controller import run_starts_from_heralds
# perfbench/spans.py looks the three route_*_batch names up on this module;
# routing itself goes through route_runs, which calls the converter's own names
from .converter import route_clocked_batch, route_heralded_batch, route_passive_batch, route_runs  # noqa: F401
from .measurement import count_rates, estimate_s
from .model import ConfigError, RoutingStrategy
from .source import RngStream, expected_peak_bytes, generate_herald_stream

Progress = Callable[[str], None]


@dataclass
class _TrialCounts:
    """Additive per-trial tallies; merging is order-independent."""

    port_counts: np.ndarray  # (n, n) int64: photon i detected at port j
    slots: int = 0
    heralds: int = 0
    triggers: int = 0
    coincidences: int = 0
    calib_trials: int = 0
    calib_detected: int = 0

    def merge(self, other: "_TrialCounts") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


def _simulate_trial(scenario: Scenario, rng: RngStream) -> _TrialCounts:
    src = scenario.config.source
    conv = scenario.config.converter
    ctl = scenario.controls
    n = conv.n_modes
    gen = rng.generator()
    stream = generate_herald_stream(src, ctl.slots_per_trial, gen)
    triggers = int(run_starts_from_heralds(stream.herald_slots, n).size)
    if n == 1:  # a herald outside every cluster is a run of one
        triggers += stream.herald_count - int(stream.fired.sum())
    batch = route_runs(triggers, conv, gen, src.signal_det_efficiency)
    counts = _TrialCounts(batch.port_counts, slots=ctl.slots_per_trial, heralds=stream.herald_count,
                          triggers=triggers, coincidences=batch.success_count)
    if ctl.calibration_mode and stream.herald_count:
        counts.calib_trials = stream.herald_count
        counts.calib_detected = int(gen.binomial(stream.herald_count, src.signal_det_efficiency))
    return counts


def _check_memory(scenario: Scenario) -> None:
    """Refuse, before any trial runs, a run whose streams would not fit in memory."""
    ctl = scenario.controls
    at_once = min(ctl.workers, ctl.trials)
    need = expected_peak_bytes(scenario.config.source, ctl.slots_per_trial) * at_once
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ConfigError([
            f"run: {at_once} concurrent trial(s) of {ctl.slots_per_trial} slots need about"
            f" {need:.3g} bytes of herald-stream arrays, more than the {have:.3g} bytes of"
            " physical memory; lower slots_per_trial (adding trials instead) or workers"
        ])


def execute_scenario(scenario: Scenario, grid_index: int = 0, progress: "Progress | None" = None) -> dict:
    """Run all trials of a scenario and build its report mapping.

    The report holds every counted quantity and the config echo.  Wall
    time is deliberately absent so identical (config, seed) runs produce
    identical bytes.
    """
    _check_memory(scenario)
    ctl = scenario.controls
    src = scenario.config.source
    n = scenario.config.converter.n_modes
    streams = [RngStream(ctl.seed, (grid_index, t)) for t in range(ctl.trials)]
    total = _TrialCounts(np.zeros((n, n), dtype=np.int64))
    with (ThreadPoolExecutor(max_workers=ctl.workers) if ctl.workers > 1 else nullcontext()) as pool:
        trial_map = map if pool is None else pool.map
        # both maps yield in trial order, not completion order
        for t, counts in enumerate(trial_map(lambda s: _simulate_trial(scenario, s), streams)):
            total.merge(counts)
            if progress is not None:
                progress(f"trial {t + 1}/{ctl.trials}")
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
    return {
        "c_n_rate": c_n_rate,
        "c_h_rate": c_h_rate,
        "p_h1_eta_d": p_used,
        "p_h1_eta_d_rel_error": p_rel,
        "s_estimate": {"value": s_est.value, "std_error": s_est.std_error, "method": "counting_pipeline"},
        "seed": ctl.seed,
        "config_digest": config_digest(echo),
        "slots_simulated": total.slots,
        "coincidence_count": total.coincidences,
        "trigger_count": total.triggers,
        "herald_count": total.heralds,
        "port_counts": total.port_counts.tolist(),
        "config": echo,
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


def run_simulation(
    scenario: "Scenario | str | Path",
    seed: "int | None" = None,
    slots: "int | None" = None,
    trials: "int | None" = None,
    out_path: "str | Path | None" = None,
    progress: "Progress | None" = None,
) -> dict:
    """Execute one scenario end to end; optionally write the JSON report."""
    sc = override_controls(_resolve(scenario), seed=seed, slots_per_trial=slots, trials=trials)
    mapping = execute_scenario(sc, grid_index=0, progress=progress)
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
    sc = override_controls(_resolve(scenario), seed=seed, slots_per_trial=slots, trials=trials,
                           calibration_mode=True)
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
    sc = override_controls(_resolve(scenario), seed=seed, slots_per_trial=slots, trials=trials)
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
        estimate = execute_scenario(applied, grid_index=index)["s_estimate"]
        conv = applied.config.converter
        rows.append({
            "strategy": conv.strategy.value,
            "n": conv.n_modes,
            "eta_sw": conv.switching_efficiency,
            "s_estimate": estimate["value"],
            "std_error": estimate["std_error"],
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

