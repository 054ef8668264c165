"""Scenario execution: full simulation runs, sweeps, and their JSON and CSV writers.

A run walks the whole chain at pulse-slot resolution: generate the
heralded photon stream, count its runs of n consecutive heralds from
the lengths of its herald blocks (floor(L/n) runs per block of L), route
the runs' photons through the converter as counts, count trigger and
coincidence rates, and invert the counting estimator for the conversion
efficiency.
``execute_scenario`` turns the merged counts into the report mapping and
adds the config echo and its digest; ``run_sweep`` reads its rows from
the counts alone.  The entry points take a validated ``Scenario`` and
return a value, a report mapping or a list of CSV rows; they write
nothing.
``write_report`` and ``write_rows`` serialize those values to a path or
an open text stream.

A trial draws only its source stream, on the random substream keyed by
(grid index, trial); it builds its generator from that key where it
runs and returns the stream's herald-block histogram.  The histograms
add in trial order, and the grid point's routing and calibration draws
then come from the substream keyed by (grid index,), which no trial key
equals.  So results are byte-for-byte reproducible for a given (config,
seed) regardless of worker scheduling, and a sweep containing a single
grid point reproduces a plain run exactly.  Wall-clock time is kept out
of written reports for the same reason.
"""

from __future__ import annotations

import csv
import json
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from functools import partial
from pathlib import Path
from typing import Callable, Mapping, TextIO

import numpy as np

from .analytic import s_heralded, s_passive, s_unheralded_clocked
from .config import (
    Scenario,
    SweepGrid,
    apply_grid_point,
    config_digest,
    override_controls,
    scenario_to_mapping,
)
from .converter import route_runs
from .measurement import count_rates, estimate_s
from .model import ConfigError, RoutingStrategy
from .source import RngStream, expected_peak_bytes, generate_herald_stream, herald_block_histogram

# bound only for perfbench/spans.py, whose TARGETS look these names up on this
# module; the pipeline counts triggers with herald_block_histogram and routes
# through route_runs
from .converter import route_clocked_batch, route_heralded_batch, route_passive_batch  # noqa: F401
from .source import run_starts_from_heralds  # noqa: F401

Progress = Callable[[str], None]


def _simulate_trial(scenario: Scenario, grid_index: int, trial: int) -> np.ndarray:
    """Herald-block histogram of one trial's stream, drawn on key (grid index, trial)."""
    ctl = scenario.controls
    gen = RngStream(ctl.seed, (grid_index, trial)).generator()
    return herald_block_histogram(generate_herald_stream(scenario.config.source, ctl.slots_per_trial, gen))


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


def _count_scenario(scenario: Scenario, grid_index: int, progress: "Progress | None" = None) -> dict:
    """Run all trials of a scenario and return the counted part of its report.

    The trials' herald-block histograms add up; the runs they hold are
    then routed, and the calibration draw made, once for the grid point.
    That has the law of doing both trial by trial: independent
    multinomial rows of one law add to one row, the success count over a
    union of iid runs is the hypergeometric chain over that union, and a
    sum of Binomial(H_t, p) draws is Binomial(sum H_t, p).
    """
    _check_memory(scenario)
    ctl = scenario.controls
    src = scenario.config.source
    conv = scenario.config.converter
    n = conv.n_modes
    hist = np.zeros(0, dtype=np.int64)
    run = partial(_simulate_trial, scenario, grid_index)
    chunk = 4 * ctl.workers  # trials queued at once
    with (ThreadPoolExecutor(max_workers=ctl.workers) if ctl.workers > 1 else nullcontext()) as pool:
        trial_map = map if pool is None else pool.map
        for first in range(0, ctl.trials, chunk):
            # both maps yield in trial order, not completion order
            for t, trial_hist in enumerate(trial_map(run, range(first, min(first + chunk, ctl.trials))), first):
                if trial_hist.size > hist.size:  # pad to the longer histogram
                    hist, trial_hist = trial_hist, hist
                hist[:trial_hist.size] += trial_hist
                if progress is not None:
                    progress(f"trial {t + 1}/{ctl.trials}")
    lengths = np.arange(hist.size)
    heralds = int(hist @ lengths)
    triggers = int(hist @ (lengths // n))  # floor(L/n) runs per block of L heralds
    if triggers == 0:
        raise ValueError(
            f"no runs of {n} consecutive heralds occurred; increase slots_per_trial,"
            " trials, or pair_prob"
        )
    gen = RngStream(ctl.seed, (grid_index,)).generator()
    batch = route_runs(triggers, conv, gen, src.signal_det_efficiency)
    slots = ctl.trials * ctl.slots_per_trial
    c_n_rate, c_h_rate = count_rates(batch.success_count, triggers, slots, src.rep_rate_hz)
    if ctl.calibration_mode:
        detected = int(gen.binomial(heralds, src.signal_det_efficiency))
        if detected == 0:
            raise ValueError(
                "calibration measured zero delivered photons; cannot form the estimator"
            )
        p_used = detected / heralds
        p_rel = float(np.sqrt((1.0 - p_used) / detected)) if p_used < 1.0 else 0.0
    else:
        p_used = src.signal_det_efficiency
        p_rel = 0.0
    s_est = estimate_s(
        c_n_rate,
        c_h_rate,
        p_used,
        n,
        coincidence_count=batch.success_count,
        trigger_count=triggers,
        p_rel_error=p_rel,
    )
    return {
        "c_n_rate": c_n_rate,
        "c_h_rate": c_h_rate,
        "p_h1_eta_d": p_used,
        "p_h1_eta_d_rel_error": p_rel,
        "s_estimate": {"value": s_est.value, "std_error": s_est.std_error, "method": "counting_pipeline"},
        "seed": ctl.seed,
        "slots_simulated": slots,
        "coincidence_count": batch.success_count,
        "trigger_count": triggers,
        "herald_count": heralds,
        "port_counts": batch.port_counts.tolist(),
    }


def execute_scenario(scenario: Scenario, grid_index: int = 0, progress: "Progress | None" = None) -> dict:
    """Run all trials of a scenario and build its report mapping.

    The report holds every counted quantity and the config echo.  Wall
    time is deliberately absent so identical (config, seed) runs produce
    identical bytes.
    """
    report = _count_scenario(scenario, grid_index, progress)
    echo = scenario_to_mapping(scenario)
    return {**report, "config_digest": config_digest(echo), "config": echo}


def _sink(out: "str | Path | TextIO"):
    """``out`` itself if it is an open text stream, else ``out`` opened for writing."""
    return nullcontext(out) if hasattr(out, "write") else open(out, "w", newline="")


def write_report(mapping: Mapping, out: "str | Path | TextIO") -> None:
    """Write a report as indented, key-sorted JSON and a final newline."""
    with _sink(out) as fh:
        fh.write(json.dumps(mapping, sort_keys=True, indent=2) + "\n")


def write_rows(rows: "list[dict]", out: "str | Path | TextIO") -> None:
    """Write rows as CSV, the first row's keys as header; None is an empty cell, lines end in LF."""
    with _sink(out) as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def report_digest_matches(mapping: Mapping) -> bool:
    """Does a report's recorded digest match its own config echo?"""
    return config_digest(mapping["config"]) == mapping["config_digest"]


def run_simulation(scenario: Scenario, progress: "Progress | None" = None) -> dict:
    """Execute one scenario end to end and return its report mapping."""
    return execute_scenario(scenario, grid_index=0, progress=progress)


def run_calibrate(scenario: Scenario, progress: "Progress | None" = None) -> dict:
    """Measure the delivered-photon probability in a bypass run.

    Forces calibration mode: the per-herald delivered-and-detected
    probability is estimated from the stream itself (the way the
    experiment measures it with the router bypassed) and used in the
    estimator; the report's p value is the measured one.
    """
    return run_simulation(override_controls(scenario, calibration_mode=True), progress=progress)


def run_sweep(
    scenario: Scenario,
    strategy: "RoutingStrategy | str | None" = None,
    progress: "Progress | None" = None,
) -> list[dict]:
    """Run every grid point of a scenario's sweep section.

    Each point is a full simulation, keyed by its grid index so that a
    single-point sweep equals a plain run of the same scenario; a row is
    read from the point's counts, with no config echo or digest built.
    Every point is applied before the first one runs, so a point the
    converter or the heralding arm cannot serve fails the sweep before
    any simulation.  Returns one row per point, with keys strategy, n,
    eta_sw, s_estimate, std_error.
    """
    sweep = scenario.sweep
    if strategy is not None:
        sweep = SweepGrid(strategies=(RoutingStrategy.parse(strategy),),
                          n_modes=sweep.n_modes, eta_sw=sweep.eta_sw)
    try:
        scenarios = [apply_grid_point(scenario, point) for point in sweep.points()]
    except ConfigError as err:
        raise ConfigError([f"sweep.{v}" for v in err.violations]) from None
    rows: list[dict] = []
    for index, applied in enumerate(scenarios):
        if progress is not None:
            progress(f"grid point {index + 1}/{len(scenarios)}")
        estimate = _count_scenario(applied, index)["s_estimate"]
        conv = applied.config.converter
        rows.append({
            "strategy": conv.strategy.value,
            "n": conv.n_modes,
            "eta_sw": conv.switching_efficiency,
            "s_estimate": estimate["value"],
            "std_error": estimate["std_error"],
        })
    return rows


def run_analytic(n_max: int, eta_sw: float) -> list[dict]:
    """Closed-form efficiency table for n = 1..n_max at a given eta_sw.

    Keys n, heralded, clocked, passive; the clocked cell is None at
    n = 1, where that strategy is undefined.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2 (got {n_max})")
    return [
        {
            "n": n,
            "heralded": s_heralded(n, eta_sw),
            "clocked": s_unheralded_clocked(n, eta_sw) if n >= 2 else None,
            "passive": s_passive(n),
        }
        for n in range(1, n_max + 1)
    ]
