"""The four benchmark workloads: set-up, one repetition, output checks.

Each workload loads its scenario file from ``scenarios/`` with the
package's ``load_scenario``, applies the benchmark seed, and runs one
repetition through a public entry point:

- ``fixture``: ``run_calibrate`` at the paper's two-mode operating point
  (40 ns deadtime at 82 MHz), cut down to 8 trials of 2.5e8 slots.
- ``dense``: ``run_simulation`` on a p = 0.3 stream with a 4-slot
  deadtime, where nearly every arrival sits in a deadtime cluster.
- ``mc_table``: ``monte_carlo_efficiency`` over the 21-cell
  strategy x n x eta_sw table; ``run.trials`` is the trial count per cell.
- ``sweep``: ``run_sweep`` over 27 grid points with zero deadtime.

Every repetition of a workload uses the same seed, so every repetition
must produce the same bytes.  Entry points are looked up on their module
at call time, so that spans installed by ``spans.Tracer`` see the call.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from photondemux import converter, pipeline
from photondemux.analytic import s_heralded, s_passive, s_unheralded_clocked
from photondemux.config import Scenario, load_scenario
from photondemux.model import RoutingStrategy
from photondemux.source import RngStream

SCENARIOS = Path(__file__).resolve().parent / "scenarios"
Z_MAX = 5.0  # a correct estimate lies within 5 standard errors of its closed form


def closed_form(strategy: "RoutingStrategy | str", n: int, eta_sw: float) -> float:
    strategy = RoutingStrategy.parse(strategy)
    if strategy is RoutingStrategy.ACTIVE_HERALDED:
        return s_heralded(n, eta_sw)
    if strategy is RoutingStrategy.ACTIVE_CLOCKED:
        return s_unheralded_clocked(n, eta_sw)
    return s_passive(n)


def within_z(value: float, std_error: float, expected: float) -> bool:
    """Is an estimate within Z_MAX standard errors of the expected value?"""
    if std_error == 0.0:
        return value == expected
    return abs(value - expected) <= Z_MAX * std_error


def canonical(output) -> str:
    return json.dumps(output, sort_keys=True)


def _load(name: str, seed: int, **controls) -> Scenario:
    sc = load_scenario(SCENARIOS / f"{name}.json")
    return Scenario(config=sc.config, controls=sc.controls.replace(seed=seed, **controls),
                    sweep=sc.sweep)


class SingleRun:
    """One end-to-end scenario run; an operation is one of its trials."""

    def __init__(self, name: str, entry: str, seed: int, workers: int = 1):
        self.name = name
        self.entry = entry
        self.seed = seed
        self.scenario = _load(name, seed, workers=workers)
        self.outputs_per_rep = 1
        self.ops_per_output = self.scenario.controls.trials

    def with_workers(self, workers: int) -> "SingleRun":
        return SingleRun(self.name, self.entry, self.seed, workers)

    def run(self) -> list:
        return [getattr(pipeline, self.entry)(self.scenario)]

    def encode(self, outputs: list) -> list[str]:
        """Report bytes, less the worker count and the digest that covers it.

        Reports must not depend on the worker count; the echoed count, and
        so the digest, do by design.  ``check`` verifies the digest.
        """
        report = json.loads(canonical(outputs[0]))
        del report["config"]["run"]["workers"], report["config_digest"]
        return [canonical(report)]

    def check(self, outputs: list) -> list[bool]:
        conv = self.scenario.config.converter
        expected = conv.transmittance ** conv.n_modes * math.prod(conv.port_efficiencies)
        report = outputs[0]
        est = report["s_estimate"]
        return [est["std_error"] > 0.0
                and within_z(est["value"], est["std_error"], expected)
                and pipeline.report_digest_matches(report)]


class MonteCarloTable:
    """The closed-form Monte Carlo table; an operation is one cell.

    Passive routing ignores eta_sw, so it has one cell per n, at 1.0.
    """

    name = "mc_table"
    ops_per_output = 1

    def __init__(self, seed: int):
        sc = _load(self.name, seed)
        self.seed = seed
        self.trials = sc.controls.trials
        grid = sc.sweep
        self.cells = [(s, n, eta) for s in grid.strategies for n in grid.n_modes
                      for eta in (grid.eta_sw if s is not RoutingStrategy.PASSIVE_BEAMSPLITTER else (1.0,))]
        self.outputs_per_rep = len(self.cells)

    def run(self) -> list:
        return [list(converter.monte_carlo_efficiency(s, n, eta, self.trials, RngStream(self.seed, (i,))))
                for i, (s, n, eta) in enumerate(self.cells)]

    def encode(self, outputs: list) -> list[str]:
        return [canonical(out) for out in outputs]

    def check(self, outputs: list) -> list[bool]:
        return [within_z(freq, se, closed_form(*cell))
                for cell, (freq, se) in zip(self.cells, outputs)]


class Sweep:
    """A 27-point ``run_sweep``; an operation is one grid point.

    Points whose standard error is reported as 0 are not checked against
    the closed form; the traced run counts them instead.
    """

    name = "sweep"
    ops_per_output = 1

    def __init__(self, seed: int):
        self.scenario = _load(self.name, seed)
        self.outputs_per_rep = len(self.scenario.sweep.points())

    def run(self) -> list:
        return pipeline.run_sweep(self.scenario)

    def encode(self, outputs: list) -> list[str]:
        return [canonical(out) for out in outputs]

    def check(self, outputs: list) -> list[bool]:
        return [row["std_error"] == 0.0
                or within_z(row["s_estimate"], row["std_error"],
                            closed_form(row["strategy"], row["n"], row["eta_sw"]))
                for row in outputs]


NAMES = ("fixture", "dense", "mc_table", "sweep")


def make(name: str, seed: int):
    """Set up a workload: load and validate its scenario, apply the seed."""
    if name == "fixture":
        return SingleRun("fixture", "run_calibrate", seed)
    if name == "dense":
        return SingleRun("dense", "run_simulation", seed)
    if name == "mc_table":
        return MonteCarloTable(seed)
    if name == "sweep":
        return Sweep(seed)
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(NAMES)}")
