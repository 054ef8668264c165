"""Full-system gates for the conversion toolkit.

Nine checks, run in order: closed-form table values, the counting
estimator at the published operating point, loss compensation, Monte
Carlo against every closed form, the strategy crossover, the end-to-end
experiment fixture, the routing-efficiency closed loop, byte-level
determinism, and randomized property sweeps.  Each test prints one PASS
line with its measured numbers; an assertion failure aborts before the
line prints, so the printed tally is the pass list.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from photondemux.analytic import s_closed_form, s_heralded, s_passive, s_unheralded_clocked
from photondemux.config import scenario_from_mapping
from photondemux.converter import (
    monte_carlo_efficiency,
    route_clocked_batch,
    route_heralded_batch,
    route_passive_batch,
)
from photondemux.measurement import (
    compensate_transmittance,
    estimate_s,
    estimate_routing_efficiencies,
)
from photondemux.model import ConverterParams, EfficiencyEstimate, RoutingStrategy, SourceParams
from photondemux.pipeline import execute_scenario, run_simulation, write_report
from photondemux.source import generate_herald_stream


def _pass(label: str, detail: str) -> None:
    print(f"PASS [{label}] {detail}")


def _scenario(n_modes=2, strategy="heralded", transmittance=0.731,
              ports=(0.998, 0.998), source=None, run=None):
    doc = {
        "source": source or {"pair_prob": 0.05, "rep_rate_hz": 82e6,
                             "herald_deadtime_slots": 4},
        "converter": {"n_modes": n_modes, "strategy": strategy,
                      "transmittance": transmittance,
                      "port_efficiencies": list(ports)},
        "run": run or {"seed": 7, "slots_per_trial": 400_000, "trials": 1},
    }
    return scenario_from_mapping(doc)


def test_closed_form_reference_table():
    assert s_heralded(2, 1.0) == 1.0
    assert s_unheralded_clocked(2, 1.0) == 0.5
    assert s_passive(2) == 0.25
    for n in range(2, 7):
        assert s_unheralded_clocked(n, 1.0) == 1.0 / n
        assert s_passive(n) == pytest.approx((1.0 / n) ** n, rel=1e-15, abs=0.0)
    _pass("closed-form table", "n=2 trio exact; clocked=1/n and passive=(1/n)^n for n=2..6")


def test_counting_estimator_operating_point():
    est = estimate_s(2.62, 785.0, 0.079, 2)
    assert abs(est.value - 0.533) <= 0.01
    _pass("counting estimator", f"S(2) = {est.value:.4f} (within 0.533 +/- 0.01)")


def test_transmittance_compensation():
    est = compensate_transmittance(EfficiencyEstimate(0.533, 0.003), 0.731, 2, t_std_error=0.003)
    assert abs(est.value - 0.996) <= 0.005
    assert 0.003 <= est.std_error <= 0.012
    _pass("loss compensation",
          f"S(2)/t^2 = {est.value:.4f} +/- {est.std_error:.4f} "
          "(value within 0.996 +/- 0.005, error within 2x of 0.006)")


def test_monte_carlo_matches_closed_forms():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260819)
    trials = 1_000_000
    worst = ("", 0.0)
    cells = 0
    for strategy in ("heralded", "clocked", "passive"):
        etas = (1.0,) if strategy == "passive" else (0.5, 0.72, 1.0)
        for n in (2, 3, 4):
            for eta in etas:
                freq, se = monte_carlo_efficiency(strategy, n, eta, trials, rng)
                expected = s_closed_form(strategy, n, eta)
                cells += 1
                if se == 0.0:
                    assert freq == expected, (strategy, n, eta)
                    continue
                z = abs(freq - expected) / se
                assert z <= 4.0, (strategy, n, eta, freq, expected, z)
                if z > worst[1]:
                    worst = (f"{strategy} n={n} eta={eta}", z)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    assert cells == 21
    _pass("monte carlo vs closed forms",
          f"21 cells x {trials} trials within 4 SE (worst |z| = {worst[1]:.2f} "
          f"at {worst[0]}) in {elapsed:.1f} s")


def test_strategy_crossover():
    for n in range(2, 9):
        eta_c = 1.0 / n
        assert abs(s_heralded(n, eta_c) - s_unheralded_clocked(n, eta_c)) <= 1e-12
        for frac in (0.05, 0.25, 0.5, 0.75, 1.0):
            eta = eta_c + frac * (1.0 - eta_c)
            assert s_heralded(n, eta) > s_unheralded_clocked(n, eta), (n, eta)
    _pass("strategy crossover",
          "heralded = clocked at eta_sw = 1/n (1e-12) and strictly above for larger eta_sw, n=2..8")


def test_experiment_fixture_end_to_end():
    # two-mode operating point: 40 ns deadtime at 82 MHz (4 slots), pair
    # probability tuned for a 785 cps two-herald trigger rate, t = 0.731,
    # eta_1 = eta_2 = 0.998, per-herald delivered-photon probability 0.079
    scenario = _scenario(
        source={
            "pair_prob": 0.0043882,
            "rep_rate_hz": 82e6,
            "herald_deadtime_s": 40e-9,
            "signal_det_efficiency": 0.079,
        },
        run={"seed": 42, "slots_per_trial": 10_000_000_000, "trials": 8,
             "calibration_mode": True},
    )
    t0 = time.perf_counter()
    rep = execute_scenario(scenario)
    elapsed = time.perf_counter() - t0
    est = rep["s_estimate"]
    assert 785 - 40 <= rep["c_h_rate"] <= 785 + 40
    assert 2.3 <= rep["c_n_rate"] <= 2.9
    assert 0.50 <= est["value"] <= 0.56
    assert elapsed <= 60.0
    _pass("experiment fixture",
          f"C_h(2) = {rep['c_h_rate']:.1f} cps, C(2) = {rep['c_n_rate']:.3f} cps, "
          f"S(2) = {est['value']:.4f} +/- {est['std_error']:.4f} "
          f"in {elapsed:.1f} s")


def test_routing_efficiency_closed_loop():
    active = _scenario(ports=(0.99, 0.98),
                       run={"seed": 3, "slots_per_trial": 2_000_000, "trials": 1})
    estimates = estimate_routing_efficiencies(execute_scenario(active)["port_counts"])
    for (value, err), target in zip(estimates, (0.99, 0.98)):
        assert abs(value - target) <= 3 * err, (value, err, target)

    passive = _scenario(strategy="passive", transmittance=1.0, ports=(1.0, 1.0),
                        run={"seed": 3, "slots_per_trial": 2_000_000, "trials": 1})
    passive_est = estimate_routing_efficiencies(execute_scenario(passive)["port_counts"])
    for value, err in passive_est:
        assert abs(value - 0.5) <= 3 * err, (value, err)
    _pass("routing efficiencies",
          "active recovers [0.99, 0.98] and passive splits [0.5, 0.5], each within 3 sigma: "
          + ", ".join(f"{v:.4f}+/-{e:.4f}" for v, e in estimates + passive_est))


def test_deterministic_reports(tmp_path):
    first, second, reseeded = (tmp_path / name for name in ("a.json", "b.json", "c.json"))
    m1 = run_simulation(_scenario())
    write_report(m1, first)
    write_report(run_simulation(_scenario()), second)
    m3 = run_simulation(_scenario(run={"seed": 8, "slots_per_trial": 400_000, "trials": 1}))
    write_report(m3, reseeded)
    assert first.read_bytes() == second.read_bytes()
    assert m1["herald_count"] != m3["herald_count"]
    _pass("determinism",
          "same config+seed gives byte-identical reports; a new seed changes the raw counts")


def test_randomized_property_sweep(landings):
    rng = np.random.default_rng(8212026)

    # detectors stay quiet through their deadtime
    for _ in range(100):
        params = SourceParams(
            pair_prob=float(rng.uniform(0.02, 0.4)),
            rep_rate_hz=82e6,
            herald_det_efficiency=float(rng.uniform(0.5, 1.0)),
            herald_deadtime_slots=4,
            herald_splitter_ratio=float(rng.uniform(0.1, 0.9)),
        )
        stream = generate_herald_stream(params, 20_000, rng)
        for slots in (stream.pair_slots[stream.fired & stream.to_detector_a],
                      stream.pair_slots[stream.fired & ~stream.to_detector_a]):
            if slots.size > 1:
                assert int(np.diff(slots).min()) > 4

    # every photon either lands on some port or is counted lost
    for _ in range(100):
        n = int(rng.integers(1, 6))
        conv = ConverterParams(
            n_modes=n,
            strategy=RoutingStrategy.ACTIVE_HERALDED,
            transmittance=float(rng.uniform(0.2, 1.0)),
            port_efficiencies=tuple(rng.uniform(0.3, 1.0, size=n)),
        )
        batch = route_heralded_batch(2000, conv, rng,
                                     signal_det_efficiency=float(rng.uniform(0.2, 1.0)))
        full = landings()
        assert (full.sum(axis=1) == 2000).all()
        assert np.array_equal(full[:, :n], batch.port_counts)
        if n >= 2:
            lossless = ConverterParams(n_modes=n, strategy=RoutingStrategy.ACTIVE_CLOCKED,
                                       transmittance=float(rng.uniform(0.2, 1.0)))
            route_clocked_batch(2000, lossless, rng)
            assert int(landings()[:, n].sum()) == 0
        route_passive_batch(2000, ConverterParams(n_modes=n, strategy="passive"), rng)
        assert int(landings()[:, n].sum()) == 0

    # misrouted photons spread uniformly over the other ports
    min_p = 1.0
    for n in (3, 4, 5):
        table = np.zeros((n, n), dtype=np.int64)
        for _ in range(34):
            conv = ConverterParams(
                n_modes=n,
                strategy=RoutingStrategy.ACTIVE_HERALDED,
                port_efficiencies=tuple(rng.uniform(0.2, 0.6, size=n)),
            )
            table += route_heralded_batch(4000, conv, rng).port_counts
        for j in range(n):
            off_diag = np.delete(table[j], j)
            assert off_diag.sum() > 1000
            p_value = stats.chisquare(off_diag).pvalue
            min_p = min(min_p, p_value)
            assert p_value > 1e-4, (n, j, off_diag)

    # reported errors are the binomial error sqrt(f(1 - f)/N) of their own
    # frequency f over N trials (1/(N + 1) at no or every success), so they
    # scale as 1/sqrt(N), and match the real scatter
    z_scores = []
    for _ in range(100):
        strategy = ("heralded", "clocked", "passive")[int(rng.integers(3))]
        n = int(rng.integers(2, 5))
        eta = float(rng.uniform(0.3, 0.95))
        expected = s_closed_form(strategy, n, eta)
        for trials in (20_000, 80_000):
            freq, se = monte_carlo_efficiency(strategy, n, eta, trials, rng)
            assert se == (math.sqrt(freq * (1.0 - freq) / trials) if 0.0 < freq < 1.0 else 1.0 / (trials + 1))
            if trials == 20_000:
                z_scores.append((freq - expected) / math.sqrt(expected * (1 - expected) / trials))
    z = np.asarray(z_scores)
    assert abs(z.mean()) < 0.5
    assert 0.7 < z.std() < 1.4

    _pass("randomized properties",
          f"400 random configurations: deadtime gaps, photon conservation, misroute "
          f"uniformity (min p = {min_p:.3f}), and 1/sqrt(N) scaling "
          f"(z mean {z.mean():+.2f}, std {z.std():.2f})")
