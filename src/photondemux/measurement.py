"""Estimators mirroring the experiment's counting analysis.

The conversion efficiency of an n-mode run is inferred from two measured
rates: C_h(n), how often n consecutive heralds arm the converter, and
C(n), how often all n output detectors then fire in the aligned
coincidence bins.  Their ratio, divided by the probability that a single
heralded photon is delivered and detected raised to the n-th power,

    S(n) = (C(n) / C_h(n)) / (P_h(1) * eta_D)**n

strips detector efficiency and heralding statistics from the result.

Uncertainties follow Poisson counting statistics: a raw count N carries
sigma = sqrt(N), and relative errors combine in quadrature through every
product, quotient, and power.  At experiment-like rates this puts the
error on a two-mode estimate near 0.003 after an hour of integration.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .analytic import _check_int
from .model import EfficiencyEstimate


def _check_counts(coincidences: int, triggers: int, names: tuple[str, str]) -> None:
    """Refuse counts that no run produces: not integers >= 0, or more coincidences than triggers."""
    _check_int(coincidences, names[0], least=0)
    _check_int(triggers, names[1], least=0)
    if coincidences > triggers:
        raise ValueError("more coincidences than triggers")


def count_rates(
    n_coincidences: int,
    n_triggers: int,
    slots_simulated: int,
    rep_rate_hz: float,
) -> tuple[float, float]:
    """Coincidence and trigger rates in counts per second.

    ``n_coincidences`` counts triggers on which every port fired in its
    aligned bin; ``n_triggers`` counts all triggers.
    """
    if slots_simulated <= 0:
        raise ValueError(f"slots_simulated must be positive (got {slots_simulated})")
    _check_counts(n_coincidences, n_triggers, ("n_coincidences", "n_triggers"))
    per_slot_to_rate = rep_rate_hz / slots_simulated
    return n_coincidences * per_slot_to_rate, n_triggers * per_slot_to_rate


def propagate_counting_uncertainty(
    counts: "Sequence[float]",
    n: int = 1,
    p_rel_error: float = 0.0,
) -> float:
    """Relative standard error of a counting-derived quantity.

    Each raw count N is Poisson, contributing a relative error 1/sqrt(N);
    contributions add in quadrature.  One count gives its own error, two
    give that of their ratio, and the full estimator (coincidence count,
    trigger count) adds ``p_rel_error``, the delivered-photon
    probability's own relative error, with weight n since the estimator
    raises that probability to the n-th power.
    """
    values = [float(c) for c in counts]
    for c in values:
        if c <= 0:
            raise ValueError(f"counts must be positive (got {c})")
    return math.sqrt(sum(1.0 / c for c in values) + (n * p_rel_error) ** 2)


def estimate_s(
    c_n_rate: float,
    c_h_rate: float,
    p_h1_eta_d: float,
    n: int,
    coincidence_count: int = 0,
    trigger_count: int = 0,
    p_rel_error: float = 0.0,
) -> EfficiencyEstimate:
    """Conversion efficiency from measured rates.

    The standard error follows Poisson statistics of the raw counts
    behind the rates; without them it is reported as 0 (unknown counting
    depth).  A run with triggers but no coincidence reports, in place of
    the error, the Wilson score upper bound (z = 1) on the coincidence
    fraction, 1 / (trigger_count + 1), scaled by 1 / p_h1_eta_d**n as the
    estimate is (E. B. Wilson, J. Am. Stat. Assoc. 22, 209 (1927)).
    """
    _check_int(n)
    _check_counts(coincidence_count, trigger_count, ("coincidence_count", "trigger_count"))
    if c_h_rate <= 0:
        raise ValueError(f"c_h_rate must be positive (got {c_h_rate})")
    if not 0 < p_h1_eta_d <= 1:
        raise ValueError(f"p_h1_eta_d must lie in (0, 1] (got {p_h1_eta_d})")
    if c_n_rate < 0:
        raise ValueError(f"c_n_rate must be nonnegative (got {c_n_rate})")
    value = (c_n_rate / c_h_rate) / p_h1_eta_d**n
    if coincidence_count > 0 and trigger_count > 0:
        counts = (coincidence_count, trigger_count)
        std_error = value * propagate_counting_uncertainty(counts, n=n, p_rel_error=p_rel_error)
    elif trigger_count > 0:
        std_error = 1.0 / (trigger_count + 1) / p_h1_eta_d**n
    else:
        std_error = 0.0
    return EfficiencyEstimate(value=value, std_error=std_error)


def compensate_transmittance(
    s: EfficiencyEstimate,
    t: float,
    n: int,
    t_std_error: float = 0.0,
) -> EfficiencyEstimate:
    """Divide out the converter transmittance: value / t**n.

    Isolates the routing quality from passive optical loss.  The errors
    of the estimate, divided by t**n, and of t, through the derivative
    n value / t, combine in quadrature; so an estimate of 0 keeps its
    error bar.
    """
    if not 0 < t <= 1:
        raise ValueError(f"transmittance must lie in (0, 1] (got {t})")
    _check_int(n)
    value = s.value / t**n
    error = math.hypot(s.std_error / t**n, value * n * t_std_error / t)
    return EfficiencyEstimate(value=value, std_error=error)


def estimate_routing_efficiencies(
    counts: "np.ndarray | Sequence[Sequence[int]]",
    corrections: "Sequence[float] | None" = None,
) -> list[tuple[float, float]]:
    """Per-port routing efficiencies with binomial standard errors.

    ``counts`` is the (n, n) table of detected landings, entry [i, j]
    counting photon i at port j, as an array or as the nested lists of a
    report's ``port_counts``.  For each photon index i, the efficiency is
    the fraction of its detected landings that fell on its own port i,
    divided by the supplied correction factor (residual optics and
    detector imbalance; 1.0 when none), which must be finite and > 0.
    Detection thinning cancels in the fraction as long as all ports
    share a detector efficiency.
    """
    counts = np.asarray(counts)
    n = counts.shape[0]
    if counts.shape != (n, n):
        raise ValueError(f"count table must be square (got {counts.shape})")
    negative = np.argwhere(counts < 0)
    if negative.size:
        i, j = negative[0].tolist()
        raise ValueError(f"count table entry [{i}, {j}] is negative (got {counts[i, j]})")
    corr = [1.0] * n if corrections is None else [float(c) for c in corrections]
    if len(corr) != n:
        raise ValueError(f"expected {n} correction factors, got {len(corr)}")
    if not all(math.isfinite(c) and c > 0 for c in corr):
        raise ValueError(f"correction factors must be finite and > 0 (got {corr})")
    estimates: list[tuple[float, float]] = []
    for i in range(n):
        total = int(counts[i].sum())
        if total == 0:
            raise ValueError(f"photon {i} was never detected on any port")
        frac = counts[i, i] / total
        err = math.sqrt(frac * (1.0 - frac) / total)
        estimates.append((frac / corr[i], err / corr[i]))
    return estimates
