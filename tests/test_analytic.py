"""Closed-form conversion efficiencies against independent oracles.

The oracles here re-derive each probability from the per-photon routing
model rather than from the formulas under test: heralded success is a
product of independent per-photon deliveries, clocked success is an
explicit enumeration over the n possible clock phases, and passive
success is an exhaustive count over all port assignments.
"""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photondemux.analytic import (
    s_closed_form,
    s_heralded,
    s_passive,
    s_unheralded_clocked,
)
from photondemux.model import ConfigError, ConverterParams
from photondemux.pipeline import run_analytic


def clocked_by_phase_enumeration(n: int, eta: float) -> float:
    """Average success over the n equally likely clock phases.

    Photon j is scheduled for port (j + offset) mod n and lands on the
    scheduled port with probability eta, on each other port with
    probability (1 - eta)/(n - 1); success needs photon j on port j.
    """
    total = 0.0
    for offset in range(n):
        p = 1.0
        for j in range(n):
            scheduled = (j + offset) % n
            p *= eta if scheduled == j else (1.0 - eta) / (n - 1)
        total += p
    return total / n


def passive_by_enumeration(n: int) -> float:
    hits = sum(
        1 for ports in itertools.product(range(n), repeat=n)
        if ports == tuple(range(n))
    )
    return hits / n**n


class TestTableValues:
    def test_ideal_two_mode_values(self):
        assert s_heralded(2, 1.0) == 1.0
        assert s_unheralded_clocked(2, 1.0) == 0.5
        assert s_passive(2) == 0.25

    @pytest.mark.parametrize("n", range(2, 7))
    def test_ideal_clocked_is_one_over_n(self, n):
        assert s_unheralded_clocked(n, 1.0) == 1.0 / n

    @pytest.mark.parametrize("n", range(2, 7))
    def test_passive_is_n_to_minus_n(self, n):
        # 1/n**n and (1/n)**n round differently in the last ulp for odd n
        assert s_passive(n) == pytest.approx((1.0 / n) ** n, rel=1e-15, abs=0.0)

    def test_half_switching_efficiency_two_modes(self):
        # both active forms coincide with the passive one here
        assert s_heralded(2, 0.5) == pytest.approx(0.25)
        assert s_unheralded_clocked(2, 0.5) == pytest.approx(0.25)


class TestObservedOperatingPoint:
    def test_composite_switching_efficiency(self):
        conv = ConverterParams(n_modes=2, transmittance=0.731, port_efficiencies=(0.99, 0.98))
        assert conv.switching_efficiency == pytest.approx(0.72, abs=5e-5)

    def test_heralded_at_measured_eta(self):
        assert s_heralded(2, 0.72) == pytest.approx(0.5184)

    def test_clocked_at_measured_eta(self):
        assert s_unheralded_clocked(2, 0.72) == pytest.approx((0.72**2 + 0.28**2) / 2)


class TestAgainstEnumerationOracles:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.72, 1.0])
    def test_clocked_matches_phase_enumeration(self, n, eta):
        assert s_unheralded_clocked(n, eta) == pytest.approx(
            clocked_by_phase_enumeration(n, eta), abs=1e-14
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_passive_matches_exhaustive_enumeration(self, n):
        assert s_passive(n) == pytest.approx(passive_by_enumeration(n), abs=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_heralded_is_an_independent_product(self, n):
        eta = 0.72
        product = 1.0
        for _ in range(n):
            product *= eta
        assert s_heralded(n, eta) == pytest.approx(product)


class TestCrossover:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_strategies_meet_at_one_over_n(self, n):
        eta = 1.0 / n
        assert abs(s_heralded(n, eta) - s_unheralded_clocked(n, eta)) < 1e-12

    @pytest.mark.parametrize("n", range(2, 9))
    def test_heralded_wins_above_crossover(self, n):
        for eta in (1.0 / n + 0.01, 0.9, 1.0):
            if eta > 1.0:
                continue
            assert s_heralded(n, eta) > s_unheralded_clocked(n, eta)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_clocked_wins_below_crossover(self, n):
        eta = 0.5 / n
        assert s_heralded(n, eta) < s_unheralded_clocked(n, eta)


class TestDomainChecks:
    def test_clocked_rejects_single_mode(self):
        with pytest.raises(ValueError, match=">= 2 for clocked"):
            s_unheralded_clocked(1, 0.9)

    @pytest.mark.parametrize("eta", [-0.1, 1.1, math.nan])
    def test_bad_eta_rejected(self, eta):
        with pytest.raises(ValueError):
            s_heralded(2, eta)
        with pytest.raises(ValueError):
            s_unheralded_clocked(2, eta)

    def test_bad_n_rejected(self):
        with pytest.raises(ValueError):
            s_heralded(0, 0.5)
        with pytest.raises(ValueError):
            s_passive(0)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=10),
    eta=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_efficiencies_are_probabilities(n, eta):
    for value in (s_heralded(n, eta), s_unheralded_clocked(n, eta), s_passive(n)):
        assert 0.0 <= value <= 1.0


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=10),
    eta=st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
)
def test_one_more_mode_never_helps(n, eta):
    assert s_heralded(n + 1, eta) <= s_heralded(n, eta)
    assert s_unheralded_clocked(n + 1, eta) <= s_unheralded_clocked(n, eta) + 1e-15
    assert s_passive(n + 1) < s_passive(n)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=8),
    delta=st.floats(min_value=1e-6, max_value=0.5, allow_nan=False),
)
def test_heralded_beats_clocked_above_crossover(n, delta):
    eta = min(1.0, 1.0 / n + delta)
    assert s_heralded(n, eta) >= s_unheralded_clocked(n, eta) - 1e-12


class TestClosedFormLookup:
    @pytest.mark.parametrize("n", range(2, 6))
    @pytest.mark.parametrize("eta", [0.0, 0.5, 0.72, 1.0])
    def test_each_strategy_dispatches_to_its_formula(self, n, eta):
        assert s_closed_form("heralded", n, eta) == s_heralded(n, eta)
        assert s_closed_form("clocked", n, eta) == s_unheralded_clocked(n, eta)
        assert s_closed_form("passive", n, eta) == s_passive(n)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigError):
            s_closed_form("quantum", 2, 0.5)

    def test_domain_checks_pass_through(self):
        with pytest.raises(ValueError, match=">= 2 for clocked"):
            s_closed_form("clocked", 1, 0.5)
        with pytest.raises(ValueError):
            s_closed_form("heralded", 2, 1.5)


class TestCurves:
    """The closed-form table written by ``run_analytic``."""

    def test_curve_shape(self):
        rows = run_analytic(6, 0.72)
        assert [r["n"] for r in rows] == list(range(1, 7))
        assert rows[0]["clocked"] is None
        assert all(r["clocked"] is not None for r in rows[1:])
        assert rows[1]["heralded"] == pytest.approx(0.5184)
        assert rows[2]["passive"] == pytest.approx(1 / 27)
        cells = [r[k] for r in rows for k in ("heralded", "clocked", "passive") if r[k] is not None]
        assert all(0.0 <= v <= 1.0 for v in cells)

    def test_n_max_too_small(self):
        with pytest.raises(ValueError):
            run_analytic(1, 0.5)
