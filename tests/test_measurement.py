"""Counting estimators: rates, efficiency inversion, uncertainty rules."""

import math
import re

import numpy as np
import pytest

from photondemux.converter import route_heralded_batch, route_passive_batch
from photondemux.measurement import (
    compensate_transmittance,
    count_rates,
    estimate_routing_efficiencies,
    estimate_s,
    propagate_counting_uncertainty,
)
from photondemux.model import ConverterParams, EfficiencyEstimate
from photondemux.source import RngStream


class TestCountRates:
    def test_rates_scale_with_rep_rate(self):
        c_n, c_h = count_rates(0, 785, 82_000_000, 82e6)
        assert c_h == pytest.approx(785.0)
        assert c_n == 0.0

    def test_perfect_pipeline_rates_match(self):
        c_n, c_h = count_rates(5, 5, 100, 100.0)
        assert c_n == c_h == pytest.approx(5.0)

    def test_zero_slots_rejected(self):
        with pytest.raises(ValueError):
            count_rates(0, 0, 0, 82e6)

    def test_more_coincidences_than_triggers_rejected(self):
        with pytest.raises(ValueError):
            count_rates(10, 5, 100, 82e6)


class TestEstimateS:
    def test_published_operating_point(self):
        est = estimate_s(2.62, 785.0, 0.079, 2)
        assert est.value == pytest.approx(0.533, abs=0.01)

    def test_inverts_its_own_forward_model(self):
        c_h, p = 500.0, 0.08
        est = estimate_s(c_h * p**2, c_h, p, 2)
        assert est.value == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_power_scaling(self, n):
        s_true = 0.6
        c_h, p = 1000.0, 0.1
        est = estimate_s(c_h * s_true * p**n, c_h, p, n)
        assert est.value == pytest.approx(s_true)

    def test_counting_error_from_counts(self):
        est = estimate_s(2.62, 785.0, 0.079, 2,
                         coincidence_count=10_000, trigger_count=1_000_000)
        expected_rel = math.sqrt(1 / 10_000 + 1 / 1_000_000)
        assert est.std_error == pytest.approx(est.value * expected_rel)

    def test_p_uncertainty_enters_with_weight_n(self):
        base = estimate_s(2.62, 785.0, 0.079, 2, coincidence_count=10**6,
                          trigger_count=10**9)
        with_p = estimate_s(2.62, 785.0, 0.079, 2, coincidence_count=10**6,
                            trigger_count=10**9, p_rel_error=0.05)
        assert with_p.std_error > base.std_error
        assert with_p.std_error / with_p.value == pytest.approx(
            math.sqrt(1e-6 + 1e-9 + (2 * 0.05) ** 2)
        )

    def test_no_counts_means_unknown_error(self):
        assert estimate_s(2.62, 785.0, 0.079, 2).std_error == 0.0

    @pytest.mark.parametrize("triggers", [1, 170, 10**6])
    def test_no_coincidence_reports_wilson_upper_bound(self, triggers):
        # Wilson score interval at z = 1 for 0 successes in T trials:
        # (z^2 / 2T + z sqrt(z^2 / 4T^2)) / (1 + z^2 / T) = 1 / (T + 1)
        est = estimate_s(0.0, 785.0, 0.079, 2, coincidence_count=0, trigger_count=triggers)
        z, t = 1.0, float(triggers)
        wilson = (z * z / (2 * t) + z * math.sqrt(z * z / (4 * t * t))) / (1 + z * z / t)
        assert est.value == 0.0
        assert est.std_error == pytest.approx(wilson / 0.079**2, rel=1e-12)
        assert est.std_error == pytest.approx(1.0 / (triggers + 1) / 0.079**2, rel=1e-12)

    def test_wilson_bound_shrinks_with_triggers(self):
        few = estimate_s(0.0, 785.0, 0.3, 2, coincidence_count=0, trigger_count=100)
        many = estimate_s(0.0, 785.0, 0.3, 2, coincidence_count=0, trigger_count=10_000)
        assert 0.0 < many.std_error < few.std_error

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            estimate_s(1.0, 0.0, 0.1, 2)
        with pytest.raises(ValueError):
            estimate_s(1.0, 10.0, 0.0, 2)
        with pytest.raises(ValueError):
            estimate_s(-1.0, 10.0, 0.1, 2)
        with pytest.raises(ValueError):
            estimate_s(1.0, 10.0, 0.1, 0)


class TestCountsNoRunProduces:
    """Counts are integers >= 0 with no more coincidences than triggers; else no estimate
    and no error bar is reported for them."""

    @pytest.mark.parametrize("coincidences,triggers", [(50, 10), (5, 0)])
    def test_more_coincidences_than_triggers_rejected(self, coincidences, triggers):
        # gave 0.4 +- 0.139 and 0.4 +- 0
        with pytest.raises(ValueError, match=r"^more coincidences than triggers$"):
            estimate_s(1.0, 10.0, 0.5, 2, coincidence_count=coincidences, trigger_count=triggers)

    @pytest.mark.parametrize("coincidences,triggers,message", [
        pytest.param(-5, 10, "coincidence_count must be >= 0 (got -5)", id="negative"),  # gave a Wilson bound of 0.364
        pytest.param(0, -1, "trigger_count must be >= 0 (got -1)", id="negative_triggers"),
        pytest.param(1.5, 10, "coincidence_count must be an integer (got 1.5)", id="float"),
        pytest.param(1, 10.0, "trigger_count must be an integer (got 10.0)", id="float_triggers"),
        pytest.param(True, 10, "coincidence_count must be an integer (got True)", id="bool"),
    ])
    def test_estimate_s_rejects_non_counts(self, coincidences, triggers, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            estimate_s(1.0, 10.0, 0.5, 2, coincidence_count=coincidences, trigger_count=triggers)

    @pytest.mark.parametrize("coincidences,triggers,message", [
        pytest.param(-1, 5, "n_coincidences must be >= 0 (got -1)", id="negative"),  # gave (-0.1, 0.5)
        pytest.param(1.5, 5, "n_coincidences must be an integer (got 1.5)", id="float"),  # gave (0.15, 0.5)
        pytest.param(0, -1, "n_triggers must be >= 0 (got -1)", id="negative_triggers"),
        pytest.param(1, 5.0, "n_triggers must be an integer (got 5.0)", id="float_triggers"),
    ])
    def test_count_rates_rejects_non_counts(self, coincidences, triggers, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            count_rates(coincidences, triggers, 10, 1.0)

    @pytest.mark.parametrize("table,entry", [
        pytest.param([[3, -1], [0, 2]], "[0, 1]", id="0-1"),
        pytest.param([[2, 0], [-1, 3]], "[1, 0]", id="1-0"),
    ])
    def test_negative_landing_count_rejected(self, table, entry):
        # raised "math domain error"
        with pytest.raises(ValueError, match=f"^count table entry {re.escape(entry)} is negative \\(got -1\\)$"):
            estimate_routing_efficiencies(table)


class TestCompensateTransmittance:
    def test_published_operating_point(self):
        est = EfficiencyEstimate(0.533, 0.003)
        out = compensate_transmittance(est, 0.731, 2, t_std_error=0.003)
        assert out.value == pytest.approx(0.996, abs=0.005)
        assert 0.003 <= out.std_error <= 0.012  # within a factor 2 of 0.006

    def test_lossless_is_identity(self):
        est = EfficiencyEstimate(0.42, 0.01)
        out = compensate_transmittance(est, 1.0, 3)
        assert out.value == est.value
        assert out.std_error == est.std_error

    def test_exact_quotient(self):
        out = compensate_transmittance(EfficiencyEstimate(0.25, 0.0), 0.5, 2)
        assert out.value == pytest.approx(1.0)
        assert out.std_error == 0.0

    def test_estimate_and_transmittance_errors_add_in_quadrature(self):
        out = compensate_transmittance(EfficiencyEstimate(0.533, 0.003), 0.731, 2,
                                       t_std_error=0.003)
        rel = math.sqrt((0.003 / 0.533) ** 2 + (2 * 0.003 / 0.731) ** 2)
        assert out.std_error == pytest.approx(out.value * rel)

    def test_zero_estimate_keeps_its_error_bar(self):
        # a run without coincidences reports 0 with a Wilson bound as its error
        out = compensate_transmittance(EfficiencyEstimate(0.0, 0.032), 0.731, 2, t_std_error=0.003)
        assert out.value == 0.0
        assert out.std_error == pytest.approx(0.032 / 0.731**2)

    def test_zero_transmittance_rejected(self):
        with pytest.raises(ValueError):
            compensate_transmittance(EfficiencyEstimate(0.5, 0.0), 0.0, 2)

    def test_zero_modes_rejected(self):
        with pytest.raises(ValueError, match=r"^n must be >= 1 \(got 0\)$"):
            compensate_transmittance(EfficiencyEstimate(0.5, 0.0), 0.731, 0)


@pytest.mark.parametrize("n", [1.5, 2.5, 2.0, True])
def test_non_integer_n_rejected(n):
    # both computed a value for a photon number that cannot exist
    with pytest.raises(ValueError, match=re.escape(f"n must be an integer (got {n!r})")):
        estimate_s(1.0, 10.0, 0.1, n)
    with pytest.raises(ValueError, match=re.escape(f"n must be an integer (got {n!r})")):
        compensate_transmittance(EfficiencyEstimate(0.5, 0.0), 0.731, n)


def test_numpy_integer_n_accepted():
    assert estimate_s(1.0, 10.0, 0.5, np.int64(2)).value == pytest.approx(0.4)
    assert compensate_transmittance(EfficiencyEstimate(0.25, 0.0), 0.5, np.int64(2)).value == pytest.approx(1.0)


class TestPropagation:
    def test_single_count(self):
        assert propagate_counting_uncertainty((785,)) == pytest.approx(1 / math.sqrt(785))

    def test_quotient_of_equal_counts(self):
        rel = propagate_counting_uncertainty((10_000, 10_000))
        assert rel == pytest.approx(math.sqrt(2) * 0.01)

    def test_full_estimator_with_hour_scale_counts(self):
        # rates 2.62 and 785 cps accumulated for two hours
        duration = 7_200
        rel = propagate_counting_uncertainty((2.62 * duration, 785 * duration), n=2, p_rel_error=0.0)
        absolute = 0.535 * rel
        assert 0.0015 <= absolute <= 0.006  # a factor 2 around the published 0.003

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            propagate_counting_uncertainty((0,))
        with pytest.raises(ValueError):
            propagate_counting_uncertainty((10, -5))


class TestRoutingEfficiencies:
    def test_ideal_simulation_gives_unity(self):
        params = ConverterParams(n_modes=2, strategy="heralded")
        table = route_heralded_batch(10_000, params, RngStream(1).generator()).port_counts
        estimates = estimate_routing_efficiencies(np.asarray(table))
        assert [e for e, _ in estimates] == [1.0, 1.0]

    def test_recovers_configured_efficiencies(self):
        eta = (0.99, 0.98)
        params = ConverterParams(n_modes=2, strategy="heralded", transmittance=0.731,
                                 port_efficiencies=eta)
        table = route_heralded_batch(100_000, params, RngStream(2).generator(),
                                     signal_det_efficiency=0.5).port_counts
        for (est, err), true in zip(estimate_routing_efficiencies(np.asarray(table)), eta):
            assert abs(est - true) < 3 * err

    def test_passive_router_gives_one_over_n(self):
        params = ConverterParams(n_modes=2, strategy="passive")
        table = route_passive_batch(100_000, params, RngStream(3).generator()).port_counts
        for est, err in estimate_routing_efficiencies(np.asarray(table)):
            assert abs(est - 0.5) < 3 * err

    def test_landing_distribution_sums_to_one(self):
        params = ConverterParams(n_modes=3, strategy="heralded",
                                 port_efficiencies=(0.7, 0.8, 0.9))
        table = route_heralded_batch(50_000, params, RngStream(4).generator()).port_counts
        table = np.asarray(table).astype(float)
        rows = table / table.sum(axis=1, keepdims=True)
        assert rows.sum(axis=1) == pytest.approx([1.0, 1.0, 1.0])

    def test_correction_factors_divide(self):
        counts = np.array([[90, 10], [20, 80]])
        plain = estimate_routing_efficiencies(counts)
        halved = estimate_routing_efficiencies(counts, corrections=[0.9, 0.8])
        assert halved[0][0] == pytest.approx(plain[0][0] / 0.9)
        assert halved[1][0] == pytest.approx(plain[1][0] / 0.8)

    def test_hand_built_table_accepted(self):
        # photon 0 landed on port 0 twice; photon 1 once on port 0, once on port 1
        estimates = estimate_routing_efficiencies(np.array([[2, 0], [1, 1]]))
        assert estimates[0][0] == pytest.approx(1.0)
        assert estimates[1][0] == pytest.approx(0.5)

    def test_batch_is_counted_on_detected_landings(self):
        params = ConverterParams(n_modes=2, strategy="heralded", port_efficiencies=(0.8, 0.9))
        table = route_heralded_batch(20_000, params, RngStream(5).generator(),
                                     signal_det_efficiency=0.5).port_counts
        # only detected landings are counted: half of the 2 x 20,000 photons
        assert abs(table.sum() - 20_000) < 5 * np.sqrt(40_000 * 0.25)
        # a report's nested lists and the array give the same estimates
        as_lists = estimate_routing_efficiencies(table.tolist())
        assert as_lists == estimate_routing_efficiencies(np.asarray(table))

    def test_non_square_table_rejected(self):
        with pytest.raises(ValueError, match=r"^count table must be square \(got \(2, 3\)\)$"):
            estimate_routing_efficiencies(np.ones((2, 3), dtype=np.int64))

    def test_zero_conditioning_counts_rejected(self):
        with pytest.raises(ValueError):
            estimate_routing_efficiencies(np.zeros((2, 2), dtype=np.int64))

    def test_bad_corrections_rejected(self):
        counts = np.array([[5, 0], [0, 5]])
        with pytest.raises(ValueError):
            estimate_routing_efficiencies(counts, corrections=[1.0])
        with pytest.raises(ValueError):
            estimate_routing_efficiencies(counts, corrections=[1.0, 0.0])
        with pytest.raises(ValueError, match="finite"):
            estimate_routing_efficiencies(counts, corrections=[math.nan, 1.0])
        with pytest.raises(ValueError, match="finite"):
            estimate_routing_efficiencies(counts, corrections=[math.inf, 1.0])
