"""Monte-Carlo routing against the closed forms and distribution oracles."""

import numpy as np
import pytest
from scipy import stats

from photondemux import converter
from photondemux.analytic import s_closed_form, s_heralded, s_passive, s_unheralded_clocked
from photondemux.config import scenario_from_mapping
from photondemux.converter import (
    RoutingBatch,
    monte_carlo_efficiency,
    route_chunks,
    route_clocked_batch,
    route_heralded_batch,
    route_passive_batch,
)
from photondemux.model import ConverterParams, RoutingStrategy
from photondemux.pipeline import execute_scenario
from photondemux.source import RngStream


def heralded_params(n=2, t=1.0, ports=None):
    return ConverterParams(n_modes=n, strategy=RoutingStrategy.ACTIVE_HERALDED,
                           transmittance=t, port_efficiencies=ports or ())


def clocked_params(n=2, eta=1.0):
    return ConverterParams(n_modes=n, strategy=RoutingStrategy.ACTIVE_CLOCKED,
                           transmittance=eta)


def binomial_tolerance(p, trials, sigmas=4):
    return sigmas * np.sqrt(max(p * (1 - p), 1e-12) / trials)


class TestHeraldedRouting:
    def test_ideal_converter_always_succeeds(self):
        batch = route_heralded_batch(5_000, heralded_params(), RngStream(1).generator())
        assert batch.success_count == 5_000

    def test_total_loss_never_succeeds(self):
        batch = route_heralded_batch(5_000, heralded_params(t=0.0), RngStream(1).generator())
        assert batch.success_count == 0
        assert (batch.ports == -1).all()

    def test_observed_operating_point(self):
        # measured converter: lumped loss 0.731, near-ideal routers
        params = heralded_params(t=0.731, ports=(0.998, 0.998))
        batch = route_heralded_batch(1_000_000, params, RngStream(2).generator())
        expected = 0.731**2 * 0.998**2
        freq = batch.success_count / 1_000_000
        assert abs(freq - expected) < binomial_tolerance(expected, 1_000_000)

    @pytest.mark.parametrize("n,eta", [(2, 0.5), (3, 0.72), (4, 0.9)])
    def test_matches_per_photon_product(self, n, eta):
        params = heralded_params(n=n, ports=(eta,) * n)
        trials = 400_000
        batch = route_heralded_batch(trials, params, RngStream(3).generator())
        expected = s_heralded(n, eta)
        assert abs(batch.success_count / trials - expected) < binomial_tolerance(expected, trials)

    def test_strategy_mismatch_rejected(self):
        with pytest.raises(ValueError):
            route_heralded_batch(10, clocked_params(), RngStream(0).generator())

    def test_detection_thinning(self):
        params = heralded_params()
        batch = route_heralded_batch(200_000, params, RngStream(4).generator(),
                                     signal_det_efficiency=0.3)
        expected = 0.3**2  # both photons arrive; each detected with 0.3
        freq = batch.success_count / 200_000
        assert abs(freq - expected) < binomial_tolerance(expected, 200_000)


class TestMisrouteDistribution:
    def test_misroutes_are_uniform_over_other_ports(self):
        n = 4
        params = heralded_params(n=n, ports=(0.5,) * n)
        batch = route_heralded_batch(200_000, params, RngStream(5).generator())
        strayed = (batch.ports >= 0) & (batch.ports != batch.scheduled)
        counts = []
        for j in range(n):
            landed = batch.ports[:, j][strayed[:, j]]
            counts.append(np.bincount(landed, minlength=n))
        table = np.array(counts)
        for j in range(n):
            others = np.delete(table[j], j)
            assert table[j, j] == 0
            assert stats.chisquare(others).pvalue > 1e-3

    def test_single_mode_misroute_is_a_loss(self):
        params = heralded_params(n=1, ports=(0.4,))
        batch = route_heralded_batch(100_000, params, RngStream(6).generator())
        freq = batch.success_count / 100_000
        assert abs(freq - 0.4) < binomial_tolerance(0.4, 100_000)
        assert set(np.unique(batch.ports)) <= {-1, 0}


class TestPhotonConservation:
    @pytest.mark.parametrize("t,ports", [(1.0, (1.0, 1.0)), (0.7, (0.9, 0.8)), (0.2, (0.5, 0.5))])
    def test_arrived_plus_lost_is_run_length(self, t, ports):
        params = heralded_params(t=t, ports=ports)
        batch = route_heralded_batch(50_000, params, RngStream(7).generator())
        arrived = (batch.ports >= 0).sum(axis=1)
        assert np.array_equal(arrived + batch.lost_per_run, np.full(len(batch), 2))

    def test_clocked_and_passive_lose_nothing(self):
        clocked = route_clocked_batch(20_000, clocked_params(eta=0.5), RngStream(8).generator())
        passive = route_passive_batch(20_000, 3, RngStream(8).generator())
        assert (clocked.ports >= 0).all()
        assert (passive.ports >= 0).all()


class TestClockedRouting:
    def test_aligned_ideal_run_succeeds(self):
        batch = route_clocked_batch(1_000, clocked_params(), RngStream(9).generator(),
                                    clock_offsets=0)
        assert batch.success_count == 1_000

    def test_misaligned_ideal_run_fails(self):
        # photons land on ports in rotated order: never the designated ones
        batch = route_clocked_batch(1_000, clocked_params(), RngStream(9).generator(),
                                    clock_offsets=1)
        assert batch.success_count == 0
        assert np.array_equal(np.unique(batch.ports[:, 0]), [1])

    def test_half_efficiency_averages_to_quarter(self):
        trials = 1_000_000
        batch = route_clocked_batch(trials, clocked_params(eta=0.5), RngStream(10).generator())
        expected = s_unheralded_clocked(2, 0.5)
        assert abs(batch.success_count / trials - expected) < binomial_tolerance(expected, trials)

    @pytest.mark.parametrize("n,eta", [(2, 0.72), (3, 0.5), (4, 0.72)])
    def test_free_running_phase_matches_closed_form(self, n, eta):
        trials = 400_000
        batch = route_clocked_batch(trials, clocked_params(n=n, eta=eta),
                                    RngStream(11).generator())
        expected = s_unheralded_clocked(n, eta)
        assert abs(batch.success_count / trials - expected) < binomial_tolerance(expected, trials)

    @pytest.mark.parametrize("n,eta", [(2, 0.72), (3, 0.9)])
    def test_aligned_phase_matches_eta_power(self, n, eta):
        trials = 400_000
        batch = route_clocked_batch(trials, clocked_params(n=n, eta=eta),
                                    RngStream(12).generator(), clock_offsets=0)
        expected = eta**n
        assert abs(batch.success_count / trials - expected) < binomial_tolerance(expected, trials)

    def test_offset_out_of_range(self):
        with pytest.raises(ValueError):
            route_clocked_batch(10, clocked_params(), RngStream(0).generator(), clock_offsets=2)

    def test_single_mode_rejected(self):
        with pytest.raises(ValueError):
            route_clocked_batch(10, ConverterParams(n_modes=1, strategy="clocked"),
                                RngStream(0).generator())


class TestPassiveRouting:
    def test_single_mode_always_succeeds(self):
        batch = route_passive_batch(1_000, 1, RngStream(13).generator())
        assert batch.success_count == 1_000

    def test_two_modes_quarter(self):
        trials = 1_000_000
        batch = route_passive_batch(trials, 2, RngStream(14).generator())
        assert abs(batch.success_count / trials - 0.25) < binomial_tolerance(0.25, trials)

    def test_three_modes_matches_enumeration(self):
        trials = 2_000_000
        batch = route_passive_batch(trials, 3, RngStream(15).generator())
        expected = s_passive(3)
        assert abs(batch.success_count / trials - expected) < 3 * np.sqrt(
            expected * (1 - expected) / trials
        )


class TestClockOffsetDraw:
    def test_range_and_uniformity(self):
        n = 4
        batch = route_clocked_batch(20_000, clocked_params(n=n), RngStream(16).generator())
        draws = batch.scheduled[:, 0].astype(np.int64)
        assert draws.min() == 0 and draws.max() == n - 1
        assert stats.chisquare(np.bincount(draws, minlength=n)).pvalue > 1e-3
        # the whole run follows the drawn phase: photon j is aimed at (j + offset) mod n
        assert np.array_equal(batch.scheduled, (draws[:, None] + np.arange(n)) % n)

    def test_two_modes_balanced(self):
        batch = route_clocked_batch(100_000, clocked_params(), RngStream(17).generator())
        assert abs(batch.scheduled[:, 0].mean() - 0.5) < 0.01


class TestSingleTriggerRouting:
    """Single runs are batches of one."""

    def test_heralded_record_fields(self):
        batch = route_heralded_batch(1, heralded_params(), RngStream(18))
        assert batch.ports.tolist() == [[0, 1]]
        assert batch.success_mask.tolist() == [True]
        assert batch.lost_per_run.tolist() == [0]

    def test_clocked_offset_one_fails_the_tally(self):
        batch = route_clocked_batch(1, clocked_params(), RngStream(19), clock_offsets=1)
        assert batch.ports.tolist() == [[1, 0]]
        assert batch.success_mask.tolist() == [False]

    def test_passive_single_mode(self):
        batch = route_passive_batch(1, 1, RngStream(20))
        assert batch.ports.tolist() == [[0]]
        assert batch.success_mask.tolist() == [True]

    def test_port_detections_require_the_right_photon(self):
        # a misrouted photon arrives outside its aligned bin: no coincidence
        batch = route_clocked_batch(1, clocked_params(), RngStream(21), clock_offsets=1)
        assert batch.ports.tolist() == [[1, 0]]  # both photons arrived somewhere
        assert batch.detected.tolist() == [[True, True]]
        assert batch.success_mask.tolist() == [False]
        assert batch.port_counts(detected_only=True).tolist() == [[0, 1], [1, 0]]


class TestMonteCarloGrid:
    @pytest.mark.parametrize("strategy", ["heralded", "clocked", "passive"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_small_grid_matches_closed_forms(self, strategy, n):
        eta = 0.72
        trials = 150_000
        freq, se = monte_carlo_efficiency(strategy, n, eta, trials, RngStream(22).generator())
        expected = s_closed_form(strategy, n, eta)
        assert abs(freq - expected) <= 4 * max(se, 1e-9)

    def test_chunking_does_not_change_statistics(self, monkeypatch):
        monkeypatch.setattr(converter, "_CHUNK", 97)
        sizes = [len(b) for b in route_chunks(1_000, clocked_params(), RngStream(23))]
        assert sum(sizes) == 1_000 and max(sizes) == 97
        # an RngStream is turned into one generator, not one per chunk
        first, second = route_chunks(194, clocked_params(), RngStream(23))
        assert not np.array_equal(first.ports, second.ports)
        doc = {
            "source": {"pair_prob": 0.05, "rep_rate_hz": 82e6},
            "converter": {"n_modes": 2, "strategy": "heralded", "transmittance": 0.8},
            "run": {"seed": 23, "slots_per_trial": 400_000, "trials": 1},
        }
        report = execute_scenario(scenario_from_mapping(doc))
        assert report["trigger_count"] > 5 * 97  # the pipeline routed several chunks
        est = report["s_estimate"]
        assert abs(est["value"] - s_heralded(2, 0.8)) <= 4 * est["std_error"]

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            monte_carlo_efficiency("passive", 2, 0.5, 0, RngStream(0).generator())


class TestBatchContainer:
    def test_port_counts_table(self):
        params = heralded_params(t=0.9, ports=(0.9, 0.9))
        batch = route_heralded_batch(50_000, params, RngStream(24).generator())
        table = batch.port_counts(detected_only=True)
        assert table.shape == (2, 2)
        # row i sums to the number of detected photon-i landings
        for i in range(2):
            detected_i = (batch.ports[:, i] >= 0) & batch.detected[:, i]
            assert table[i].sum() == detected_i.sum()

    def test_len(self):
        batch = route_passive_batch(123, 2, RngStream(25).generator())
        assert len(batch) == 123
