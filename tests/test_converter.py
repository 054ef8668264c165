"""Count-level routing against the closed forms and the per-run oracle."""

import numpy as np
import pytest
from scipy import stats

from photondemux import converter
from photondemux.analytic import s_closed_form, s_heralded, s_passive, s_unheralded_clocked
from photondemux.config import scenario_from_mapping
from photondemux.converter import (
    monte_carlo_efficiency,
    route_clocked_batch,
    route_heralded_batch,
    route_passive_batch,
    route_runs,
)
from photondemux.model import ConverterParams, RoutingStrategy
from photondemux.pipeline import execute_scenario
from photondemux.source import RngStream
from routing_oracle import (
    reference_count_route,
    reference_laws,
    route_clocked_runs,
    route_heralded_runs,
    route_passive_runs,
)

ALPHA = 1e-4  # per comparison; about 50 of them run
ETA_D = 0.7  # signal detection efficiency of the oracle comparisons


def heralded_params(n=2, t=1.0, ports=None):
    return ConverterParams(n_modes=n, strategy=RoutingStrategy.ACTIVE_HERALDED,
                           transmittance=t, port_efficiencies=ports or ())


def clocked_params(n=2, eta=1.0):
    return ConverterParams(n_modes=n, strategy=RoutingStrategy.ACTIVE_CLOCKED,
                           transmittance=eta)


def passive_params(n=2):
    return ConverterParams(n_modes=n, strategy=RoutingStrategy.PASSIVE_BEAMSPLITTER)


def binomial_tolerance(p, trials, sigmas=4):
    return sigmas * np.sqrt(max(p * (1 - p), 1e-12) / trials)


# every strategy x n in 1..4 (clocked needs n >= 2), with eta < 1 and eta_D < 1
CASES = [
    *((f"heralded-{n}", heralded_params(n=n, t=0.85, ports=(0.9, 0.6, 0.75, 0.5)[:n]))
      for n in (1, 2, 3, 4)),
    *((f"clocked-{n}", clocked_params(n=n, eta=0.6)) for n in (2, 3, 4)),
    *((f"passive-{n}", passive_params(n=n)) for n in (1, 2, 3, 4)),
]
CASE_IDS = [case_id for case_id, _ in CASES]
CASE_PARAMS = [params for _, params in CASES]


def oracle_runs(runs, params, rng, signal_det_efficiency):
    """The per-run oracle for ``params.strategy``."""
    if params.strategy is RoutingStrategy.ACTIVE_HERALDED:
        return route_heralded_runs(runs, params, rng, signal_det_efficiency=signal_det_efficiency)
    if params.strategy is RoutingStrategy.ACTIVE_CLOCKED:
        return route_clocked_runs(runs, params, rng, signal_det_efficiency=signal_det_efficiency)
    return route_passive_runs(runs, params, rng, signal_det_efficiency=signal_det_efficiency)


def two_sample_pvalue(a, b):
    """Chi-square p-value that two count vectors share one categorical law."""
    table = np.array([a, b])
    table = table[:, table.sum(axis=0) > 0]
    if table.shape[1] < 2:
        return 1.0
    return stats.chi2_contingency(table).pvalue


class TestAgainstRunOracle:
    """The count routers and the per-run oracle agree in law."""

    SEEDS = 40
    RUNS = 250

    @pytest.mark.parametrize("params", CASE_PARAMS, ids=CASE_IDS)
    def test_landing_rows_and_successes_match_oracle(self, params, landings):
        n = params.n_modes
        fast = np.zeros((n, n + 2), dtype=np.int64)
        slow = np.zeros((n, n + 2), dtype=np.int64)
        fast_successes = slow_successes = 0
        for seed in range(self.SEEDS):
            batch = route_runs(self.RUNS, params, RngStream(61, (seed,)).generator(), ETA_D)
            fast += landings()
            fast_successes += batch.success_count
            runs = oracle_runs(self.RUNS, params, RngStream(67, (seed,)).generator(), ETA_D)
            slow += runs.landing_counts()
            slow_successes += runs.success_count
        for i in range(n):
            assert two_sample_pvalue(fast[i], slow[i]) > ALPHA, (i, fast[i], slow[i])
        total = self.SEEDS * self.RUNS
        assert two_sample_pvalue([fast_successes, total - fast_successes],
                                 [slow_successes, total - slow_successes]) > ALPHA

    @pytest.mark.parametrize("params", CASE_PARAMS, ids=CASE_IDS)
    def test_success_count_is_binomial_across_seeds(self, params):
        # T iid runs succeed Binomial(T, s) times; the index of dispersion of
        # the per-seed counts is chi-square with seeds - 1 degrees of freedom
        runs, seeds = 2000, 400
        counts = np.array([
            route_runs(runs, params, RngStream(71, (seed,)).generator(), ETA_D).success_count
            for seed in range(seeds)
        ])
        mean = counts.mean()
        dispersion = ((counts - mean) ** 2).sum() / (mean * (1.0 - mean / runs))
        tail = stats.chi2.cdf(dispersion, seeds - 1)
        assert 2 * min(tail, 1.0 - tail) > ALPHA, dispersion

    @pytest.mark.parametrize("params", CASE_PARAMS, ids=CASE_IDS)
    def test_zero_runs_give_zeros(self, params):
        batch = route_runs(0, params, RngStream(73).generator())
        assert batch.success_count == 0
        assert batch.port_counts.tolist() == np.zeros((params.n_modes,) * 2, dtype=int).tolist()

    def test_piece_split_is_exact_above_numpy_limit(self, landings):
        # numpy's hypergeometric refuses 1e9 good or bad items: 3e9 runs go in pieces
        runs = 3_000_000_000
        ideal = route_heralded_batch(runs, heralded_params(n=3), RngStream(74).generator())
        assert ideal.success_count == runs
        assert np.array_equal(ideal.port_counts, runs * np.eye(3, dtype=np.int64))
        landings()
        params = heralded_params(n=3, t=0.9, ports=(0.9, 0.8, 0.7))
        batch = route_heralded_batch(runs, params, RngStream(75).generator(),
                                     signal_det_efficiency=0.5)
        full = landings()
        assert (full.sum(axis=1) == runs).all()
        expected = 0.9**3 * (0.9 * 0.8 * 0.7) * 0.5**3
        assert abs(batch.success_count / runs - expected) < binomial_tolerance(expected, runs, 6)
        for i, eta in enumerate((0.9, 0.8, 0.7)):
            on_port = 0.9 * eta * 0.5
            assert abs(batch.port_counts[i, i] / runs - on_port) < binomial_tolerance(on_port, runs, 6)


class TestHeraldedRouting:
    def test_ideal_converter_always_succeeds(self):
        batch = route_heralded_batch(5_000, heralded_params(), RngStream(1).generator())
        assert batch.success_count == 5_000
        assert np.array_equal(batch.port_counts, 5_000 * np.eye(2, dtype=np.int64))

    def test_total_loss_never_succeeds(self, landings):
        batch = route_heralded_batch(5_000, heralded_params(t=0.0), RngStream(1).generator())
        assert batch.success_count == 0
        assert not batch.port_counts.any()
        assert (landings()[:, 2] == 5_000).all()  # every photon lost in the optics

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
        table = batch.port_counts
        for j in range(n):
            others = np.delete(table[j], j)
            assert abs(table[j, j] / 200_000 - 0.5) < binomial_tolerance(0.5, 200_000)
            assert others.sum() + table[j, j] == 200_000  # lossless, ideal detectors
            assert stats.chisquare(others).pvalue > 1e-3

    def test_single_mode_misroute_is_a_loss(self, landings):
        params = heralded_params(n=1, ports=(0.4,))
        batch = route_heralded_batch(100_000, params, RngStream(6).generator())
        freq = batch.success_count / 100_000
        assert abs(freq - 0.4) < binomial_tolerance(0.4, 100_000)
        detected, lost, undetected = landings()[0]
        assert detected == batch.success_count and undetected == 0
        assert lost == 100_000 - detected


class TestPhotonConservation:
    @pytest.mark.parametrize("t,ports", [(1.0, (1.0, 1.0)), (0.7, (0.9, 0.8)), (0.2, (0.5, 0.5))])
    def test_arrived_plus_lost_is_run_length(self, t, ports, landings):
        params = heralded_params(t=t, ports=ports)
        batch = route_heralded_batch(50_000, params, RngStream(7).generator(),
                                     signal_det_efficiency=0.8)
        full = landings()
        assert (full.sum(axis=1) == 50_000).all()
        assert np.array_equal(full[:, :2], batch.port_counts)
        # the optics lose 1 - t of each photon
        assert abs(full[:, 2].mean() / 50_000 - (1 - t)) < binomial_tolerance(1 - t, 100_000)

    def test_clocked_and_passive_lose_nothing(self, landings):
        route_clocked_batch(20_000, clocked_params(eta=0.5), RngStream(8).generator(),
                            signal_det_efficiency=0.6)
        clocked = landings()
        route_passive_batch(20_000, passive_params(n=3), RngStream(8).generator(),
                            signal_det_efficiency=0.6)
        passive = landings()
        for full, n in ((clocked, 2), (passive, 3)):
            assert (full.sum(axis=1) == 20_000).all()
            assert not full[:, n].any()


class TestClockedRouting:
    """Runs at a fixed clock phase exist only in the per-run oracle."""

    def test_aligned_ideal_run_succeeds(self):
        batch = route_clocked_runs(1_000, clocked_params(), RngStream(9).generator(),
                                   clock_offsets=0)
        assert batch.success_count == 1_000

    def test_misaligned_ideal_run_fails(self):
        # photons land on ports in rotated order: never the designated ones
        batch = route_clocked_runs(1_000, clocked_params(), RngStream(9).generator(),
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
        batch = route_clocked_runs(trials, clocked_params(n=n, eta=eta),
                                   RngStream(12).generator(), clock_offsets=0)
        expected = eta**n
        assert abs(batch.success_count / trials - expected) < binomial_tolerance(expected, trials)

    def test_offset_out_of_range(self):
        with pytest.raises(ValueError):
            route_clocked_runs(10, clocked_params(), RngStream(0).generator(), clock_offsets=2)

    def test_strategy_mismatch_rejected(self):
        with pytest.raises(ValueError, match="^clocked routing called with strategy 'heralded'$"):
            route_clocked_batch(10, heralded_params(), RngStream(0).generator())

    def test_single_mode_rejected(self):
        with pytest.raises(ValueError):
            route_clocked_batch(10, ConverterParams(n_modes=1, strategy="clocked"),
                                RngStream(0).generator())


class TestPassiveRouting:
    def test_strategy_mismatch_rejected(self):
        with pytest.raises(ValueError):
            route_passive_batch(10, heralded_params(), RngStream(0).generator())

    def test_single_mode_always_succeeds(self):
        batch = route_passive_batch(1_000, passive_params(n=1), RngStream(13).generator())
        assert batch.success_count == 1_000
        assert batch.port_counts.tolist() == [[1_000]]

    def test_two_modes_quarter(self):
        trials = 1_000_000
        batch = route_passive_batch(trials, passive_params(n=2), RngStream(14).generator())
        assert abs(batch.success_count / trials - 0.25) < binomial_tolerance(0.25, trials)

    def test_three_modes_matches_enumeration(self):
        trials = 2_000_000
        batch = route_passive_batch(trials, passive_params(n=3), RngStream(15).generator())
        expected = s_passive(3)
        assert abs(batch.success_count / trials - expected) < 3 * np.sqrt(
            expected * (1 - expected) / trials
        )


class TestClockOffsetDraw:
    def test_range_and_uniformity(self):
        n = 4
        batch = route_clocked_runs(20_000, clocked_params(n=n), RngStream(16).generator())
        draws = batch.scheduled[:, 0].astype(np.int64)
        assert draws.min() == 0 and draws.max() == n - 1
        assert stats.chisquare(np.bincount(draws, minlength=n)).pvalue > 1e-3
        # the whole run follows the drawn phase: photon j is aimed at (j + offset) mod n
        assert np.array_equal(batch.scheduled, (draws[:, None] + np.arange(n)) % n)

    def test_two_modes_balanced(self):
        batch = route_clocked_runs(100_000, clocked_params(), RngStream(17).generator())
        assert abs(batch.scheduled[:, 0].mean() - 0.5) < 0.01

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_phase_groups_are_uniform(self, n):
        # an ideal clocked converter lands photon j of a phase-o run on port
        # (j + o) mod n: row 0 is the phase histogram, and the table circulates it
        for seed in range(5):
            gen = RngStream(18, (seed,)).generator()
            table = route_clocked_batch(20_000, clocked_params(n=n), gen).port_counts
            assert stats.chisquare(table[0]).pvalue > 1e-3
            for j in range(n):
                assert np.array_equal(table[j], np.roll(table[0], j))


class TestSingleTriggerRouting:
    """Single runs of the per-run oracle, and of the count routers."""

    def test_heralded_record_fields(self):
        batch = route_heralded_runs(1, heralded_params(), RngStream(18).generator())
        assert batch.ports.tolist() == [[0, 1]]
        assert batch.success_mask.tolist() == [True]
        assert batch.lost_per_run.tolist() == [0]
        single = route_heralded_batch(1, heralded_params(), RngStream(18).generator())
        assert single.success_count == 1 and single.port_counts.tolist() == [[1, 0], [0, 1]]

    def test_clocked_offset_one_fails_the_tally(self):
        batch = route_clocked_runs(1, clocked_params(), RngStream(19).generator(), clock_offsets=1)
        assert batch.ports.tolist() == [[1, 0]]
        assert batch.success_mask.tolist() == [False]

    def test_passive_single_mode(self):
        batch = route_passive_runs(1, passive_params(n=1), RngStream(20).generator())
        assert batch.ports.tolist() == [[0]]
        assert batch.success_mask.tolist() == [True]
        single = route_passive_batch(1, passive_params(n=1), RngStream(20).generator())
        assert single.success_count == 1 and single.port_counts.tolist() == [[1]]

    def test_port_detections_require_the_right_photon(self):
        # a misrouted photon arrives outside its aligned bin: no coincidence
        batch = route_clocked_runs(1, clocked_params(), RngStream(21).generator(), clock_offsets=1)
        assert batch.ports.tolist() == [[1, 0]]  # both photons arrived somewhere
        assert batch.detected.tolist() == [[True, True]]
        assert batch.success_mask.tolist() == [False]
        assert batch.port_counts(detected_only=True).tolist() == [[0, 1], [1, 0]]
        # the count router: every off-phase run lands both photons and succeeds never
        for seed in range(20):
            single = route_clocked_batch(1, clocked_params(), RngStream(21, (seed,)).generator())
            assert single.port_counts.sum() == 2
            assert single.success_count == int(single.port_counts[0, 0])


class TestMonteCarloGrid:
    @pytest.mark.parametrize("strategy", ["heralded", "clocked", "passive"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_small_grid_matches_closed_forms(self, strategy, n):
        eta = 0.72
        trials = 150_000
        freq, se = monte_carlo_efficiency(strategy, n, eta, trials, RngStream(22).generator())
        expected = s_closed_form(strategy, n, eta)
        assert abs(freq - expected) <= 4 * max(se, 1e-9)

    def test_chunking_does_not_change_statistics(self, monkeypatch, landings):
        monkeypatch.setattr(converter, "_PIECE", 97)
        batch = route_runs(1_000, clocked_params(), RngStream(23).generator())
        assert (landings().sum(axis=1) == 1_000).all()
        assert batch.port_counts.sum() == 2_000
        # one generator serves every piece, so the pieces do not repeat each other
        first = route_runs(97, heralded_params(ports=(0.5, 0.5)), RngStream(23).generator())
        doubled = route_runs(194, heralded_params(ports=(0.5, 0.5)), RngStream(23).generator())
        assert not np.array_equal(doubled.port_counts, 2 * first.port_counts)
        doc = {
            "source": {"pair_prob": 0.05, "rep_rate_hz": 82e6},
            "converter": {"n_modes": 2, "strategy": "heralded", "transmittance": 0.8},
            "run": {"seed": 23, "slots_per_trial": 400_000, "trials": 1},
        }
        report = execute_scenario(scenario_from_mapping(doc))
        assert report["trigger_count"] > 5 * 97  # the pipeline routed several pieces
        est = report["s_estimate"]
        assert abs(est["value"] - s_heralded(2, 0.8)) <= 4 * est["std_error"]

    @pytest.mark.parametrize("strategy", ["heralded", "clocked", "passive"])
    def test_rng_stream_and_its_generator_agree(self, strategy):
        # the benchmark's table hands an RngStream; the one conversion must not move a draw
        for i, (n, eta) in enumerate([(2, 0.72), (3, 0.5), (4, 0.9)]):
            by_stream = monte_carlo_efficiency(strategy, n, eta, 10_000, RngStream(29, (i,)))
            by_generator = monte_carlo_efficiency(strategy, n, eta, 10_000, RngStream(29, (i,)).generator())
            assert by_stream == by_generator

    @pytest.mark.parametrize("trials", [0, 2.5, True])
    def test_rejects_zero_trials(self, trials):
        # 2.5 and True are not trial counts, though 2.5 >= 1 and True == 1
        with pytest.raises(ValueError, match="trials must be an integer >= 1"):
            monte_carlo_efficiency("heralded", 3, 0.5, trials, RngStream(0).generator())

    @pytest.mark.parametrize("runs", [5.5, -5, True])
    def test_route_runs_rejects_non_counts(self, runs):
        with pytest.raises(ValueError, match="runs must be an integer >= 0"):
            route_runs(runs, heralded_params(), RngStream(0).generator())

    def test_route_runs_takes_numpy_counts(self):
        by_numpy = route_runs(np.int64(97), clocked_params(), RngStream(2).generator())
        by_int = route_runs(97, clocked_params(), RngStream(2).generator())
        assert by_numpy.success_count == by_int.success_count
        assert np.array_equal(by_numpy.port_counts, by_int.port_counts)

    def test_no_success_reports_an_upper_bound(self):
        # a converter that transmits nothing: the error is the Wilson bound 1/(T + 1), not 0
        assert monte_carlo_efficiency("heralded", 2, 0.0, 100, RngStream(0).generator()) == (0.0, 1.0 / 101)

    def test_all_success_reports_an_upper_bound(self):
        # an ideal heralded converter: every run succeeds, and the error is the
        # one-sided Wilson bound 1/(T + 1) on the missing failures, not 0
        cell = monte_carlo_efficiency("heralded", 3, 1.0, 500_000, RngStream(0).generator())
        assert cell == (1.0, 1.0 / 500_001)


class TestBatchContainer:
    def test_port_counts_table(self, landings):
        params = heralded_params(t=0.9, ports=(0.9, 0.9))
        batch = route_heralded_batch(50_000, params, RngStream(24).generator(),
                                     signal_det_efficiency=0.8)
        table = batch.port_counts
        assert table.shape == (2, 2) and table.dtype == np.int64
        # row i sums to the number of detected photon-i landings
        full = landings()
        assert np.array_equal(table.sum(axis=1), 50_000 - full[:, 2] - full[:, 3])
        assert batch.n_modes == 2 and batch.success_count <= table.diagonal().min()


def unequal_ports(n):
    return tuple(0.4 + 0.59 * i / max(n - 1, 1) for i in range(n))


class TestLawsAgainstReference:
    """The routers' per-photon laws equal the whole-array reference bit for bit.

    From n = 8 on, numpy's pairwise row sum and a left-to-right float sum
    differ, so n runs to 10.
    """

    T_VALUES = (1.0, 0.731, 0.3)
    ETA_D_VALUES = (1.0, 0.7, 0.079)

    @staticmethod
    def routed_laws(monkeypatch, params, eta_d):
        seen = []
        count_runs = converter._count_runs

        def spy(groups, laws, rng):
            seen.append([np.array(law) for law in laws])
            return count_runs(groups, laws, rng)

        monkeypatch.setattr(converter, "_count_runs", spy)
        route_runs(1_000, params, RngStream(30).generator(), eta_d)
        monkeypatch.undo()
        (laws,) = seen
        return laws

    @pytest.mark.parametrize("strategy,n", [
        (strategy, n) for strategy in ("heralded", "heralded-unequal", "clocked", "passive")
        for n in range(1, 11) if strategy != "clocked" or n >= 2  # clocked needs two modes
    ])
    def test_laws_are_bit_equal(self, monkeypatch, strategy, n):
        for t in self.T_VALUES:
            if strategy == "heralded":
                params = heralded_params(n=n, t=t)
            elif strategy == "heralded-unequal":
                params = heralded_params(n=n, t=t, ports=unequal_ports(n))
            elif strategy == "clocked":
                params = clocked_params(n=n, eta=t)
            else:
                params = passive_params(n=n)
            for eta_d in self.ETA_D_VALUES:
                laws = self.routed_laws(monkeypatch, params, eta_d)
                expected = reference_laws(params, eta_d)
                assert len(laws) == len(expected)
                for law, ref in zip(laws, expected):
                    assert law.dtype == ref.dtype and law.shape == ref.shape
                    assert law.tobytes() == ref.tobytes(), (t, eta_d, law - ref)

    @pytest.mark.parametrize("params", [heralded_params(n=3, t=0.731, ports=(0.9, 0.6, 0.75)),
                                        clocked_params(n=4, eta=0.72), passive_params(n=3)],
                             ids=["heralded", "clocked", "passive"])
    def test_fixed_seed_batch_matches_reference(self, params, landings):
        batch = route_runs(123_457, params, RngStream(31).generator(), 0.7)
        counts, successes = reference_count_route(123_457, params, RngStream(31).generator(), 0.7)
        assert np.array_equal(landings(), counts)
        assert np.array_equal(batch.port_counts, counts[:, :params.n_modes])
        assert batch.success_count == successes
