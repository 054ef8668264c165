"""End-to-end runs: determinism, merging, reports, sweeps, calibration."""

import csv
import io
import json
import time
import tracemalloc

import numpy as np
import pytest

from photondemux import pipeline
from photondemux.analytic import s_heralded, s_passive, s_unheralded_clocked
from photondemux.config import (
    RunControls,
    Scenario,
    SweepGrid,
    apply_grid_point,
    config_digest,
    load_scenario,
    override_controls,
    scenario_from_mapping,
    scenario_to_mapping,
)
from photondemux.cli import main
from photondemux.converter import route_runs
from photondemux.model import ConfigError, RoutingStrategy
from photondemux.pipeline import (
    _check_memory,
    execute_scenario,
    report_digest_matches,
    run_analytic,
    run_calibrate,
    run_simulation,
    run_sweep,
    write_report,
    write_rows,
)
from photondemux.source import RngStream, generate_herald_stream, herald_block_histogram


def raw_scenario(**run_overrides):
    run = {"seed": 7, "slots_per_trial": 400_000, "trials": 2}
    run.update(run_overrides)
    return {
        "source": {"pair_prob": 0.05, "rep_rate_hz": 82e6, "herald_deadtime_slots": 4},
        "converter": {"n_modes": 2, "strategy": "heralded", "transmittance": 0.731,
                      "port_efficiencies": [0.998, 0.998]},
        "run": run,
    }


def scenario(**run_overrides):
    return scenario_from_mapping(raw_scenario(**run_overrides))


class TestConfigHandling:
    def test_load_scenario_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw_scenario()))
        sc = load_scenario(path)
        assert sc.config.source.pair_prob == 0.05
        assert sc.controls.trials == 2

    def test_parse_error_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"source": {,}}')
        with pytest.raises(ConfigError) as exc:
            load_scenario(path)
        assert "line 1" in exc.value.violations[0]

    def test_unknown_sections_and_keys_collected(self):
        raw = raw_scenario()
        raw["laser"] = {}
        raw["run"]["speed"] = 11
        with pytest.raises(ConfigError) as exc:
            scenario_from_mapping(raw)
        text = "\n".join(exc.value.violations)
        assert "laser" in text and "run.speed" in text

    def test_digest_invariant_under_key_reordering(self):
        raw = raw_scenario()
        reordered = {k: raw[k] for k in reversed(list(raw))}
        reordered["source"] = {k: raw["source"][k] for k in reversed(list(raw["source"]))}
        a = config_digest(scenario_to_mapping(scenario_from_mapping(raw)))
        b = config_digest(scenario_to_mapping(scenario_from_mapping(reordered)))
        assert a == b

    def test_digest_tracks_every_value(self):
        base = config_digest(scenario_to_mapping(scenario()))
        edits = [
            ("source", "pair_prob", 0.06),
            ("source", "herald_deadtime_slots", 1),
            ("converter", "transmittance", 0.5),
            ("converter", "strategy", "clocked"),
            ("run", "seed", 8),
            ("run", "trials", 3),
        ]
        for section, key, value in edits:
            raw = raw_scenario()
            raw[section][key] = value
            changed = config_digest(scenario_to_mapping(scenario_from_mapping(raw)))
            assert changed != base, (section, key)

    def test_digest_ignores_formatting_only_changes(self):
        # same normalized content through a file round trip
        a = config_digest(scenario_to_mapping(scenario()))
        echo = json.loads(json.dumps(scenario_to_mapping(scenario())))
        assert config_digest(echo) == a

    @pytest.mark.parametrize("section,key", [
        ("converter", "n_modes"),
        ("run", "slots_per_trial"),
        ("run", "seed"),
    ])
    def test_numpy_integer_gives_the_same_report_bytes(self, section, key):
        # the package's one integer rule takes numpy integers, and a config
        # field stores the Python int, so the echo and its digest are JSON
        reports = []
        for cast in (int, np.int64):
            raw = raw_scenario()
            raw[section][key] = cast(raw[section][key])
            sc = scenario_from_mapping(raw)
            assert type(getattr(sc.controls if section == "run" else sc.config.converter, key)) is int
            out = io.StringIO()
            write_report(run_simulation(sc), out)
            reports.append(out.getvalue())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("section,key", [
        ("run", "calibration_mode"),
    ])
    def test_flags_must_be_booleans(self, section, key):
        # the string "false" is truthy: accepting it would switch the flag on
        raw = raw_scenario()
        raw[section][key] = "false"
        with pytest.raises(ConfigError) as exc:
            scenario_from_mapping(raw)
        assert any(v.startswith(f"{section}.{key}:") for v in exc.value.violations)

    @pytest.mark.parametrize("section,key,value", [
        ("run", "seed", True),
        ("run", "slots_per_trial", True),
        ("run", "trials", True),
        ("run", "workers", True),
        ("source", "herald_deadtime_slots", False),  # False == 0, a valid deadtime
        ("source", "herald_deadtime_slots", True),
        ("converter", "n_modes", True),
        ("sweep", "n_modes", [True]),
    ])
    def test_integer_fields_reject_booleans(self, section, key, value):
        raw = raw_scenario()
        raw.setdefault(section, {})[key] = value
        with pytest.raises(ConfigError) as exc:
            scenario_from_mapping(raw)
        assert any(v.startswith(f"{section}.{key}:") for v in exc.value.violations)

    @pytest.mark.parametrize("section,key,value", [
        ("source", "pair_prob", True),
        ("source", "rep_rate_hz", True),
        ("converter", "transmittance", False),
        ("converter", "port_efficiencies", ["0.9", "0.9"]),
        ("converter", "port_efficiencies", [True, True]),
        ("sweep", "eta_sw", [True]),
    ])
    def test_numeric_fields_reject_booleans_and_strings(self, section, key, value):
        raw = raw_scenario()
        raw.setdefault(section, {})[key] = value
        with pytest.raises(ConfigError) as exc:
            scenario_from_mapping(raw)
        assert any(v.startswith(f"{section}.{key}") for v in exc.value.violations)

    @pytest.mark.parametrize("source", [
        {"herald_deadtime_s": "40e-9"},
        {"herald_deadtime_s": 40e-9, "rep_rate_hz": "82e6"},
    ])
    def test_deadtime_conversion_rejects_strings(self, source):
        raw = raw_scenario()
        del raw["source"]["herald_deadtime_slots"]
        raw["source"].update(source)
        with pytest.raises(ConfigError) as exc:
            scenario_from_mapping(raw)
        assert all(v.startswith("source.") for v in exc.value.violations)

    @pytest.mark.parametrize("deadtime", [
        {"herald_deadtime_slots": 2**63},
        {"herald_deadtime_s": 1e12},  # 8.2e19 slots at 82 MHz
    ])
    def test_deadtime_beyond_2_62_slots_rejected(self, deadtime):
        raw = raw_scenario()
        del raw["source"]["herald_deadtime_slots"]
        raw["source"].update(deadtime)
        with pytest.raises(ConfigError) as exc:
            scenario_from_mapping(raw)
        assert [v.partition(":")[0] for v in exc.value.violations] == ["source.herald_deadtime_slots"]

    def test_deadtime_of_2_62_slots_accepted(self):
        raw = raw_scenario()
        raw["source"]["herald_deadtime_slots"] = 2**62
        assert scenario_from_mapping(raw).config.source.herald_deadtime_slots == 2**62

    @pytest.mark.parametrize("axis,value", [
        ("eta_sw", 0.5),
        ("n_modes", 3),
        ("strategy", "heralded"),
    ])
    def test_sweep_axes_must_be_lists(self, axis, value):
        raw = raw_scenario()
        raw["sweep"] = {axis: value}
        with pytest.raises(ConfigError) as exc:
            scenario_from_mapping(raw)
        assert exc.value.violations == [f"sweep.{axis}: expected a list (got {value!r})"]

    def test_accepts_mappings_and_converts_deadtime(self):
        raw = raw_scenario()
        del raw["source"]["herald_deadtime_slots"]
        raw["source"]["herald_deadtime_s"] = 40e-9
        sc = scenario_from_mapping(raw)
        assert sc.config.source.herald_deadtime_slots == 4
        assert sc.config.converter.strategy is RoutingStrategy.ACTIVE_HERALDED
        assert sc.config.converter.n_modes == 2

    def test_collects_all_violations(self):
        raw = raw_scenario()
        raw["source"] = {"pair_prob": 7.0, "rep_rate_hz": -1.0, "telescope": True}
        # a bad strategy stops the field checks, so the unknown key keeps
        # the converter section contributing two violations
        raw["converter"] = {"n_modes": 0, "strategy": "psychic", "crystal": 1}
        with pytest.raises(ConfigError) as exc:
            scenario_from_mapping(raw)
        messages = "\n".join(exc.value.violations)
        assert len(exc.value.violations) >= 5
        assert "source.pair_prob" in messages
        assert "source.rep_rate_hz" in messages
        assert "source.telescope" in messages
        assert "converter.n_modes" in messages
        assert "strategy" in messages

    def test_deadtime_given_both_ways_is_a_violation(self):
        raw = raw_scenario()
        raw["source"]["herald_deadtime_s"] = 40e-9
        with pytest.raises(ConfigError) as exc:
            scenario_from_mapping(raw)
        assert any("not both" in v for v in exc.value.violations)

    def test_every_section_reported_in_one_pass(self):
        raw = raw_scenario(trials=0)
        raw["source"]["pair_prob"] = 2
        raw["converter"]["n_modes"] = 0
        raw["sweep"] = {"eta_sw": [3]}
        with pytest.raises(ConfigError) as exc:
            scenario_from_mapping(raw)
        assert [v.partition(":")[0] for v in exc.value.violations] == [
            "source.pair_prob", "converter.n_modes", "run.trials", "sweep.eta_sw"]

    def test_missing_required_key_is_named(self):
        raw = raw_scenario()
        raw["source"] = {"herald_deadtime_s": 4e-8, "pair_prob": 0.1}
        with pytest.raises(ConfigError) as exc:
            scenario_from_mapping(raw)
        assert exc.value.violations == ["source.rep_rate_hz: missing key"]

    def test_missing_key_does_not_hide_other_violations(self):
        raw = raw_scenario()
        raw["source"] = {"pair_prob": 2}
        raw["converter"] = {"strategy": "clocked"}
        with pytest.raises(ConfigError) as exc:
            scenario_from_mapping(raw)
        assert exc.value.violations == [
            "source.rep_rate_hz: missing key",
            "source.pair_prob: probability out of range (got 2, expected 0..1)",
            "converter.n_modes: missing key",
        ]

    @pytest.mark.parametrize("value", [0.9, "0.9"], ids=["number", "string"])
    def test_scalar_port_efficiencies_rejected(self, value):
        raw = raw_scenario()
        raw["converter"]["port_efficiencies"] = value
        with pytest.raises(ConfigError) as exc:
            scenario_from_mapping(raw)
        assert exc.value.violations == [f"converter.port_efficiencies: expected a list (got {value!r})"]

    @pytest.mark.parametrize("raw", [[1, 2], "abc", None], ids=["list", "str", "none"])
    def test_top_level_must_be_a_mapping(self, raw):
        with pytest.raises(ConfigError) as exc:
            scenario_from_mapping(raw)
        assert exc.value.violations == [f"top level: expected a mapping (got {type(raw).__name__})"]

    @pytest.mark.parametrize("section,value,message", [
        ("sweep", {"bogus": [1]}, "sweep.bogus: unknown key"),
        ("sweep", {"strategy": ["nope"]},
         "sweep.strategy: unknown value 'nope' (expected one of heralded, clocked, passive)"),
        ("converter", None, "converter: missing section"),
        ("source", 5, "source: expected a mapping"),
    ])
    def test_malformed_section_is_named(self, section, value, message):
        raw = raw_scenario()
        if value is None:
            del raw[section]
        else:
            raw[section] = value
        with pytest.raises(ConfigError) as exc:
            scenario_from_mapping(raw)
        assert exc.value.violations == [message]

    def test_deadtime_with_a_bad_rate_reports_the_rate_once(self):
        raw = raw_scenario()
        del raw["source"]["herald_deadtime_slots"]
        raw["source"].update(herald_deadtime_s=40e-9, rep_rate_hz="82e6")
        with pytest.raises(ConfigError) as exc:
            scenario_from_mapping(raw)
        assert exc.value.violations == ["source.rep_rate_hz: expected a finite number > 0 (got '82e6')"]

    def test_controls_replace(self):
        ctl = RunControls(seed=1, trials=4)
        assert ctl.replace(seed=9).seed == 9
        assert ctl.replace(seed=9).trials == 4

    def test_controls_validation(self):
        with pytest.raises(ConfigError):
            RunControls(seed=-1)
        with pytest.raises(ConfigError):
            RunControls(trials=0)
        with pytest.raises(ConfigError):
            RunControls(workers=0)


class TestDeterminism:
    def test_identical_runs_are_byte_identical(self):
        m1 = execute_scenario(scenario())
        m2 = execute_scenario(scenario())
        assert json.dumps(m1, sort_keys=True) == json.dumps(m2, sort_keys=True)

    def test_seed_changes_raw_counts(self):
        m1 = execute_scenario(scenario(seed=7))
        m2 = execute_scenario(scenario(seed=8))
        assert m1["herald_count"] != m2["herald_count"]
        assert m1["config"]["source"] == m2["config"]["source"]

    def test_worker_count_does_not_change_counts(self):
        serial = execute_scenario(scenario(workers=1, trials=3))
        threaded = execute_scenario(scenario(workers=3, trials=3))
        for mapping in (serial, threaded):  # the echo records the knob itself
            del mapping["config"], mapping["config_digest"]
        assert serial == threaded

    def test_progress_reports_every_trial_with_workers(self):
        seen = []
        run_simulation(scenario(workers=2, trials=3), progress=seen.append)
        assert seen == ["trial 1/3", "trial 2/3", "trial 3/3"]

    def test_threaded_trials_queue_at_most_four_per_worker(self, monkeypatch):
        started, queued_ahead = [], []
        real = pipeline._simulate_trial

        def spy(scenario, grid_index, trial):
            started.append(trial)
            return real(scenario, grid_index, trial)

        monkeypatch.setattr(pipeline, "_simulate_trial", spy)
        seen = []

        def progress(message):  # a slow consumer: the workers must not run ahead
            seen.append(message)
            queued_ahead.append(len(started) - len(seen))
            time.sleep(0.02)

        threaded = run_simulation(scenario(workers=2, trials=20, slots_per_trial=20_000), progress=progress)
        serial = execute_scenario(scenario(workers=1, trials=20, slots_per_trial=20_000))
        assert seen == [f"trial {t}/20" for t in range(1, 21)]
        assert max(queued_ahead) < 4 * 2
        for mapping in (serial, threaded):
            del mapping["config"], mapping["config_digest"]
        assert serial == threaded

    def test_report_file_round_trip(self, tmp_path):
        path = tmp_path / "report.json"
        mapping = run_simulation(scenario())
        write_report(mapping, path)
        on_disk = json.loads(path.read_text())
        assert on_disk == mapping
        assert report_digest_matches(on_disk)

    def test_two_written_reports_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_report(run_simulation(scenario()), p1)
        write_report(run_simulation(scenario()), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestEstimatorConsistency:
    def test_heralded_estimate_converges_to_closed_form(self):
        est = execute_scenario(scenario(slots_per_trial=1_500_000, trials=2))["s_estimate"]
        expected = s_heralded(2, 1.0) * 0.731**2 * 0.998**2 / 1.0  # t^2 eta1 eta2
        assert abs(est["value"] - expected) < 4 * est["std_error"]

    def test_clocked_estimate_converges(self):
        raw = raw_scenario(slots_per_trial=1_500_000, trials=2)
        raw["converter"] = {"n_modes": 2, "strategy": "clocked", "transmittance": 0.72}
        est = execute_scenario(scenario_from_mapping(raw))["s_estimate"]
        assert abs(est["value"] - s_unheralded_clocked(2, 0.72)) < 4 * est["std_error"]

    def test_passive_estimate_converges(self):
        raw = raw_scenario(slots_per_trial=1_500_000, trials=2)
        raw["converter"] = {"n_modes": 2, "strategy": "passive"}
        est = execute_scenario(scenario_from_mapping(raw))["s_estimate"]
        assert abs(est["value"] - s_passive(2)) < 4 * est["std_error"]

    def test_ideal_pipeline_is_lossless(self):
        raw = raw_scenario()
        raw["converter"] = {"n_modes": 2, "strategy": "heralded"}
        rep = execute_scenario(scenario_from_mapping(raw))
        assert rep["s_estimate"]["value"] == pytest.approx(1.0)
        assert rep["coincidence_count"] == rep["trigger_count"]

    def test_error_shrinks_with_slots(self):
        small = execute_scenario(scenario(slots_per_trial=200_000))["s_estimate"]
        big = execute_scenario(scenario(slots_per_trial=3_200_000))["s_estimate"]
        ratio = small["std_error"] / big["std_error"]
        assert ratio == pytest.approx(4.0, rel=0.25)  # 16x slots -> 4x smaller


class TestCalibration:
    def test_measured_p_is_used_and_reported(self):
        raw = raw_scenario(calibration_mode=True, slots_per_trial=1_000_000)
        raw["source"]["signal_det_efficiency"] = 0.079
        mapping = run_calibrate(scenario_from_mapping(raw))
        p_hat = mapping["p_h1_eta_d"]
        n_heralds = mapping["herald_count"]
        assert abs(p_hat - 0.079) < 5 * np.sqrt(0.079 * 0.921 / n_heralds)
        assert mapping["p_h1_eta_d_rel_error"] > 0

    def test_uncalibrated_uses_configured_value(self):
        raw = raw_scenario()
        raw["source"]["signal_det_efficiency"] = 0.3
        mapping = run_simulation(scenario_from_mapping(raw))
        assert mapping["p_h1_eta_d"] == 0.3
        assert mapping["p_h1_eta_d_rel_error"] == 0.0

    def test_estimate_still_recovers_efficiency(self):
        raw = raw_scenario(calibration_mode=True, slots_per_trial=2_000_000, trials=2)
        raw["source"]["signal_det_efficiency"] = 0.3
        mapping = run_calibrate(scenario_from_mapping(raw))
        expected = 0.731**2 * 0.998**2
        est = mapping["s_estimate"]
        assert abs(est["value"] - expected) < 4 * est["std_error"]


class TestFailureModes:
    def test_impossible_long_runs_explain_deadtime(self):
        raw = raw_scenario()
        raw["converter"] = {"n_modes": 3, "strategy": "heralded"}
        with pytest.raises(ValueError, match="deadtime"):
            execute_scenario(scenario_from_mapping(raw))

    def test_no_coincidence_reports_an_upper_bound(self):
        # a converter that transmits nothing: triggers but no coincidence
        raw = raw_scenario(slots_per_trial=200_000)
        raw["converter"]["transmittance"] = 0.0
        report = execute_scenario(scenario_from_mapping(raw))
        triggers = report["trigger_count"]
        assert triggers > 0 and report["coincidence_count"] == 0
        est = report["s_estimate"]
        assert est["value"] == 0.0
        assert est["std_error"] == pytest.approx(1.0 / (triggers + 1) / report["p_h1_eta_d"] ** 2)

    def test_empty_stream_reports_no_runs(self):
        raw = raw_scenario()
        raw["source"]["pair_prob"] = 0.0
        with pytest.raises(ValueError, match="no runs"):
            execute_scenario(scenario_from_mapping(raw))


class TestSweep:
    def test_single_point_sweep_equals_plain_run(self):
        rows = run_sweep(scenario())
        report = run_simulation(scenario())
        assert len(rows) == 1
        assert rows[0]["s_estimate"] == report["s_estimate"]["value"]
        assert rows[0]["std_error"] == report["s_estimate"]["std_error"]

    def test_grid_rows_and_csv(self, tmp_path):
        raw = raw_scenario(slots_per_trial=600_000, trials=1)
        raw["source"]["herald_deadtime_slots"] = 0
        raw["source"]["pair_prob"] = 0.2
        raw["sweep"] = {"strategy": ["clocked"], "n_modes": [2, 3, 4], "eta_sw": [1.0]}
        out = tmp_path / "sweep.csv"
        rows = run_sweep(scenario_from_mapping(raw))
        write_rows(rows, out)
        assert [r["n"] for r in rows] == [2, 3, 4]
        for row in rows:
            expected = 1.0 / row["n"]
            assert abs(row["s_estimate"] - expected) < 4 * max(row["std_error"], 1e-9)
        text = out.read_text().splitlines()
        assert text[0] == "strategy,n,eta_sw,s_estimate,std_error"
        # full-precision round trip
        for line, row in zip(text[1:], rows):
            cells = line.split(",")
            assert float(cells[3]) == row["s_estimate"]

    def test_eta_grid_matches_square_law(self):
        raw = raw_scenario(slots_per_trial=600_000, trials=1)
        raw["sweep"] = {"eta_sw": [0.5, 0.72, 1.0]}
        rows = run_sweep(scenario_from_mapping(raw))
        for row in rows:
            expected = row["eta_sw"] ** 2
            assert abs(row["s_estimate"] - expected) < 4 * max(row["std_error"], 1e-9)

    def test_strategy_filter_overrides_grid(self):
        raw = raw_scenario(slots_per_trial=400_000, trials=1)
        raw["sweep"] = {"strategy": ["heralded", "clocked"]}
        rows = run_sweep(scenario_from_mapping(raw), strategy="passive")
        assert [r["strategy"] for r in rows] == ["passive"]

    def test_bad_point_refused_before_any_simulation(self, monkeypatch):
        # the second point is a one-mode clocked converter, which the converter refuses
        raw = raw_scenario(slots_per_trial=400_000, trials=1)
        raw["sweep"] = {"strategy": ["clocked"], "n_modes": [2, 1]}
        simulated = []
        monkeypatch.setattr(pipeline, "_simulate_trial", lambda *args: simulated.append(args))
        seen = []
        with pytest.raises(ConfigError) as exc:
            run_sweep(scenario_from_mapping(raw), progress=seen.append)
        assert exc.value.violations == ["sweep.n_modes: clocked routing needs n_modes >= 2 (got 1)"]
        assert seen == []  # no grid point started, so no trial either
        assert simulated == []
        # a grid built in code may hold n_modes 0: the point is refused, not read as the base n
        base = scenario(slots_per_trial=400_000, trials=1)
        zero = Scenario(base.config, base.controls, SweepGrid(n_modes=(0,), eta_sw=(0.5,)))
        with pytest.raises(ConfigError) as exc:
            run_sweep(zero, progress=seen.append)
        assert exc.value.violations == ["sweep.n_modes: expected integer >= 1 (got 0)"]
        assert seen == [] and simulated == []

    def test_unreachable_run_length_refused_before_any_point(self, monkeypatch):
        # at a 4-slot deadtime two detectors herald at most 2 in a row
        raw = raw_scenario(slots_per_trial=400_000, trials=1)
        raw["sweep"] = {"n_modes": [2, 3]}
        simulated = []
        monkeypatch.setattr(pipeline, "_simulate_trial", lambda *args: simulated.append(args))
        seen = []
        with pytest.raises(ConfigError) as exc:
            run_sweep(scenario_from_mapping(raw), progress=seen.append)
        assert exc.value.violations == [
            "sweep.n_modes: no run of 3 consecutive heralds can occur: with a 4-slot deadtime the"
            " two alternating detectors herald at most 2 in a row; use a deadtime of 0 or 1 slots"]
        assert seen == []
        assert simulated == []

    def test_grid_points_use_distinct_substreams(self):
        raw = raw_scenario(slots_per_trial=400_000, trials=1)
        raw["sweep"] = {"eta_sw": [0.8, 0.8]}  # same physics, different grid index
        rows = run_sweep(scenario_from_mapping(raw))
        assert rows[0]["s_estimate"] != rows[1]["s_estimate"]


class TestAnalyticTable:
    def test_table_values(self, tmp_path):
        out = tmp_path / "curves.csv"
        rows = run_analytic(4, 1.0)
        write_rows(rows, out)
        by_n = {r["n"]: r for r in rows}
        assert by_n[2]["heralded"] == 1.0
        assert by_n[2]["clocked"] == 0.5
        assert by_n[2]["passive"] == 0.25
        assert by_n[1]["clocked"] is None
        lines = out.read_text().splitlines()
        assert lines[0] == "n,heralded,clocked,passive"
        assert lines[2].startswith("2,1.0,0.5,0.25")

    def test_zero_efficiency_column(self):
        rows = run_analytic(2, 0.0)
        assert all(r["heralded"] == 0.0 for r in rows)

    def test_monotone_columns_at_measured_eta(self):
        rows = run_analytic(8, 0.72)
        clocked = [r["clocked"] for r in rows if r["clocked"] is not None]
        passive = [r["passive"] for r in rows]
        assert all(a >= b for a, b in zip(clocked, clocked[1:]))
        assert all(a > b for a, b in zip(passive, passive[1:]))

    def test_csv_reads_back_as_rows(self, tmp_path):
        out = tmp_path / "curves.csv"
        rows = run_analytic(6, 0.72)
        write_rows(rows, out)
        with open(out, newline="") as fh:
            read = [
                {k: (int(v) if k == "n" else float(v) if v else None) for k, v in row.items()}
                for row in csv.DictReader(fh)
            ]
        assert read == rows


class TestGridOverrides:
    def test_apply_strategy_and_modes(self):
        raw = raw_scenario()
        raw["source"]["herald_deadtime_slots"] = 1  # two detectors can herald three in a row
        out = apply_grid_point(scenario_from_mapping(raw), (RoutingStrategy.PASSIVE_BEAMSPLITTER, 3, None))
        assert out.config.converter.strategy is RoutingStrategy.PASSIVE_BEAMSPLITTER
        assert out.config.converter.n_modes == 3
        assert out.config.converter.port_efficiencies == (1.0, 1.0, 1.0)

    def test_apply_eta_rebuilds_lossless(self):
        sc = scenario()
        out = apply_grid_point(sc, (None, None, 0.8))
        assert out.config.converter.transmittance == 0.8
        assert out.config.converter.port_efficiencies == (1.0, 1.0)

    def test_none_point_keeps_converter(self):
        sc = scenario()
        out = apply_grid_point(sc, (None, None, None))
        assert out.config.converter == sc.config.converter

    def test_sweep_grid_points(self):
        grid = SweepGrid(strategies=(RoutingStrategy.ACTIVE_CLOCKED,), n_modes=(2, 3), eta_sw=())
        pts = grid.points()
        assert len(pts) == 2
        assert pts[0] == (RoutingStrategy.ACTIVE_CLOCKED, 2, None)


class TestReportFiles:
    def test_write_and_read(self, tmp_path):
        path = tmp_path / "r.json"
        mapping = run_simulation(scenario())
        write_report(mapping, path)
        assert path.read_text().endswith("\n")
        assert json.loads(path.read_text()) == mapping

    def test_report_contains_config_echo(self):
        mapping = run_simulation(scenario())
        assert mapping["config"]["source"]["pair_prob"] == 0.05
        assert mapping["config"]["run"]["seed"] == 7
        assert mapping["s_estimate"]["method"] == "counting_pipeline"

    def test_ideal_converter_lands_every_photon_on_its_port(self):
        # eta_D = 1 and a lossless heralded converter: the landing table is
        # the trigger count on the diagonal and nothing else
        raw = raw_scenario()
        raw["converter"] = {"n_modes": 2, "strategy": "heralded"}
        mapping = run_simulation(scenario_from_mapping(raw))
        triggers = mapping["trigger_count"]
        assert triggers > 0
        assert mapping["port_counts"] == (triggers * np.eye(2, dtype=int)).tolist()

    @pytest.mark.parametrize("section,key,value", [
        ("source", "multi_pair_enabled", False),
        ("run", "herald_signal_offset_slots", 0),
    ])
    def test_removed_keys_are_refused(self, tmp_path, capsys, section, key, value):
        raw = raw_scenario()
        raw[section][key] = value
        with pytest.raises(ConfigError) as exc:
            scenario_from_mapping(raw)
        assert exc.value.violations == [f"{section}.{key}: unknown key"]
        path = tmp_path / "old.json"
        path.write_text(json.dumps(raw))
        assert main(["simulate", "--config", str(path)]) == 2
        assert f"{section}.{key}: unknown key" in capsys.readouterr().err

    def test_overrides_change_controls(self):
        mapping = run_simulation(override_controls(scenario(), seed=123, slots_per_trial=250_000, trials=1))
        assert mapping["seed"] == 123
        assert mapping["slots_simulated"] == 250_000


class TestStreamTallies:
    def test_single_mode_triggers_on_every_herald(self):
        # a herald outside every cluster is a run of one: it counts too
        raw = raw_scenario(trials=1)
        raw["converter"] = {"n_modes": 1, "strategy": "heralded"}
        rep = execute_scenario(scenario_from_mapping(raw))
        assert rep["trigger_count"] == rep["herald_count"] > 0

    def test_calibration_draws_on_every_herald(self):
        # the bypass measurement sees every herald, clustered or isolated
        raw = raw_scenario(calibration_mode=True)
        raw["source"]["signal_det_efficiency"] = 0.5
        rep = execute_scenario(scenario_from_mapping(raw))
        p = rep["p_h1_eta_d"]
        detected = (1.0 - p) / rep["p_h1_eta_d_rel_error"] ** 2
        assert detected / p == pytest.approx(rep["herald_count"], rel=1e-9)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("trials", [1, 3, 8])
    def test_one_route_call_per_grid_point(self, monkeypatch, trials, workers):
        routed = []
        real = pipeline.route_runs

        def spy(runs, *args, **kwargs):
            routed.append(runs)
            return real(runs, *args, **kwargs)

        monkeypatch.setattr(pipeline, "route_runs", spy)
        rep = execute_scenario(scenario(trials=trials, workers=workers))
        assert routed == [rep["trigger_count"]]

    def test_counts_are_sums_of_trial_histograms(self):
        # a trial draws only its stream, on key (grid index, trial); at deadtime 0
        # and pair_prob 0.7 (K = 16) the longest blocks of the placed clusters
        # differ by trial, so the merge pads both ways
        raw = raw_scenario(trials=3, slots_per_trial=100_000)
        raw["source"].update(pair_prob=0.7, herald_deadtime_slots=0)
        sc = scenario_from_mapping(raw)
        rep = execute_scenario(sc)
        heralds = triggers = 0
        sizes = []
        for t in range(3):
            stream = generate_herald_stream(sc.config.source, 100_000, RngStream(7, (0, t)).generator())
            hist = herald_block_histogram(stream)
            lengths = np.arange(hist.size)
            heralds += int(hist @ lengths)
            triggers += int(hist @ (lengths // 2))
            sizes.append(hist.size)
        assert sizes[0] < sizes[1] > sizes[2]
        assert (rep["herald_count"], rep["trigger_count"]) == (heralds, triggers)

    def test_point_routes_and_calibrates_once_on_its_own_key(self):
        raw = raw_scenario(calibration_mode=True, trials=8)
        raw["source"]["signal_det_efficiency"] = 0.5
        sc = scenario_from_mapping(raw)
        rep = execute_scenario(sc)
        gen = RngStream(7, (0,)).generator()
        batch = route_runs(rep["trigger_count"], sc.config.converter, gen, 0.5)
        detected = int(gen.binomial(rep["herald_count"], 0.5))
        assert rep["port_counts"] == batch.port_counts.tolist()
        assert rep["coincidence_count"] == batch.success_count
        assert rep["p_h1_eta_d"] == detected / rep["herald_count"]


class TestMemoryGuard:
    def test_oversized_trial_refused_before_allocating(self, tmp_path, capsys):
        doc = raw_scenario(slots_per_trial=10**13, trials=1)
        doc["source"]["pair_prob"] = 0.5
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        tracemalloc.start()
        try:
            status = main(["simulate", "--config", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status == 2
        assert peak < 10 * 2**20
        assert "bytes of herald-stream arrays" in capsys.readouterr().err

    def test_experiment_fixture_accepted(self):
        # the acceptance gate's run: 8 trials of 1e10 slots at the two-mode point
        raw = raw_scenario(slots_per_trial=10**10, trials=8, workers=2)
        raw["source"]["pair_prob"] = 0.0043882
        _check_memory(scenario_from_mapping(raw))
