"""Command-line verbs: outputs, overrides, and exit-status contract."""

import json
import os
from pathlib import Path
import subprocess
import sys

import pytest

from photondemux import pipeline
from photondemux.cli import build_parser, main
from photondemux.pipeline import report_digest_matches


@pytest.fixture
def config_path(tmp_path):
    doc = {
        "source": {"pair_prob": 0.05, "rep_rate_hz": 82e6, "herald_deadtime_slots": 4},
        "converter": {"n_modes": 2, "strategy": "heralded", "transmittance": 0.731,
                      "port_efficiencies": [0.998, 0.998]},
        "run": {"seed": 11, "slots_per_trial": 300_000, "trials": 1},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


class TestAnalyticVerb:
    def test_stdout_table(self, capsys):
        assert main(["analytic", "--n-max", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,heralded,clocked,passive"
        assert lines[1] == "1,1.0,,1.0"
        assert lines[2] == "2,1.0,0.5,0.25"
        assert len(lines) == 4

    def test_csv_file(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        assert main(["analytic", "--n-max", "4", "--eta-sw", "0.72", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        rows = out.read_text().splitlines()
        assert len(rows) == 5
        assert float(rows[1].split(",")[1]) == 0.72  # heralded n=1

    def test_bad_domain_is_run_error(self, capsys):
        assert main(["analytic", "--n-max", "1"]) == 1
        assert "error: run:" in capsys.readouterr().err


class TestSimulateVerb:
    def test_report_file(self, tmp_path, config_path):
        out = tmp_path / "report.json"
        assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["seed"] == 11
        assert report["trigger_count"] > 0
        assert report_digest_matches(report)

    def test_stdout_report(self, config_path, capsys):
        assert main(["simulate", "--config", str(config_path)]) == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["config"]["converter"]["n_modes"] == 2
        assert "trial 1/1" in captured.err  # progress stays off stdout

    def test_flag_overrides(self, config_path, capsys):
        assert main(["simulate", "--config", str(config_path),
                     "--seed", "99", "--slots", "200000", "--trials", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["seed"] == 99
        assert report["slots_simulated"] == 400_000

    def test_config_violations_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "source": {"pair_prob": 1.2, "rep_rate_hz": -1.0},
            "converter": {"n_modes": 0, "strategy": "quantum"},
        }))
        assert main(["simulate", "--config", str(bad)]) == 2
        err_lines = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error: config:")]
        assert len(err_lines) >= 4  # every violation listed, not just the first

    def test_every_section_listed_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "source": {"pair_prob": 2, "rep_rate_hz": 82e6},
            "converter": {"n_modes": 0},
            "run": {"trials": 0},
            "sweep": {"eta_sw": [3]},
        }))
        assert main(["simulate", "--config", str(bad)]) == 2
        err_lines = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error: config:")]
        assert [l.split()[2] for l in err_lines] == [
            "source.pair_prob:", "converter.n_modes:", "run.trials:", "sweep.eta_sw:"]

    @pytest.mark.parametrize("flag,key", [
        ("--trials", "run.trials"),
        ("--slots", "run.slots_per_trial"),
    ])
    def test_out_of_range_override_exit_2(self, config_path, capsys, flag, key):
        assert main(["simulate", "--config", str(config_path), flag, "0"]) == 2
        assert f"error: config: {key}: expected integer >= 1 (got 0)" in capsys.readouterr().err

    @pytest.mark.parametrize("slots,code", [(2**62, 0), (10**19, 2)])
    def test_slots_bounded_by_2_62(self, tmp_path, capsys, slots, code):
        # a sparse one-mode source keeps a 2**62-slot trial cheap
        path = tmp_path / "sparse.json"
        path.write_text(json.dumps({
            "source": {"pair_prob": 1e-15, "rep_rate_hz": 82e6, "herald_deadtime_slots": 4},
            "converter": {"n_modes": 1},
            "run": {"trials": 1},
        }))
        assert main(["simulate", "--config", str(path), "--slots", str(slots)]) == code
        err = capsys.readouterr().err
        assert ("error: config: run.slots_per_trial:" in err) == (code == 2)

    def test_string_deadtime_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "source": {"pair_prob": 0.05, "rep_rate_hz": 82e6, "herald_deadtime_s": "40e-9"},
            "converter": {"n_modes": 2},
        }))
        assert main(["simulate", "--config", str(bad)]) == 2
        assert "error: config: source.herald_deadtime_s:" in capsys.readouterr().err

    def test_tiny_pair_prob_exit_2(self, tmp_path, capsys):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({
            "source": {"pair_prob": 1e-17, "rep_rate_hz": 82e6},
            "converter": {"n_modes": 2},
            "run": {"slots_per_trial": 1_000_000, "trials": 1},
        }))
        assert main(["simulate", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: config: source.pair_prob: expected 0 or at least 1e-16 (got 1e-17)\n")

    def test_single_mode_clocked_exit_2(self, tmp_path, capsys):
        path = tmp_path / "clocked.json"
        path.write_text(json.dumps({
            "source": {"pair_prob": 0.05, "rep_rate_hz": 82e6},
            "converter": {"n_modes": 1, "strategy": "clocked"},
        }))
        assert main(["simulate", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: config: converter.n_modes: clocked routing needs n_modes >= 2 (got 1)\n")

    def test_unreachable_run_length_exit_2(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "long_runs.json"
        path.write_text(json.dumps({
            "source": {"pair_prob": 0.05, "rep_rate_hz": 82e6, "herald_deadtime_slots": 4},
            "converter": {"n_modes": 3},
        }))
        simulated = []
        monkeypatch.setattr(pipeline, "_simulate_trial", lambda *args: simulated.append(args))
        assert main(["simulate", "--config", str(path)]) == 2
        assert simulated == []  # refused before any trial
        assert capsys.readouterr().err == (
            "error: config: converter.n_modes: no run of 3 consecutive heralds can occur: with a"
            " 4-slot deadtime the two alternating detectors herald at most 2 in a row; use a"
            " deadtime of 0 or 1 slots\n")

    @pytest.mark.parametrize("content,message", [
        (b"\xff{}", "parse error at byte 0: not UTF-8 (invalid start byte)"),
        (b"[1, 2]", "top level: expected a mapping (got list)"),
    ], ids=["not_utf8", "list"])
    def test_malformed_document_exit_2(self, tmp_path, capsys, content, message):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert main(["simulate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: ") and err.rstrip("\n").endswith(message)

    def test_missing_file_exit_3(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 3
        assert "error: io:" in capsys.readouterr().err

    def test_runtime_failure_exit_1(self, tmp_path, capsys):
        doc = {
            "source": {"pair_prob": 1e-05, "rep_rate_hz": 82e6},
            "converter": {"n_modes": 2, "strategy": "heralded"},
            "run": {"slots_per_trial": 1000, "trials": 1},
        }
        path = tmp_path / "sparse.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(path)]) == 1
        assert "error: run: no runs" in capsys.readouterr().err

    def test_wide_deadtime_runs_as_a_module(self, tmp_path):
        # a 3000-slot deadtime counts no cluster (K = 1): every cluster is placed
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({
            "source": {"pair_prob": 0.3, "rep_rate_hz": 82e6, "herald_deadtime_slots": 3000},
            "converter": {"n_modes": 2},
            "run": {"slots_per_trial": 100_000, "trials": 1},
        }))
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-m", "photondemux.cli", "simulate", "--config", str(path)],
                              cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
        # each detector fires at most once per 3001 slots
        assert 0 < json.loads(proc.stdout)["herald_count"] <= 2 * -(-100_000 // 3001)


class TestSweepVerb:
    def test_csv_output(self, tmp_path, config_path):
        out = tmp_path / "sweep.csv"
        cfg = json.loads(config_path.read_text())
        cfg["sweep"] = {"eta_sw": [0.6, 1.0]}
        config_path.write_text(json.dumps(cfg))
        assert main(["sweep", "--config", str(config_path), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "strategy,n,eta_sw,s_estimate,std_error"
        assert len(lines) == 3
        assert lines[1].split(",")[2] == "0.6"

    def test_degenerate_sweep_on_stdout(self, config_path, capsys):
        assert main(["sweep", "--config", str(config_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("heralded,2,")

    def test_strategy_filter(self, config_path, capsys):
        assert main(["sweep", "--config", str(config_path), "--strategy", "passive"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("passive,2,")

    def test_unknown_strategy_rejected_by_parser(self, config_path):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(config_path), "--strategy", "optimal"])
        assert exc.value.code == 2


class TestCalibrateVerb:
    def test_measured_probability_reported(self, tmp_path, capsys):
        doc = {
            "source": {"pair_prob": 0.05, "rep_rate_hz": 82e6,
                       "herald_deadtime_slots": 4, "signal_det_efficiency": 0.3},
            "converter": {"n_modes": 2, "strategy": "heralded"},
            "run": {"seed": 5, "slots_per_trial": 400_000, "trials": 1},
        }
        path = tmp_path / "cal.json"
        path.write_text(json.dumps(doc))
        assert main(["calibrate", "--config", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["run"]["calibration_mode"] is True
        assert abs(report["p_h1_eta_d"] - 0.3) < 0.02
        assert report["p_h1_eta_d_rel_error"] > 0

    def test_zero_delivered_photons_exit_1(self, tmp_path, capsys):
        doc = {
            "source": {"pair_prob": 0.05, "rep_rate_hz": 82e6,
                       "herald_deadtime_slots": 4, "signal_det_efficiency": 0},
            "converter": {"n_modes": 2, "strategy": "heralded"},
            "run": {"seed": 5, "slots_per_trial": 100_000, "trials": 1},
        }
        path = tmp_path / "cal.json"
        path.write_text(json.dumps(doc))
        assert main(["calibrate", "--config", str(path)]) == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: run: calibration measured zero delivered photons; cannot form the estimator")


@pytest.mark.parametrize("verb", ["analytic", "simulate", "sweep", "calibrate"])
def test_stdout_and_out_file_are_the_same_bytes(verb, config_path, tmp_path, capsys):
    if verb == "analytic":
        args = [verb, "--n-max", "5", "--eta-sw", "0.72"]
    else:
        args = [verb, "--config", str(config_path), "--seed", "7"]
    assert main(args) == 0
    printed = capsys.readouterr().out.encode()
    out = tmp_path / "written"
    assert main(args + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == printed
    assert b"\r" not in printed


class TestParser:
    def test_program_name(self):
        assert build_parser().prog == "photondemux"

    def test_verb_required(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_verb(self):
        with pytest.raises(SystemExit) as exc:
            main(["optimize"])
        assert exc.value.code == 2

    def test_config_flag_required(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate"])
        assert exc.value.code == 2
