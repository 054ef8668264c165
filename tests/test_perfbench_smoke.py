"""The benchmark command runs its workloads and every check passes.

The benchmark's trace probes read ``HeraldStream`` and ``RoutingBatch``
fields and wrap the converter's ``route_*_batch`` names, and its
workloads call the public entry points, so a change to either shows here
as a non-zero exit, failed operations or a wrong count.  A traced run
also checks that no detector heralds twice within its deadtime and that
the report bytes are the same at one and two workers.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def _outputs():
    return sorted(OUT.iterdir()) if OUT.is_dir() else []


def _run_untraced(workload: str) -> str:
    before = _outputs()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0
    assert result["attempted"] > 0
    assert _outputs() == before  # an untraced run writes no spans
    return proc.stdout


def test_fixture_workload_passes_its_checks():
    _run_untraced("fixture")


def test_mc_table_counts_every_routed_run():
    # the traced counting repetition finds the converter's routing names
    # through their wrappers: 21 cells x 500,000 runs
    stdout = _run_untraced("mc_table")
    assert "10500000 routed runs each" in stdout


def test_sweep_workload_passes_its_checks():
    # deadtime 0: the deadtime resolver is bypassed, and n = 3 and 4 are reachable
    _run_untraced("sweep")


def test_dense_workload_passes_its_checks():
    # about half of the arrivals lie in clusters of three or more, so the
    # deadtime's pointer-doubling pass is under the byte and 5-SE checks
    _run_untraced("dense")


def test_traced_fixture_passes_its_checks():
    # traced, with repetitions at two workers; the spans go to the
    # git-ignored perfbench/out/
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fixture", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0
    assert result["attempted"] > 0
