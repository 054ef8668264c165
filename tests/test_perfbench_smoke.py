"""The benchmark command runs its fixture workload and every check passes.

The benchmark's trace probes read ``HeraldStream`` fields and its
workloads call the public entry points, so a change to either shows here
as a non-zero exit or failed operations.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def _outputs():
    return sorted(OUT.iterdir()) if OUT.is_dir() else []


def test_fixture_workload_passes_its_checks():
    before = _outputs()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fixture", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0
    assert result["attempted"] > 0
    assert _outputs() == before  # an untraced run writes no spans
