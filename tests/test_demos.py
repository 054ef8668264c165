"""Every demo script runs to completion against the current package API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
CSV_DEMOS = {"closed_form_curves", "strategy_sweep"}


def tree_state(root):
    return {path: path.stat().st_mtime_ns for path in root.rglob("*")}


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_cleanly(script, tmp_path):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    before = tree_state(ROOT / "demos")
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    # a demo writes its output where it is run, never into the checkout
    assert tree_state(ROOT / "demos") == before
    assert (tmp_path / f"{script.stem}.csv").exists() == (script.stem in CSV_DEMOS)
