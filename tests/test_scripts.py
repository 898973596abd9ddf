"""Smoke runs of the demo scripts at small sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args, header", [
    ("run_catalog.py", ["--n-steps", "8"], "stop rows"),
    ("replanning_gaps.py", ["--n-steps", "8", "--every", "2"], "J(time-0)"),
    ("mc_crosscheck.py", ["--n-steps", "4", "--n-paths", "2000"], "lattice y0"),
])
def test_script_runs(script, args, header):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                         capture_output=True, text=True, env=env, timeout=300)
    assert res.returncode == 0, res.stderr
    assert header in res.stdout
