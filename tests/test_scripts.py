"""Smoke test: the experiment scripts run to completion and print CSV."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script,header", [
    ("engine_gap_sweep.py", "n_b,W,eta,bound_finite,bound_carnot,gap"),
    ("equilibration_demo.py", "beta_other,beta_joint_S,work_released,beta_joint_E,"
                              "entropy_produced"),
])
def test_script_runs(script, header):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == header
    assert len(lines) > 1
