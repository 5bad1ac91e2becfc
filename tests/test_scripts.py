"""Smoke tests for the experiment scripts under scripts/."""

import os
from pathlib import Path
import subprocess
import sys

ROOT = Path(__file__).resolve().parents[1]


def test_run_sleepstudy_pins_subject_335():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "run_sleepstudy.py")],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "PLS: overall slope pinned at 0 for subject(s) ['335']" in proc.stdout.splitlines()
