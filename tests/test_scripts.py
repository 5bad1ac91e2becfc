"""Smoke tests for the experiment scripts under scripts/."""

import math
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


def test_run_merit_experiment_writes_a_finite_grid(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = tmp_path / "merit.csv"
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "run_merit_experiment.py"),
                           "--steps", "11", "--out", str(out)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = out.read_text().splitlines()
    assert rows[0] == "beta1,beta2,objective"
    values = [[float(v) for v in row.split(",")] for row in rows[1:]]
    assert len(values) == 121 and all(math.isfinite(v) for row in values for v in row)
    objective = {}
    for line in proc.stdout.splitlines():
        for label in ("without sign constraints", "with nonnegative constraints"):
            if label in line:
                objective[label] = float(line.split()[-1])
    assert objective["with nonnegative constraints"] >= objective["without sign constraints"]
