"""Smoke tests for the experiment scripts under scripts/, and byte-identity
of their CSV outputs with the `cslme` command that writes the same report."""

import math
import os
from pathlib import Path
import subprocess
import sys

import pytest

from cslme.cli import main

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, **env_vars):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **env_vars)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_run_sleepstudy_pins_subject_335():
    proc = run_script("run_sleepstudy.py")
    assert "PLS: overall slope pinned at 0 for subject(s) ['335']" in proc.stdout.splitlines()


def test_run_merit_experiment_writes_a_finite_grid(tmp_path):
    out = tmp_path / "merit.csv"
    proc = run_script("run_merit_experiment.py", "--steps", "11", "--out", str(out))
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


def test_merit_grid_and_level_bands_match_cslme_contour(tmp_path):
    """The script's grid and level bands are the bytes `cslme contour` writes
    for its dataset (merit-n30, seed 6001, replication 3), range and levels."""
    out = tmp_path / "merit.csv"
    run_script("run_merit_experiment.py", "--steps", "41", "--out", str(out))
    grid = out.read_text().splitlines()
    lo, hi = grid[1].split(",")[0], grid[-1].split(",")[0]
    bands = (tmp_path / "merit.csv.levels.csv").read_text().splitlines()
    levels = list(dict.fromkeys(row.split(",")[0] for row in bands[1:]))
    assert len(levels) == 2  # the free and the constrained optimum
    free, constrained = (float(v) for v in levels)
    cfg = tmp_path / "merit.cfg"
    cfg.write_text(
        "scenario = merit-n30\nseed = 6001\ndata_rep = 3\n"
        "beta = 0.072, 0.001, 0.001\nvarsigma = 0.058\nsigma = 1.0\n"
        f"objective = PLS\nvary = beta1, beta2\nrange1 = {lo}, {hi}, 41\n"
        f"range2 = {lo}, {hi}, 41\nlevels = {levels[0]}, {levels[1]}\n"
        f"level_tol = {max(1e-3, abs(constrained - free) / 10)!r}\n")
    cli_out = tmp_path / "cli.csv"
    assert main(["contour", str(cfg), "--out", str(cli_out)]) == 0
    assert cli_out.read_bytes() == out.read_bytes()
    assert (tmp_path / "cli.csv.levels.csv").read_bytes() == \
        (tmp_path / "merit.csv.levels.csv").read_bytes()


def test_run_table_scenarios_matches_cslme_simulate(tmp_path, monkeypatch):
    monkeypatch.delenv("CSLME_THREADS", raising=False)
    run_script("run_table_scenarios.py", "--out-dir", str(tmp_path), "--only",
               "intercept-p3-n300", "--replications", "2", "--methods", "PLS,PRLS,REML",
               "--seed", "5")
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("scenario = intercept-p3-n300\nreplications = 2\nseed = 5\n"
                   "methods = PLS,PRLS,REML\n")
    cli_out = tmp_path / "cli.csv"
    assert main(["simulate", str(cfg), "--out", str(cli_out)]) == 0
    assert cli_out.read_bytes() == (tmp_path / "intercept-p3-n300.csv").read_bytes()


@pytest.fixture(scope="module")
def fingerprint():
    """The output of scripts/fingerprint.py at CSLME_THREADS=1."""
    return run_script("fingerprint.py", CSLME_THREADS="1").stdout


def test_fingerprint_does_not_depend_on_the_worker_count(fingerprint):
    assert run_script("fingerprint.py", CSLME_THREADS="2").stdout == fingerprint


def test_fingerprint_prints_one_hex_float_per_label(fingerprint):
    lines = fingerprint.splitlines()
    labels = [line.split(" ", 1)[0] for line in lines]
    assert len(set(labels)) == len(labels)
    values = {}
    for line in lines:
        label, value = line.split(" ", 1)
        if label.endswith(".n_eval"):
            assert int(value) > 0
        elif label.endswith(".message"):
            values[label] = value
        elif not label.endswith(".failed"):
            values[label] = float.fromhex(value)
    assert {label.split(".")[1] for label in labels if label.startswith("sleepstudy.")} == {
        "PLS", "PRLS", "ML", "REML", "PIT"}
    stops = {value for label, value in values.items() if label.endswith(".message")}
    assert stops == {"CONVERGENCE: NORM OF PROJECTED GRADIENT <= TOL_GRAD",
                     "STOP: THE NEWTON DECREMENT IS BELOW ROUNDING"}
    grid = [v for label, v in values.items() if label.startswith("contour.")]
    assert any(math.isnan(v) for v in grid) and any(math.isfinite(v) for v in grid)


def test_fingerprint_diff_lists_sections_and_non_float_changes(tmp_path):
    one, third = (1.0).hex(), (1.0 / 3.0).hex()
    before = tmp_path / "before.txt"
    after = tmp_path / "after.txt"
    before.write_text(
        f"fit.PLS.seed0.beta[0] {one}\n"
        f"fit.PLS.seed0.sigma {third}\n"
        "fit.PLS.seed0.n_eval 43\n"
        f"fit.PLS.seed0.start0.converged {one}\n"
        f"fit.ML.seed0.sigma {third}\n"
        "fit.ML.rep1.failed ConvergenceError: all 3 starts failed\n"
        f"grid.PLS.x-y[0] {one}\n")
    after.write_text(
        f"fit.PLS.seed0.beta[0] {(1.0 + 2.0 ** -40).hex()}\n"
        f"fit.PLS.seed0.sigma {(1.0 / 3.0 * (1.0 - 2.0 ** -30)).hex()}\n"
        "fit.PLS.seed0.n_eval 41\n"
        f"fit.PLS.seed0.start0.converged {(0.0).hex()}\n"
        f"fit.ML.seed0.sigma {third}\n"
        f"grid.PLS.x-y[0] {float('nan').hex()}\n"
        f"grid.PLS.x-y[1] {one}\n")
    proc = run_script("fingerprint_diff.py", str(before), str(after))
    rel = f"{2.0 ** -30:.2g}"
    assert proc.stdout.splitlines() == [
        "section   moved/total  max rel move",
        f"fit.PLS           4/4  {rel}",
        "fit.ML            1/2  0",
        "grid.PLS          2/2  0",
        "5 changed lines that are not float moves",
        "- fit.PLS.seed0.n_eval 43",
        "+ fit.PLS.seed0.n_eval 41",
        f"- fit.PLS.seed0.start0.converged {one}",
        f"+ fit.PLS.seed0.start0.converged {(0.0).hex()}",
        "- fit.ML.rep1.failed ConvergenceError: all 3 starts failed",
        f"- grid.PLS.x-y[0] {one}",
        "+ grid.PLS.x-y[0] nan",
        f"+ grid.PLS.x-y[1] {one}",
    ]
