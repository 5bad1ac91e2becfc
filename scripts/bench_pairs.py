#!/usr/bin/env python3
"""Run `perfbench/run.py` from two checkouts in alternating pairs and judge
the change against its parent, metric by metric.

    python scripts/bench_pairs.py PARENT CHANGE --workload mc-intercept \\
        --pairs 10 --seconds 40 --seed 31 --claim rep_p90_s

PARENT and CHANGE are checkout roots (CHANGE defaults to this one). Pair i
runs seed `--seed` + i on both, the parent first in even pairs and the
change first in odd ones. Each run's result is the JSON object on the last
line of its standard output. For every end-to-end metric of the change's
`BENCHMARK.json` it prints each side's quartiles and median, the pairs the
change wins (ties count for neither side) and a verdict:
- the claimed metric (`--claim`) is a gain when the change wins at least
  CLAIM_WIN_SHARE of the pairs and its median is better than the parent's
  by more than the parent's interquartile range;
- any other metric is worse beyond its bound when the change's median is
  worse than the parent's by more than `bound` times the parent's median;
  otherwise it is better in every run, unresolved when the parent's own
  interquartile range exceeds that bound, or within bound.
Every run's correctness and failed-operation count is printed as well.
"""

import argparse
import json
from pathlib import Path
import subprocess
import sys

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
CLAIM_WIN_SHARE = 0.9


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> str:
    """The last line of standard output of one benchmark run in `checkout`."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout} seed {seed}: exit {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return proc.stdout.strip().splitlines()[-1]


def summarize(parent_lines, change_lines, end_to_end, claim=None) -> list:
    """One row per metric of `end_to_end` (BENCHMARK.json's list) from the
    paired result lines: each side's (q1, median, q3), the change's wins and
    the verdict described in the module docstring."""
    parent = [json.loads(line) for line in parent_lines]
    change = [json.loads(line) for line in change_lines]
    if len(parent) != len(change) or not parent:
        raise ValueError(f"need equal, non-zero run counts, got {len(parent)} and {len(change)}")
    rows = []
    for spec in end_to_end:
        name, sign = spec["name"], 1.0 if spec["better"] == "lower" else -1.0
        a = np.array([r["metrics"][name]["value"] for r in parent])
        b = np.array([r["metrics"][name]["value"] for r in change])
        qa, qb = np.percentile(a, [25, 50, 75]), np.percentile(b, [25, 50, 75])
        wins = int(np.sum(sign * (a - b) > 0))
        gain = sign * (qa[1] - qb[1])  # > 0: the change's median is better
        iqr = qa[2] - qa[0]
        if name == claim:
            ok = wins >= CLAIM_WIN_SHARE * len(a) and gain > iqr
            verdict = "gain" if ok else "gain not shown"
        elif -gain > spec["bound"] * abs(qa[1]):
            verdict = "worse beyond bound"
        elif (sign * b).max() < (sign * a).min():
            verdict = "better in every run"
        elif iqr > spec["bound"] * abs(qa[1]):
            verdict = "unresolved: parent spread above bound"
        else:
            verdict = "within bound"
        rows.append({"name": name, "unit": spec["unit"], "parent": qa.tolist(),
                     "change": qb.tolist(), "wins": wins, "pairs": len(a),
                     "relative": -gain / abs(qa[1]) if qa[1] else float("nan"),
                     "verdict": verdict})
    return rows


def format_rows(rows) -> list:
    lines = [f"{'metric':20s} {'parent q1 / median / q3':>34s} "
             f"{'change q1 / median / q3':>34s} {'worse':>7s} {'wins':>6s}  verdict"]
    for r in rows:
        lines.append(
            f"{r['name']:20s} " + " ".join(f"{v:>11.5g}" for v in r["parent"])
            + " " + " ".join(f"{v:>11.5g}" for v in r["change"])
            + f" {100 * r['relative']:>+6.1f}% {r['wins']:>2d}/{r['pairs']:<3d}  {r['verdict']}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path, nargs="?", default=ROOT)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--claim", help="the end-to-end metric the change claims to improve")
    args = ap.parse_args(argv)
    end_to_end = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    if args.claim is not None and args.claim not in [m["name"] for m in end_to_end]:
        ap.error(f"--claim {args.claim!r} is not an end-to-end metric")

    lines = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            line = run_once(getattr(args, side), args.workload, seed, args.seconds)
            lines[side].append(line)
            result = json.loads(line)
            print(f"pair {i} seed {seed} {side}: correct {result['correct']} "
                  f"failed {result['failed']} of {result['attempted']}  "
                  f"{args.claim or 'ok_share'} "
                  f"{result['metrics'][args.claim or 'ok_share']['value']:.6g}", flush=True)
    print(f"workload {args.workload}, {args.pairs} pairs of {args.seconds:g} s, "
          f"seeds {args.seed}-{args.seed + args.pairs - 1}")
    for line in format_rows(summarize(lines["parent"], lines["change"], end_to_end, args.claim)):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
