#!/usr/bin/env python3
"""Run the built-in simulation grid and write one summary CSV per scenario.

Each output row is method x parameter with mean truth and mean/median
estimates, followed by per-method RMSE/R2 summary rows. Replication count
and methods are configurable; seeds are fixed so reruns are identical.
"""

import argparse
from dataclasses import replace
from pathlib import Path

from cslme.cli import write_csv
from cslme.sim import builtin_scenarios, run_scenario


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="scenario_tables")
    parser.add_argument("--replications", type=int, default=200)
    parser.add_argument("--methods", default="PLS,PRLS,REML")
    parser.add_argument("--only", default="",
                        help="comma-separated scenario names (default: all)")
    parser.add_argument("--seed", type=int, default=20240807)
    args = parser.parse_args()

    registry = builtin_scenarios()
    names = [n.strip() for n in args.only.split(",") if n.strip()] or sorted(registry)
    methods = tuple(m.strip().upper() for m in args.methods.split(","))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    for name in names:
        sc = replace(registry[name], replications=args.replications, seed=args.seed)
        result = run_scenario(sc, methods=methods)
        path = out_dir / f"{name}.csv"
        write_csv(path, result.table_rows())
        summaries = ", ".join(
            f"{m}: rmse_med={result.summary(m).get('rmse_median', float('nan')):.3f}"
            for m in methods)
        print(f"{name:20s} -> {path}  ({summaries})")


if __name__ == "__main__":
    main()
