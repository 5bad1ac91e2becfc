#!/usr/bin/env python3
"""Small-sample sign-constraint demonstration (n=30, near-zero slopes).

Draws one dataset of the built-in merit-n30 scenario, minimizes the
penalized least-squares objective over (beta1, beta2) with and without
nonnegativity, prints the three-row comparison (truth plug-in / free /
constrained), and writes a contour grid with a level-band sidecar for
plotting the two objective values.
"""

import argparse
from dataclasses import replace

from cslme.cli import write_csv
from cslme.estimate import pls_objective
from cslme.sim import (
    ContourRequest,
    builtin_scenarios,
    contour_grid,
    contour_rows,
    level_rows,
    minimize_labels,
    replication_data,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=6001)
    parser.add_argument("--rep", type=int, default=3,
                        help="replication index used to draw the dataset")
    parser.add_argument("--out", default="merit_grid.csv")
    parser.add_argument("--steps", type=int, default=81)
    args = parser.parse_args()

    sc = replace(builtin_scenarios()["merit-n30"], seed=args.seed)
    truth, spec = sc.truth, sc.model_spec()
    data, _, _ = replication_data(sc, args.rep)

    plug_in = pls_objective(truth, data, spec)
    free_vals, free_obj = minimize_labels(data, replace(spec, constrained=False), truth,
                                          ("beta1", "beta2"))
    start = [max(free_vals["beta1"], 0.0), max(free_vals["beta2"], 0.0)]
    con_vals, con_obj = minimize_labels(data, spec, truth, ("beta1", "beta2"), x0=start)

    print(f"{'':42s}{'beta1':>10s}{'beta2':>10s}{'objective':>12s}")
    print(f"{'True parameters plugged in':42s}{truth.beta[1]:10.3f}"
          f"{truth.beta[2]:10.3f}{plug_in:12.3f}")
    print(f"{'Estimation without sign constraints':42s}{free_vals['beta1']:10.3f}"
          f"{free_vals['beta2']:10.3f}{free_obj:12.3f}")
    print(f"{'Estimation with nonnegative constraints':42s}{con_vals['beta1']:10.3f}"
          f"{con_vals['beta2']:10.3f}{con_obj:12.3f}")
    gap = con_obj - free_obj
    print(f"\nobjective gap {gap:.4f} ({100 * gap / abs(free_obj):.2f}% of the "
          f"free optimum)")

    lo = min(free_vals["beta1"], -0.05)
    hi = max(free_vals["beta2"] + 0.1, 0.2)
    request = ContourRequest(objective="PLS", vary=("beta1", "beta2"),
                             ranges=((lo, hi, args.steps), (lo, hi, args.steps)),
                             fixed=truth)
    grid = contour_grid(request, data, spec)
    write_csv(args.out, contour_rows(grid, request.vary))
    side = args.out + ".levels.csv"
    write_csv(side, level_rows(grid, request.vary, (free_obj, con_obj),
                               max(1e-3, abs(gap) / 10)))
    print(f"contour grid -> {args.out}; level bands -> {side}")


if __name__ == "__main__":
    main()
