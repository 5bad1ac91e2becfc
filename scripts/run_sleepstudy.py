#!/usr/bin/env python3
"""Fit the bundled sleep-deprivation data with every estimator and print
application-style tables: fixed effects, deviation scales, variance
explained, and per-subject overall coefficients."""

import argparse

from cslme.cli import InputSchema, ingest
from cslme.datasets import sleepstudy_path
from cslme.metrics import r_squared
from cslme.sim import deviation_sd, fit_method


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--starts", type=int, default=5)
    args = parser.parse_args()

    schema = InputSchema(group_column="Subject", response_column="Reaction",
                         feature_columns=("Days",),
                         random_effect_columns=("intercept", "Days"))
    data, spec = ingest(sleepstudy_path(), schema)

    fits = {m: fit_method(m, data, spec, seed=args.seed, n_starts=args.starts)
            for m in ("REML", "PLS", "PRLS")}
    r2 = {m: r_squared(res.params, data, spec, at_limit=res.at_limit)
          for m, res in fits.items()}

    print(f"{'':24s}" + "".join(f"{m:>12s}" for m in fits))
    rows = [
        ("Intercept", lambda m, p: p.beta[0]),
        ("Days", lambda m, p: p.beta[1]),
        ("S.D. random intercept", lambda m, p: deviation_sd(m, p.beta[0], p.varsigma[0])),
        ("S.D. random slope", lambda m, p: deviation_sd(m, p.beta[1], p.varsigma[1])),
        ("S.D. residuals", lambda m, p: p.sigma),
        ("Marginal R2", lambda m, p: r2[m][0]),
        ("Conditional R2", lambda m, p: r2[m][1]),
    ]
    for name, get in rows:
        print(f"{name:24s}" + "".join(f"{get(m, res.params):12.3f}" for m, res in fits.items()))

    print("\nOverall effects (fixed + deviation) per subject:")
    print(f"{'subject':>8s}" + "".join(
        f"{m + ' int':>12s}{m + ' slope':>12s}" for m in fits))
    # both columns carry a deviation, so gamma's columns line up with beta's
    overall = {m: res.params.beta + res.gamma.gamma for m, res in fits.items()}
    for ell, gid in enumerate(data.group_ids):
        print(f"{gid:>8s}" + "".join(f"{c:12.3f}" for m in fits for c in overall[m][ell]))
    for m in ("PLS", "PRLS"):
        pinned = [gid for gid, row in zip(data.group_ids, overall[m]) if row[1] == 0.0]
        if pinned:
            print(f"\n{m}: overall slope pinned at 0 for subject(s) {pinned}")

if __name__ == "__main__":
    main()
