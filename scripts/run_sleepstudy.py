#!/usr/bin/env python3
"""Fit the bundled sleep-deprivation data with every estimator and print
application-style tables: fixed effects, deviation scales, variance
explained, and per-subject overall coefficients."""

import argparse

import numpy as np

from cslme.cli import InputSchema, ingest
from cslme.datasets import sleepstudy_path
from cslme.metrics import r_squared
from cslme.sim import fit_method, sdtn_sd


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--starts", type=int, default=5)
    args = parser.parse_args()

    schema = InputSchema(group_column="Subject", response_column="Reaction",
                         feature_columns=("Days",),
                         random_effect_columns=("intercept", "Days"))
    data, spec = ingest(sleepstudy_path(), schema)

    fits, r2 = {}, {}
    for method in ("REML", "PLS", "PRLS"):
        res = fit_method(method, data, spec, seed=args.seed, n_starts=args.starts)
        p = res.params
        fits[method] = (p.beta, p.varsigma, p.sigma, res.gamma.gamma, method == "REML")
        r2[method] = r_squared(p, data, spec)

    print(f"{'':24s}" + "".join(f"{m:>12s}" for m in fits))
    rows = [
        ("Intercept", lambda b, v, s, g, nr: b[0]),
        ("Days", lambda b, v, s, g, nr: b[1]),
        ("S.D. random intercept",
         lambda b, v, s, g, nr: v[0] if nr else sdtn_sd(b[0], v[0])),
        ("S.D. random slope",
         lambda b, v, s, g, nr: v[1] if nr else sdtn_sd(b[1], v[1])),
        ("S.D. residuals", lambda b, v, s, g, nr: s),
    ]
    for name, get in rows:
        print(f"{name:24s}" + "".join(f"{get(*fits[m]):12.3f}" for m in fits))
    for name, which in (("Marginal R2", 0), ("Conditional R2", 1)):
        print(f"{name:24s}" + "".join(f"{r2[m][which]:12.3f}" for m in fits))

    print("\nOverall effects (fixed + deviation) per subject:")
    print(f"{'subject':>8s}" + "".join(
        f"{m + ' int':>12s}{m + ' slope':>12s}" for m in fits))
    for ell, gid in enumerate(data.group_ids):
        cells = []
        for m, (b, v, s, g, nr) in fits.items():
            cells += [b[0] + g[ell, 0], b[1] + g[ell, 1]]
        print(f"{gid:>8s}" + "".join(f"{c:12.3f}" for c in cells))
    slopes = {m: np.array([fits[m][0][1] + fits[m][3][ell, 1]
                           for ell in range(data.g)]) for m in ("PLS", "PRLS")}
    for m, vals in slopes.items():
        pinned = [data.group_ids[i] for i in np.where(vals == 0.0)[0]]
        if pinned:
            print(f"\n{m}: overall slope pinned at 0 for subject(s) {pinned}")


if __name__ == "__main__":
    main()
