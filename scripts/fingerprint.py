#!/usr/bin/env python3
"""Print a hex-float fingerprint of the program's fitted numbers.

One `label hex` line per number, `float.hex` so that equal lines mean
bit-equal floats:
- the sleep-study PLS, PRLS, ML and REML fits at start seeds 0-9 and the
  PIT fit (a random intercept only): every parameter, every deviation,
  the objective or log-likelihood and the evaluation count, and for
  PLS/PRLS every start's objective and converged flag (1 or 0) and each
  failed start's message;
- every estimate of `run_scenario` on 4 `intercept-p3-n300` replications
  (all five methods) and on 2 `full-p3-n500` replications (all but PIT),
  and each failed replication's message;
- the PIT fits at quadrature orders 2 and 4 on 20 `intercept-p3-n300`
  replications: every parameter and deviation, the log-likelihood, the
  evaluation and iteration counts, the converged flag and the objective
  trace, or the message of a fit that fails;
- PLS and PRLS contour grids with failing (NaN) cells.

It uses only the public API, so it runs against any checkout:

    PYTHONPATH=src python scripts/fingerprint.py > after.txt
    PYTHONPATH=<other checkout>/src python scripts/fingerprint.py > before.txt
    diff before.txt after.txt
"""

from dataclasses import replace

import numpy as np

from cslme.cli import InputSchema, ingest
from cslme.datasets import sleepstudy_path
from cslme.sim import (
    ALL_METHODS,
    ContourRequest,
    builtin_scenarios,
    contour_grid,
    fit_method,
    replication_data,
    run_scenario,
)


def emit(label, value):
    print(label, float(value).hex())


def emit_all(label, values):
    for i, v in enumerate(np.ravel(values)):
        emit(f"{label}[{i}]", v)


def sleepstudy_fits():
    schema = InputSchema(group_column="Subject", response_column="Reaction",
                         feature_columns=("Days",),
                         random_effect_columns=("intercept", "Days"))
    data, spec = ingest(sleepstudy_path(), schema)
    for method in ALL_METHODS:
        model = replace(spec, alpha=(0,)) if method == "PIT" else spec
        for seed in range(1 if method == "PIT" else 10):
            res = fit_method(method, data, model, seed=seed)
            label = f"sleepstudy.{method}.seed{seed}"
            emit_all(f"{label}.beta", res.params.beta)
            emit_all(f"{label}.varsigma", res.params.varsigma)
            emit(f"{label}.sigma", res.params.sigma)
            emit_all(f"{label}.gamma", res.gamma.gamma)
            if hasattr(res, "objective"):
                emit(f"{label}.objective", res.objective)
            else:
                emit(f"{label}.loglik", res.loglik)
            print(f"{label}.n_eval {res.n_eval}")
            for idx, value, converged in getattr(res, "start_objectives", ()):
                emit(f"{label}.start{idx}.objective", value)
                emit(f"{label}.start{idx}.converged", converged)
            for idx, message in getattr(res, "failed_starts", ()):
                print(f"{label}.start{idx}.failed {message}")


def scenario_estimates():
    scenarios = builtin_scenarios()
    for name, reps, methods in (("intercept-p3-n300", 4, ALL_METHODS),
                                ("full-p3-n500", 2, ("PLS", "PRLS", "ML", "REML"))):
        result = run_scenario(replace(scenarios[name], replications=reps), methods=methods)
        for method in methods:
            for r, rec in enumerate(result.records[method]):
                for key, value in rec["estimates"].items():
                    emit(f"{name}.{method}.ok{r}.{key}", value)
            for rep, message in result.failures[method]:
                print(f"{name}.{method}.rep{rep}.failed {message}")


def pit_fits():
    scenario = builtin_scenarios()["intercept-p3-n300"]
    spec = scenario.model_spec()
    for rep in range(20):
        data, _, _ = replication_data(scenario, rep)
        for q in (2, 4):
            label = f"intercept-p3-n300.PIT.q{q}.rep{rep}"
            try:
                res = fit_method("PIT", data, spec, pit_q=q)
            except Exception as exc:
                print(f"{label}.failed {type(exc).__name__}: {exc}")
                continue
            emit_all(f"{label}.beta", res.params.beta)
            emit_all(f"{label}.varsigma", res.params.varsigma)
            emit(f"{label}.sigma", res.params.sigma)
            emit_all(f"{label}.gamma", res.gamma.gamma)
            emit(f"{label}.loglik", res.loglik)
            print(f"{label}.n_eval {res.n_eval}")
            emit(f"{label}.n_iter", res.n_iter)
            emit(f"{label}.converged", res.converged)
            emit_all(f"{label}.trace", res.trace)


def contour_grids():
    scenario = builtin_scenarios()["intercept-p3-n300"]
    data, _, _ = replication_data(scenario, 0)
    spec = scenario.model_spec()
    for objective in ("PLS", "PRLS"):
        # cells with sigma <= 0, varsigma < 0 or sigma^2 underflowing to 0 fail
        for vary, ranges in ((("beta1", "sigma"), ((0.0, 2.0, 5), (-0.5, 1.5, 5))),
                             (("varsigma0", "beta0"), ((-0.05, 0.1, 4), (-0.1, 0.2, 5))),
                             (("sigma", "varsigma0"), ((1e-300, 2.0, 4), (0.0, 0.3, 3)))):
            request = ContourRequest(objective=objective, vary=vary, ranges=ranges,
                                     fixed=scenario.truth)
            grid = contour_grid(request, data, spec)
            emit_all(f"contour.{objective}.{vary[0]}-{vary[1]}", grid[:, 2])


def main():
    sleepstudy_fits()
    scenario_estimates()
    pit_fits()
    contour_grids()


if __name__ == "__main__":
    main()
