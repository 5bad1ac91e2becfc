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
- PLS and PRLS contour grids with failing (NaN) cells;
- the per-point objectives and recoveries (`pls_objective`,
  `prls_objective`, `approx_loglik`, `profile_loglik`, `reml_loglik`,
  `profile_beta`, `gamma_closed_form`) at the seed-0 sleep-study PLS,
  PRLS, ML and REML fitted points;
- the covariance core at those four points, each rounded to 6 significant
  digits so that a fit's own rounding-level move does not move it: the
  PLS/PRLS search objective and its gradient at the point in (beta, q,
  log sigma), from `estimate.objective_gradient_hessian` but labeled
  `objective_and_gradient`, the function it replaced, so that the lines
  of older checkouts still compare; the ML/REML profiled criterion and
  its gradient (`baseline.criterion_and_gradient`) at the point in v =
  (varsigma / sigma)^2; and the `BlockSolve` values `criterion_parts`
  (both `restricted` flags), `gls_beta` and `zt_vinv_resid` at (d,
  sigma), so that a rounding move in the core shows where it starts;
- `minimize_labels` on 4 `merit-n30` replications, PLS and PRLS, over
  (beta1, beta2) constrained and free and over label sets that enter V,
  (varsigma0, sigma) and (beta0, varsigma0);
- every start of `optim.minimize_newton` in the sleep-study PLS and PRLS
  searches at start seeds 0-4, with the response as given and times 1e-6
  (`newton-y1`, `newton-y1e-06`): its stop message, iteration and
  evaluation counts, converged flag, objective and projected-gradient
  norm, or the error it raised. At y times 1e-6 some starts stop on the
  Newton decrement below rounding, a stop no fit above reaches.

It uses only the public API, so it runs against any checkout that has
`estimate.objective_gradient_hessian` and `optim.minimize_newton`:

    PYTHONPATH=src python scripts/fingerprint.py > after.txt
    PYTHONPATH=<other checkout>/src python scripts/fingerprint.py > before.txt
    diff before.txt after.txt
"""

from dataclasses import replace
import math

import numpy as np

from cslme.baseline import (
    Theta,
    criterion_and_gradient,
    gamma_closed_form,
    profile_beta,
    profile_loglik,
    reml_loglik,
)
from cslme.cli import InputSchema, ingest
from cslme.datasets import sleepstudy_path
from cslme.estimate import (
    FitConfig,
    approx_loglik,
    default_starts,
    objective_gradient_hessian,
    pls_objective,
    prls_objective,
)
from cslme.model import BlockDesign, Dataset, GroupData, re_variances, share_bounds, to_shares
from cslme.optim import BoxResult, minimize_newton
from cslme.sim import (
    ALL_METHODS,
    ContourRequest,
    builtin_scenarios,
    contour_grid,
    fit_method,
    minimize_labels,
    replication_data,
    run_scenario,
)


def emit(label, value):
    print(label, float(value).hex())


def emit_all(label, values):
    for i, v in enumerate(np.ravel(values)):
        emit(f"{label}[{i}]", v)


def sleepstudy():
    schema = InputSchema(group_column="Subject", response_column="Reaction",
                         feature_columns=("Days",),
                         random_effect_columns=("intercept", "Days"))
    return ingest(sleepstudy_path(), schema)


def sleepstudy_fits():
    data, spec = sleepstudy()
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


def point_values():
    data, spec = sleepstudy()
    for method in ("PLS", "PRLS", "ML", "REML"):
        params = fit_method(method, data, spec).params
        theta = Theta(params.varsigma, params.sigma)
        label = f"sleepstudy.{method}.at"
        emit(f"{label}.pls_objective", pls_objective(params, data, spec))
        emit(f"{label}.prls_objective", prls_objective(params, data, spec))
        emit(f"{label}.approx_loglik", approx_loglik(params, data, spec))
        emit(f"{label}.profile_loglik", profile_loglik(theta, data, spec))
        emit(f"{label}.reml_loglik", reml_loglik(theta, data, spec))
        beta = profile_beta(theta, data, spec)
        emit_all(f"{label}.profile_beta", beta)
        emit_all(f"{label}.gamma_closed_form", gamma_closed_form(theta, data, spec, beta).gamma)
        core_values(label, data, spec, params)


def core_values(label, data, spec, params):
    beta, varsigma, (sigma,) = (np.array([float(f"{v:.6g}") for v in np.ravel(a)])
                                for a in (params.beta, params.varsigma, params.sigma))
    design = BlockDesign(data, spec)
    x = to_shares(np.concatenate([beta, varsigma, [math.log(sigma)]]), spec)
    for method, restricted in (("PLS", False), ("PRLS", True)):
        value, grad, _ = objective_gradient_hessian(design, spec, x[None], restricted)
        emit_all(f"{label}.objective_and_gradient.{method}.value", value)
        emit_all(f"{label}.objective_and_gradient.{method}.grad", grad)
    v = (varsigma / sigma) ** 2
    for criterion in ("ML", "REML"):
        value, grad = criterion_and_gradient(v[None], design, criterion)
        emit_all(f"{label}.criterion_and_gradient.{criterion}.value", value)
        emit_all(f"{label}.criterion_and_gradient.{criterion}.grad", grad)
    sol = design.solve(re_variances(beta, varsigma, spec.alpha)[None], [sigma])
    for restricted in (False, True):
        for name, part in zip(("q", "logdet", "dq", "dlog"),
                              sol.criterion_parts(beta[None], restricted)):
            emit_all(f"{label}.criterion_parts.{restricted}.{name}", part)
    emit_all(f"{label}.gls_beta", sol.gls_beta())
    emit_all(f"{label}.zt_vinv_resid", sol.zt_vinv_resid(beta[None]))


def labeled_searches():
    scenario = builtin_scenarios()["merit-n30"]
    spec = scenario.model_spec()
    for rep in range(4):
        data, _, _ = replication_data(scenario, rep)
        for method in ("PLS", "PRLS"):
            for labels, constrained in ((("beta1", "beta2"), True),
                                        (("beta1", "beta2"), False),
                                        (("varsigma0", "sigma"), True),
                                        (("beta0", "varsigma0"), True)):
                label = f"merit-n30.rep{rep}.{method}.{'-'.join(labels)}.{constrained}"
                values, value = minimize_labels(data, replace(spec, constrained=constrained),
                                                scenario.truth, labels, method=method)
                for name, v in values.items():
                    emit(f"{label}.{name}", v)
                emit(f"{label}.objective", value)


def newton_starts():
    data, spec = sleepstudy()
    for scale in (1.0, 1e-6):
        scaled = Dataset(tuple(GroupData(gd.group_id, gd.y * scale, gd.X) for gd in data.groups))
        design = BlockDesign(scaled, spec)
        bounds = share_bounds(design, spec)
        for method in ("PLS", "PRLS"):
            def fun(X):
                return objective_gradient_hessian(design, spec, X, method == "PRLS")

            for seed in range(5):
                starts = default_starts(design, spec, FitConfig(method=method, seed=seed))
                for idx, res in enumerate(minimize_newton(fun, starts, bounds)):
                    label = f"newton-y{scale:g}.{method}.seed{seed}.start{idx}"
                    if not isinstance(res, BoxResult):
                        print(f"{label}.failed {type(res).__name__}: {res}")
                        continue
                    print(f"{label}.message {res.message}")
                    for name in ("n_iter", "nfev", "converged", "fun", "pg_norm"):
                        emit(f"{label}.{name}", getattr(res, name))


def main():
    sleepstudy_fits()
    scenario_estimates()
    pit_fits()
    contour_grids()
    point_values()
    labeled_searches()
    newton_starts()


if __name__ == "__main__":
    main()
