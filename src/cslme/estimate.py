"""Sign-constrained estimation of (beta, varsigma, sigma).

The fixed effects cannot be profiled out once they are constrained, so the
penalized least squares (PLS) objective keeps them explicit:

    (y - X beta)^T V^{-1} (y - X beta) + ln|V|,     V = Z Lambda Z^T + sigma^2 I,

minimized over beta >= 0, varsigma >= 0, with Lambda carrying the
truncation-deflated random-effect variances. The penalized restricted
least squares (PRLS) variant adds ln|X^T V^{-1} X|. Both are minimized by
projected Newton on the exact Hessian and a small deterministic
multi-start, run in lockstep by `optim.minimize_newton`. `multistart`
picks the winner of a driver's starts, here and for the ML/REML baselines
(`optim.minimize_starts`): the lowest finite objective, near-ties to the
earlier start.

The search runs in x = (beta, q, log sigma), not in varsigma: q_i = d_i /
beta_{alpha_i}^2 = vf(rho_i) / rho_i^2 is the deviation's variance over its
squared half-width, boxed to [0, Q_MAX] with Q_MAX one ulp below the
uniform limit 1/3 (`model.share_bounds`). In varsigma, d flattens to second
order as varsigma -> inf, and a search crawls up that ridge toward a point
the box cannot reach; in q that limit is a bound. The starts are mapped
from varsigma to q once (`model.to_shares`), and the winner's varsigma is
read back once (`model.unpack_shares`). A column that ends at q = Q_MAX has
its minimizer at varsigma = +inf: `FitResult.at_limit` flags it, and its
read-back varsigma (about 2.8e7 |beta_alpha|) is a finite stand-in.

Each optimizer call returns the objective, its exact gradient and its
exact Hessian in (beta, q, log sigma) at every start's trial point from one
batched factorization of V (`objective_gradient_hessian`, the one PLS/PRLS
objective). The value, its partial in the random-effect variances d and the
Hessian in (beta, d, log sigma) come from `BlockSolve.criterion_hessian`,
the partial in beta from X^T V^{-1} r (`BlockSolve.xt_vinv_resid`), and the
partial in log sigma follows from them, as V is homogeneous of degree 1 in
(d, sigma^2). d = beta_alpha^2 q is one array operation, with dd/dq =
beta_alpha^2 and dd/dbeta_alpha = 2 beta_alpha q, so the chain to q needs
no derivative of the variance factor.
"""

from dataclasses import dataclass, field
import math

import numpy as np

from .model import (
    BlockDesign,
    BlockSolve,
    Dataset,
    ModelSpec,
    Parameters,
    RandomEffects,
    SingularDesignError,
    as_design,
    at_uniform_limit,
    re_variances,
    share_bounds,
    to_shares,
    unpack_shares,
)
from .optim import TOL_OBJ, BoxResult, ConvergenceError, minimize_newton
from .sdtn import per_entry
from . import ranef as _ranef

LOG_2PI = math.log(2.0 * math.pi)

METHODS = ("PLS", "PRLS")


@dataclass(frozen=True)
class FitConfig:
    """Knobs for the constrained fit."""

    method: str = "PLS"
    n_starts: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.method.upper() not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        object.__setattr__(self, "method", self.method.upper())
        if self.n_starts < 1:
            raise ValueError("n_starts must be positive")


@dataclass
class FitResult:
    params: Parameters
    gamma: RandomEffects
    objective: float
    objective_trace: np.ndarray
    start_index: int
    converged: bool
    method: str = "PLS"
    n_iter: int = 0
    n_eval: int = 0  # (f, grad, hess) calls, summed over the starts that finished
    pg_norm: float = math.nan  # the winner's projected-gradient infinity norm
    start_objectives: list = field(default_factory=list)
    start_pg_norms: list = field(default_factory=list)  # (index, norm) per finished start
    failed_starts: list = field(default_factory=list)
    # per random column: the scale is at the uniform limit varsigma -> inf and
    # params.varsigma holds a finite stand-in (`model.at_uniform_limit`)
    at_limit: tuple = ()


def objective_gradient_hessian(design: BlockDesign, spec: ModelSpec, x: np.ndarray,
                               restricted: bool):
    """PLS (or PRLS) values (R,), exact gradients (R, m) and exact Hessians
    (R, m, m) at R points x = (beta, q, log sigma), from one batched
    `BlockSolve`.

    The value is `BlockSolve.criterion` at d = beta_alpha^2 q, bit for bit,
    and a point's values do not depend on the batch.
    `BlockSolve.criterion_hessian` gives the Hessian H in y = (beta, d,
    log sigma); with J = dy/dx it is J^T H J plus each partial in d times
    its second derivatives, d^2 d_i / dbeta_{alpha_i}^2 = 2 q_i and d^2 d_i /
    dbeta_{alpha_i} dq_i = 2 beta_{alpha_i}, made exactly symmetric.
    """
    p, k = design.p, spec.k
    alpha = np.array(spec.alpha)
    beta, q, b = x[:, :p], x[:, p:p + k], x[:, alpha]
    dd_dq, dd_db = b * b, 2.0 * b * q  # d = beta_alpha^2 q
    d = dd_dq * q
    sol = design.solve(d, per_entry(math.exp)(x[:, -1]))
    quad, logdet, dq, dlog, H = sol.criterion_hessian(beta, restricted)
    dd = dq + dlog
    grad = np.empty(x.shape)
    grad[:, :p] = -2.0 * sol.xt_vinv_resid(beta)
    grad[:, alpha] += dd * dd_db
    grad[:, p:p + k] = dd * dd_dq
    # V is homogeneous of degree 1 in (d, sigma^2)
    grad[:, -1] = 2.0 * (design.n - quad - p * restricted - (d * dd).sum(axis=1))
    # J: rows (beta, d, log sigma), columns (beta, q, log sigma); row d_i = column q_i
    i = np.arange(p, p + k)
    J = np.empty((len(x), p + k + 1, p + k + 1))
    J[:] = np.eye(p + k + 1)
    J[:, i, alpha] = dd_db
    J[:, i, i] = dd_dq
    hess = J.swapaxes(-1, -2) @ H @ J
    w = 2.0 * dd
    wb = w * b
    hess[:, alpha, alpha] += w * q
    hess[:, alpha, i] += wb
    hess[:, i, alpha] += wb
    return quad + logdet, grad, 0.5 * (hess + hess.swapaxes(-1, -2))


def _objective(params: Parameters, dataset, spec: ModelSpec, restricted: bool) -> float:
    design = as_design(dataset, spec)
    d = re_variances(params.beta, params.varsigma, spec.alpha)
    sol = design.solve(d[None], [params.sigma])
    return float(sol.criterion(params.beta[None], restricted)[0])


def pls_objective(params: Parameters, dataset, spec: ModelSpec) -> float:
    """(y - X beta)^T V^{-1} (y - X beta) + ln|V| at the given parameters."""
    return _objective(params, dataset, spec, restricted=False)


def prls_objective(params: Parameters, dataset, spec: ModelSpec) -> float:
    """PLS objective plus the restricted-likelihood term ln|X^T V^{-1} X|."""
    return _objective(params, dataset, spec, restricted=True)


def approx_loglik(params: Parameters, dataset, spec: ModelSpec) -> float:
    """Normal-approximation log-likelihood -(n/2) ln 2pi - (PLS value)/2."""
    return -0.5 * dataset.n * LOG_2PI - 0.5 * pls_objective(params, dataset, spec)


def _check_full_rank(design: BlockDesign):
    """Raise SingularDesignError naming the first column of X collinear with
    those before it, by `BlockSolve._pivots_ok`'s rule on X^T X."""
    F = design.XtA[:, :-1]
    for j in range(1, design.p + 1):
        try:
            ok = BlockSolve._pivots_ok(F[:j, :j], np.linalg.cholesky(F[:j, :j]))
        except np.linalg.LinAlgError:
            ok = False
        if not ok:
            raise SingularDesignError(
                f"design column {j - 1} (0-based) is collinear with the columns before it")


def least_squares(design: BlockDesign):
    """(beta_ols, sd(y), residual sd) of the stacked data, the residual sd
    floored at 1e-8 max(sd(y), 1) so that its log is finite."""
    y, X = design.y, design.X
    beta_ols, *_ = np.linalg.lstsq(X, y, rcond=None)
    sd_y = float(np.std(y))
    return beta_ols, sd_y, max(float(np.std(y - X @ beta_ols)), 1e-8 * max(sd_y, 1.0))


def jittered_starts(natural: np.ndarray, rngs) -> list:
    """`natural`, then natural * exp(z), z ~ N(0, 0.5^2) drawn from each of `rngs`,
    as search points: sigma (last) is jittered on its natural scale, then logged."""
    points = [natural] + [natural * np.exp(rng.normal(0.0, 0.5, size=natural.size))
                          for rng in rngs]
    return [np.concatenate([pt[:-1], [math.log(pt[-1])]]) for pt in points]


def default_starts(design: BlockDesign, spec: ModelSpec, config: FitConfig) -> list:
    """Deterministic multi-start points x = (beta, q, log sigma).

    Start 0: least-squares coefficients clamped to the constraint cone,
    varsigma = 0.5*|beta_ols| on the random columns + 0.1*sd(y), sigma =
    residual sd. Remaining starts apply multiplicative log-normal jitter
    (sd 0.5) to every component, seeded from config.seed. Each start's
    varsigma is then mapped to q (`model.to_shares`).
    """
    beta_ols, sd_y, resid_sd = least_squares(design)
    beta0 = beta_ols.copy()
    if spec.constrained:
        clamp = np.ones(design.p, dtype=bool)
        clamp[list(spec.unconstrained_columns)] = False
        beta0[clamp] = np.maximum(beta0[clamp], 0.0)
    vs0 = 0.5 * np.abs(beta_ols[list(spec.alpha)]) + 0.1 * sd_y
    natural = np.concatenate([beta0, vs0, [resid_sd]])
    starts = jittered_starts(natural, (np.random.default_rng(np.random.SeedSequence(
        [config.seed, s])) for s in range(1, config.n_starts)))
    return list(to_shares(np.array(starts), spec))


def multistart(runs):
    """Pick the winner among one driver's per-start results, each a BoxResult
    or the error its start raised (`optim.minimize_newton`,
    `optim.minimize_starts`).

    A start that raised is recorded as (index, repr). Only finite objectives
    are ranked, and a later start wins only if its objective is lower by
    more than `optim.TOL_OBJ`, so near-ties go to the earlier start. Returns
    (winning index, its BoxResult, [(index, BoxResult)] of every finished
    start, failures); raises ConvergenceError listing every start if none
    ends at a finite objective.
    """
    results = [(idx, res) for idx, res in enumerate(runs) if isinstance(res, BoxResult)]
    failures = [(idx, repr(res)) for idx, res in enumerate(runs)
                if not isinstance(res, BoxResult)]
    ranked = [(idx, res) for idx, res in results if math.isfinite(res.fun)]
    if not ranked:
        every = sorted(failures + [(idx, f"objective {res.fun!r}: {res.message}")
                                   for idx, res in results])
        raise ConvergenceError(f"all {len(every)} starts failed", diagnostics=every)
    best_idx, best = ranked[0]
    for idx, res in ranked[1:]:
        if res.fun < best.fun - TOL_OBJ:
            best_idx, best = idx, res
    return best_idx, best, results, failures


def fit(dataset: Dataset, spec: ModelSpec, config: FitConfig | None = None) -> FitResult:
    """Multi-start constrained minimization of the PLS or PRLS objective by
    projected Newton (`optim.minimize_newton`).

    Returns the winning start (`multistart`) with the fitted deviations
    attached; `converged` says whether its projected gradient is at most
    `optim.TOL_GRAD`. Every returned parameter satisfies its bound exactly
    (projection, not tolerance). A column of X collinear with those before
    it raises SingularDesignError before any start runs.
    """
    if config is None:
        config = FitConfig()
    design = as_design(dataset, spec)
    if spec.k < 1:
        raise ValueError("at least one random-effect column is required")
    _check_full_rank(design)
    restricted = config.method == "PRLS"

    def objective(x):
        return objective_gradient_hessian(design, spec, x, restricted)

    best_idx, best, results, failures = multistart(minimize_newton(
        objective, default_starts(design, spec, config), share_bounds(design, spec)))
    params = unpack_shares(best.x, spec)
    return FitResult(
        params=params,
        gamma=_ranef.solve_all(dataset, params, spec),
        objective=best.fun,
        objective_trace=best.trace,
        start_index=best_idx,
        converged=best.converged,
        method=config.method,
        n_iter=best.n_iter,
        n_eval=sum(res.nfev for _, res in results),
        pg_norm=best.pg_norm,
        start_objectives=[(idx, res.fun, res.converged) for idx, res in results],
        start_pg_norms=[(idx, res.pg_norm) for idx, res in results],
        failed_starts=failures,
        at_limit=at_uniform_limit(best.x, spec),
    )
