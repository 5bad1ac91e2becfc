"""Unconstrained classical estimators and the quadrature (PIT) baseline.

ML and REML profile the fixed effects and the residual scale out of a
Gaussian marginal likelihood and search only the relative variances v =
d / sigma^2 = (varsigma / sigma)^2 >= 0, the profiled deviance of lme4
(Bates, Maechler, Bolker & Walker 2015; Pinheiro & Bates 2000, sec. 2.2).
With V = sigma^2 V0, V0 = I + Z diag(v) Z^T, the criterion (minus twice
the log-likelihood) is

    q0 / sigma^2 + n_r ln sigma^2 + ln|V0| (+ ln|X^T V0^{-1} X| for REML),

with q0 = r^T V0^{-1} r at the generalized-least-squares beta_hat and n_r
= n - p (REML) or n (ML). It is least at sigma^2 = q0 / n_r, floored at
exp(`BlockDesign.log_sigma_floor`)^2 as in every other fit, which an exact
fit (q0 = 0) reaches. One `BlockSolve` at sigma = 1 gives q0, the
log-determinants, their partials in v at fixed beta and the rows u_l =
Z_l^T V0_l^{-1} (y_l - X_l beta_hat) (`BlockSolve.criterion_parts`); by
the envelope theorem the gradient of the profiled criterion is dq0 /
sigma^2 + dlog at the profiled sigma. The search minimizes half of it,
the negated log-likelihood. Each evaluation also forms the fit at its
point: beta_hat, sigma_hat^2 and u_l. Every point a search returns is one it
evaluated, so the winner's own evaluation gives the whole fit, with no
solve after the search: varsigma = sqrt(v) sigma_hat and the per-group
deviations gamma_l = v * u_l, which is the usual shrinkage formula
varsigma^2 Z_l^T V_l^{-1} r_l (equivalently the Henderson-style joint
linear system), as V = sigma^2 V0.

The probability-integral-transform (PIT) baseline instead approximates the
marginal likelihood of each group by Gauss-Hermite quadrature over a
standard normal driver pushed through the random-effect quantile function.
It is only supported for a single random-effect column, and its historical
failure mode is preserved: when every quadrature node's density product
underflows double precision for some group, a QuadratureUnderflowError is
raised instead of silently clamping.
"""

from dataclasses import dataclass
import math

import numpy as np

from .model import (
    BlockDesign,
    Dataset,
    ModelSpec,
    NumericalError,
    Parameters,
    RandomEffects,
    check_point,
    check_sizes,
    search_bounds,
    unpack,
)
from .estimate import jittered_starts, multistart
from .optim import BoxResult, minimize_starts, with_central_diff
from .ranef import solve_all
from .sdtn import per_entry, sdtn_quantile, std_normal_cdf

LOG_DOUBLE_MIN = math.log(np.finfo(float).tiny)

# Gauss-Hermite nodes/weights (physicists' convention) for Q in {2, 4}.
# Transformed for standard-normal integrals: node d_q = sqrt(2) z_q carries
# total weight eta_q / sqrt(pi).
_GH_TABLE = {
    2: (
        np.array([-0.7071067811865476, 0.7071067811865476]),
        np.array([0.8862269254527580, 0.8862269254527580]),
    ),
    4: (
        np.array([
            -1.6506801238857846,
            -0.5246476232752903,
            0.5246476232752903,
            1.6506801238857846,
        ]),
        np.array([
            0.08131283544724518,
            0.8049140900055128,
            0.8049140900055128,
            0.08131283544724518,
        ]),
    ),
}


class QuadratureUnderflowError(NumericalError):
    """All quadrature node density products underflowed for some group."""

    def __init__(self, group_id, log_max):
        super().__init__(
            f"group {group_id!r}: density product underflows double precision "
            f"(best node log-product {log_max:.1f} < {LOG_DOUBLE_MIN:.1f}); "
            "the plain-product marginal likelihood is exactly zero"
        )
        self.group_id = group_id
        self.log_max = log_max


@dataclass(frozen=True)
class Theta:
    """Variance-component point: random-effect scales and residual scale."""

    varsigma: np.ndarray
    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "varsigma", np.asarray(self.varsigma, dtype=float))
        check_point(self.varsigma, self.sigma)


@dataclass
class BaselineFit:
    theta: Theta
    beta: np.ndarray
    gamma: RandomEffects
    loglik: float
    criterion: str
    converged: bool = True
    n_iter: int = 0
    trace: np.ndarray | None = None
    n_eval: int = 0  # (f, grad) calls, summed over the starts that finished
    pg_norm: float = math.nan  # the winner's projected-gradient infinity norm
    # ML/REML: the winning v = (varsigma / sigma)^2, from which the deviations
    # are formed (`shrinkage_gamma`); None for PIT
    relative_variances: np.ndarray | None = None

    @property
    def at_limit(self) -> tuple:
        """All False, one per random column: unlike PLS/PRLS (`FitResult.at_limit`),
        these fits never stand a finite varsigma in for the uniform limit."""
        return (False,) * self.theta.varsigma.size

    @property
    def params(self) -> Parameters:
        return Parameters(beta=self.beta, varsigma=self.theta.varsigma,
                          sigma=self.theta.sigma)


def _solve_at(theta: Theta, design: BlockDesign):
    """The `BlockSolve` at theta, a batch of one."""
    return design.solve((theta.varsigma ** 2)[None], [theta.sigma])


def _profiled_sigma2(q: np.ndarray, design: BlockDesign, restricted: bool):
    """(n_r, sigma^2 minimizing the criterion at each q0 = q): n_r = n - p
    [restricted] and sigma^2 = max(q / n_r, exp(log_sigma_floor)^2)."""
    dof = design.n - design.p * restricted
    floor = math.exp(design.log_sigma_floor)
    return dof, np.maximum(q / dof, floor * floor)


def _profiled_fit(x: np.ndarray, design: BlockDesign, restricted: bool):
    """`criterion_and_gradient`'s two arrays at the R points x (R, k), then
    the fit each point stands for: beta_hat (R, p), sigma_hat^2 (R,) and u_l
    = Z_l^T V0_l^{-1} (y_l - X_l beta_hat) (R, g, k), all from its one solve."""
    sol = design.solve(x, np.ones(len(x)))
    beta = sol.gls_beta()
    q, logdet, dq, dlog, u = sol.criterion_parts(beta, restricted)
    dof, s2 = _profiled_sigma2(q, design, restricted)
    return (0.5 * (q / s2 + dof * per_entry(math.log)(s2) + logdet),
            0.5 * (dq / s2[:, None] + dlog), beta, s2, u)


def criterion_and_gradient(x: np.ndarray, design: BlockDesign, criterion: str):
    """The ML or REML criterion at relative variances x = v = d / sigma^2,
    minimized over beta and sigma, and its exact gradient in v.

    The value is -profile_loglik (-reml_loglik) at theta = (sqrt(v) sigma_hat,
    sigma_hat), to rounding, with sigma_hat profiled as in the module
    docstring. x is R points (R, k), evaluated by one batched `BlockSolve` at
    sigma = 1, as `estimate.objective_gradient_hessian` batches PLS/PRLS.
    """
    return _profiled_fit(x, design, criterion == "REML")[:2]


def profile_beta(theta: Theta, dataset: Dataset, spec: ModelSpec) -> np.ndarray:
    """Generalized-least-squares fixed effects at theta."""
    return _solve_at(theta, BlockDesign(dataset, spec)).gls_beta()[0]


def _loglik(theta: Theta, dataset: Dataset, spec: ModelSpec, restricted: bool) -> float:
    sol = _solve_at(theta, BlockDesign(dataset, spec))
    return float(-0.5 * sol.criterion(sol.gls_beta(), restricted)[0])


def profile_loglik(theta: Theta, dataset: Dataset, spec: ModelSpec) -> float:
    """Profile Gaussian log-likelihood at theta, fixed effects profiled out."""
    return _loglik(theta, dataset, spec, restricted=False)


def reml_loglik(theta: Theta, dataset: Dataset, spec: ModelSpec) -> float:
    """Restricted log-likelihood: profile value minus half logdet(X^T V^{-1} X)."""
    return _loglik(theta, dataset, spec, restricted=True)


def gamma_closed_form(theta: Theta, dataset: Dataset, spec: ModelSpec,
                      beta: np.ndarray) -> RandomEffects:
    """Shrinkage estimate gamma_l = G Z_l^T V_l^{-1} (y_l - X_l beta) per group.

    It is `shrinkage_gamma` at v = (varsigma / sigma)^2, as V = sigma^2 V0.
    """
    ratio = theta.varsigma / theta.sigma
    return shrinkage_gamma(ratio * ratio, dataset, spec, beta)


def shrinkage_gamma(v: np.ndarray, dataset: Dataset, spec: ModelSpec,
                    beta: np.ndarray) -> RandomEffects:
    """gamma_l = v * Z_l^T V0_l^{-1} (y_l - X_l beta) per group at relative
    variances v, V0 = I + Z diag(v) Z^T, from one solve at sigma = 1.

    The recipe of an ML/REML fit's deviations: at a fit's own v and beta
    (`BaselineFit.relative_variances`, `beta`) it gives back its gamma bit
    for bit.
    """
    v = np.asarray(v, dtype=float)
    sol = BlockDesign(dataset, spec).solve(v[None], np.ones(1))
    return RandomEffects(v * sol.zt_vinv_resid(np.asarray(beta, dtype=float)[None])[0])


def _baseline_starts(design: BlockDesign, seed: int):
    """Deterministic starting points v = (varsigma / sigma)^2 of the search.

    The jitter is multiplicative on the natural-scale components
    (varsigma, sigma), from varsigma = 1/2 and sigma = 1 (v = 1/4); each
    start is then mapped to v. The scale of the data would cancel from v,
    so none is computed.
    """
    natural = np.append(np.full(design.k, 0.5), 1.0)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5A5A]))
    # two draws from one generator; jittered_starts packs sigma as log sigma
    return [(x[:-1] / math.exp(x[-1])) ** 2 for x in jittered_starts(natural, [rng, rng])]


def fit_unconstrained(dataset: Dataset, spec: ModelSpec, criterion: str = "REML",
                      seed: int = 0) -> BaselineFit:
    """Maximize the ML or REML criterion over theta, then recover beta, gamma.

    The search runs over the relative variances v = (varsigma / sigma)^2 in
    [0, inf)^k, with beta and sigma profiled out (`criterion_and_gradient`);
    a small deterministic multi-start around v = 1/4, run in lockstep by
    `optim.minimize_starts` and won by `estimate.multistart`, guards
    against poor initial points. A fit costs exactly its search, one
    `BlockSolve` per round: each evaluation keeps the beta_hat, sigma_hat^2
    and u = Z^T V0^{-1} r rows of its points, and the winning point's rows
    give beta and sigma, varsigma = sqrt(v) sigma and gamma = v * u (the
    `shrinkage_gamma` recipe, equal to `gamma_closed_form` at theta to
    rounding).
    """
    criterion = criterion.upper()
    if criterion not in ("ML", "REML"):
        raise ValueError(f"criterion must be ML or REML, got {criterion!r}")
    design = BlockDesign(dataset, spec)
    restricted = criterion == "REML"
    fits = {}  # per evaluated point (a tuple, so -0.0 keys 0.0): its fit rows

    def objective(x):
        value, grad, *rows = _profiled_fit(x, design, restricted)
        fits.update(zip(map(tuple, x.tolist()), zip(*rows)))
        return value, grad

    _, res, results, _ = multistart(minimize_starts(
        objective, _baseline_starts(design, seed), [(0.0, None)] * design.k))
    # a point the search evaluated: setulb's last or restored iterate, or
    # the re-projected point that `optim` evaluates
    beta, s2, u = fits[tuple(res.x.tolist())]
    sigma = math.sqrt(s2)
    return BaselineFit(
        theta=Theta(np.sqrt(res.x) * sigma, sigma),
        beta=beta,
        gamma=RandomEffects(res.x * u),  # the `shrinkage_gamma` recipe
        loglik=-res.fun,  # the minimized criterion is the negated log-likelihood
        criterion=criterion,
        converged=res.converged,
        n_iter=res.n_iter,
        trace=res.trace,
        n_eval=sum(r.nfev for _, r in results),
        pg_norm=res.pg_norm,
        relative_variances=res.x,
    )


def gh_nodes(q: int):
    """Transformed Gauss-Hermite rule for standard-normal expectations.

    Returns nodes d and total weights w with sum(w) = 1, so that
    E[h(N(0,1))] ~= sum_q w_q h(d_q).
    """
    if q not in _GH_TABLE:
        raise ValueError(f"quadrature order must be one of {sorted(_GH_TABLE)}, got {q}")
    z, eta = _GH_TABLE[q]
    return math.sqrt(2.0) * z, eta / math.sqrt(math.pi)


PIT_UNDERFLOW_PENALTY = 1e30
_LOG_NORM = -0.5 * math.log(2.0 * math.pi)


def pit_objective(x: np.ndarray, design: BlockDesign, spec: ModelSpec, q: int,
                  strict: bool = True):
    """Negative log of the quadrature-approximated marginal likelihood.

    x packs (beta, varsigma, log sigma) for a single random-effect column;
    it is one point (m,), whose value is a float, or R points (R, m),
    whose values are an (R,) array, each bit-equal to its row's value
    alone. The deviation at node d_j is the SDTN quantile at Phi(d_j); it
    is 0 at every node where varsigma = 0 or beta_alpha = 0, or where the
    ratio |beta_alpha| / varsigma underflows to 0. Per-group products of
    row densities are accumulated in log space and combined across nodes
    with log-sum-exp. If every node's log-product falls below the
    double-precision floor for some group, the historical plain-product
    objective is exactly -log(0): with `strict` the underflow diagnostic
    is raised, otherwise that row's value is a large finite penalty, so a
    line search can back away (mirroring -log(0) = inf). A batch raises
    what its first failing row raises alone.
    """
    X = np.asarray(x, dtype=float).reshape(-1, np.shape(x)[-1])
    p = design.p
    B = X[:, :p]
    d, w = gh_nodes(q)
    varsigma = np.abs(X[:, p])
    col = spec.alpha[0]
    b = np.abs(B[:, col])
    with np.errstate(over="ignore"):  # as in float division, b / tiny varsigma is inf
        rho = np.divide(b, varsigma, out=np.zeros_like(b), where=varsigma > 0.0)
    # rho = 0 puts every quantile at exactly 0
    gammas = sdtn_quantile(std_normal_cdf(d), 0.0, varsigma[:, None], rho[:, None])
    try:  # sigma and the log normal constant -log(sqrt(2 pi) sigma), by scalar math
        sigma = per_entry(math.exp)(X[:, p + 1])
        log_norm = _LOG_NORM - per_entry(math.log)(sigma)
    except (OverflowError, ValueError):
        if len(X) == 1:
            raise
        # the rows alone, in order: the first failing row raises its own error
        return np.array([pit_objective(row, design, spec, q, strict)
                         for row in X]).reshape(np.shape(x)[:-1])
    sigma, log_norm = sigma[:, None, None], log_norm[:, None, None]

    log_max, sums = [], []  # per group, (R,): the best node and the scaled node sum
    for lo, hi in zip(design.offsets[:-1], design.offsets[1:]):
        X_l = design.X[lo:hi]
        resid = design.y[lo:hi] - (X_l @ B[..., None])[..., 0]
        # log-product over rows for each point and node: (R, n_l, Q) summed over rows
        dev = resid[:, :, None] - X_l[:, col:col + 1] * gammas[:, None, :]
        log_prod = np.sum(log_norm - 0.5 * (dev / sigma) ** 2, axis=1)
        top = np.max(log_prod, axis=1)
        log_max.append(top)
        shift = np.maximum(top, LOG_DOUBLE_MIN)  # top, except where the group underflows
        sums.append(np.sum(w * np.exp(log_prod - shift[:, None]), axis=1))

    log_max, sums = np.transpose(log_max), np.transpose(sums)  # (R, g)
    under = log_max < LOG_DOUBLE_MIN
    if strict and under.any():  # the first underflowing group of the first such row
        r, ell = np.argwhere(under)[0]
        raise QuadratureUnderflowError(design.group_ids[ell], float(log_max[r, ell]))
    terms = -(log_max + per_entry(math.log)(np.where(under, 1.0, sums)))
    values = np.zeros(len(X))
    for term in terms.T:  # group by group, as a row's terms add up in order
        values += term
    values[under.any(axis=1)] = PIT_UNDERFLOW_PENALTY
    return values.reshape(np.shape(x)[:-1])[()]


def check_pit_k(k: int):
    """Raise ValueError unless k = 1: PIT supports one random-effect column."""
    if k != 1:
        raise ValueError(
            f"the quadrature baseline supports exactly one random-effect column, got k={k}")


def fit_pit(dataset: Dataset, spec: ModelSpec, q: int = 2,
            initial: Parameters | None = None) -> BaselineFit:
    """Fit the PIT quadrature baseline (single random-effect column only).

    Deliberately mirrors the original single-pass formulation: one
    box-constrained minimization from `initial` (default: clamped
    least-squares coefficients with the standard scale recipe). The
    quadrature surface is multi-modal and the density products underflow
    on large groups; both behaviors are part of what this baseline is
    meant to exhibit. Callers needing a better basin can supply `initial`,
    with p beta entries and one varsigma entry (ValueError otherwise).
    """
    design = BlockDesign(dataset, spec)
    check_pit_k(design.k)
    y, X = design.y, design.X
    if initial is None:
        beta0, *_ = np.linalg.lstsq(X, y, rcond=None)
        beta0 = np.maximum(beta0, 0.0)
        rsd = max(float(np.std(y - X @ beta0)), 1e-8)
        vs0 = 0.5 * abs(beta0[spec.alpha[0]]) + 0.1 * float(np.std(y))
        x0 = np.concatenate([beta0, [vs0], [math.log(rsd)]])
    else:
        check_sizes(initial, design.p, design.k, "initial point")
        x0 = np.concatenate([initial.beta, initial.varsigma,
                             [math.log(initial.sigma)]])

    bounds = search_bounds(design, spec)
    # the first evaluation and the returned solution must carry real mass;
    # transient probes may dip into the underflow region and back out
    pit_objective(x0, design, spec, q, strict=True)
    (res,) = minimize_starts(with_central_diff(lambda P: pit_objective(P, design, spec, q,
                                                                       strict=False)),
                             [x0], bounds, tol_obj=1e-10, tol_grad=1e-7)
    if not isinstance(res, BoxResult):
        raise res
    pit_objective(res.x, design, spec, q, strict=True)
    params = unpack(res.x, spec)
    return BaselineFit(
        theta=Theta(params.varsigma, params.sigma),
        beta=params.beta,
        gamma=solve_all(dataset, params, spec),
        loglik=-res.fun,
        criterion="PIT",
        converged=res.converged,
        n_iter=res.n_iter,
        trace=res.trace,
        n_eval=res.nfev,
        pg_norm=res.pg_norm,
    )
