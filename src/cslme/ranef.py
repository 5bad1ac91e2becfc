"""Posterior-mode random effects: per-group box-constrained QPs.

Given fitted (beta, varsigma, sigma), each group's deviation vector solves

    min (1/sigma^2) ||ytilde - Z gamma||^2 + gamma^T diag(varsigma^2)^-1 gamma
    s.t.  -bound <= gamma <= bound,   bound = |beta| on the random columns,

a strictly convex quadratic program once zero-variance coordinates are
fixed at zero. Groups decouple, so the stacked problem is solved one small
QP at a time via a primal active-set method with exact subproblem solves.
"""

from dataclasses import dataclass

import numpy as np

from .model import Dataset, ModelSpec, Parameters, RandomEffects
from .optim import ConvergenceError


@dataclass(frozen=True)
class GroupQp:
    """One group's QP data. bounds and Sigma_hat_diag are elementwise >= 0."""

    Ztilde: np.ndarray
    ytilde: np.ndarray
    sigma_hat: float
    Sigma_hat_diag: np.ndarray
    bounds: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "Ztilde", np.asarray(self.Ztilde, dtype=float))
        object.__setattr__(self, "ytilde", np.asarray(self.ytilde, dtype=float))
        object.__setattr__(self, "Sigma_hat_diag", np.asarray(self.Sigma_hat_diag, dtype=float))
        object.__setattr__(self, "bounds", np.asarray(self.bounds, dtype=float))
        if not self.sigma_hat > 0:
            raise ValueError("sigma_hat must be positive")
        if np.any(self.Sigma_hat_diag < 0) or np.any(self.bounds < 0):
            raise ValueError("variances and bounds must be nonnegative")
        k = self.bounds.size
        if self.Ztilde.shape != (self.ytilde.size, k) or self.Sigma_hat_diag.size != k:
            raise ValueError("inconsistent QP dimensions")


def _box_qp(H, c, lo, hi, tol=1e-12):
    """Minimize 0.5 x'Hx - c'x over lo <= x <= hi, H symmetric PD.

    Primal active set: solve the free subsystem exactly, step to the first
    blocking bound when infeasible, release the worst-violating multiplier
    otherwise. Finite for strictly convex problems, ConvergenceError at the
    iteration cap; the returned point satisfies the bounds exactly.
    """
    m = c.size
    x = np.clip(np.linalg.solve(H, c), lo, hi)
    state = np.zeros(m, dtype=int)  # -1 at lower, +1 at upper, 0 free
    state[x <= lo] = -1
    state[x >= hi] = 1

    for _ in range(60 * m + 200):
        fixed = state != 0
        bound_vals = np.where(state < 0, lo, hi)
        target = np.where(fixed, bound_vals, 0.0)
        free = ~fixed
        if free.any():
            rhs = c[free] - H[np.ix_(free, fixed)] @ bound_vals[fixed]
            target[free] = np.linalg.solve(H[np.ix_(free, free)], rhs)

        out_lo = free & (target < lo)
        out_hi = free & (target > hi)
        if out_lo.any() or out_hi.any():
            delta = target - x
            t, block, side = 1.0, -1, 0
            for i in np.where(out_lo | out_hi)[0]:
                if delta[i] < 0:
                    ti, si = (lo[i] - x[i]) / delta[i], -1
                else:
                    ti, si = (hi[i] - x[i]) / delta[i], 1
                if ti < t:
                    t, block, side = ti, i, si
            x = np.clip(x + t * delta, lo, hi)
            if block >= 0:
                state[block] = side
                x[block] = lo[block] if side < 0 else hi[block]
            continue

        x = target
        g = H @ x - c
        release, worst = -1, tol
        for i in np.where(fixed)[0]:
            viol = -g[i] if state[i] < 0 else g[i]
            if viol > worst:
                release, worst = i, viol
        if release < 0:
            return np.clip(x, lo, hi)
        state[release] = 0
    raise ConvergenceError("active-set QP did not terminate")


def solve_group(qp: GroupQp) -> np.ndarray:
    """Unique minimizer of one group's QP; zero-variance or zero-bound
    coordinates are fixed at 0 and eliminated before solving."""
    k = qp.bounds.size
    gamma = np.zeros(k)
    live = (qp.Sigma_hat_diag > 0) & (qp.bounds > 0)
    if not live.any():
        return gamma
    Z = qp.Ztilde[:, live]
    b = qp.bounds[live]
    s2 = qp.Sigma_hat_diag[live]
    r2 = qp.sigma_hat * qp.sigma_hat
    H = 2.0 * (Z.T @ Z / r2 + np.diag(1.0 / s2))
    c = 2.0 * (Z.T @ qp.ytilde) / r2
    gamma[live] = _box_qp(H, c, -b, b)
    return gamma


def kkt_residual(qp: GroupQp, gamma: np.ndarray) -> float:
    """Max violated stationarity/sign condition over the live coordinates."""
    live = (qp.Sigma_hat_diag > 0) & (qp.bounds > 0)
    if not live.any():
        return 0.0
    Z = qp.Ztilde[:, live]
    b = qp.bounds[live]
    s2 = qp.Sigma_hat_diag[live]
    r2 = qp.sigma_hat * qp.sigma_hat
    x = gamma[live]
    g = 2.0 * (Z.T @ (Z @ x - qp.ytilde)) / r2 + 2.0 * x / s2
    res = 0.0
    for i in range(x.size):
        if x[i] <= -b[i]:
            res = max(res, max(0.0, -g[i]))
        elif x[i] >= b[i]:
            res = max(res, max(0.0, g[i]))
        else:
            res = max(res, abs(g[i]))
    return float(res)


def group_qps(dataset: Dataset, params: Parameters, spec: ModelSpec) -> list:
    """Build each group's QP from fitted parameters."""
    spec.validate_against(dataset)
    cols = list(spec.alpha)
    bounds = np.abs(params.beta[cols])
    qps = []
    for gd in dataset.groups:
        qps.append(GroupQp(
            Ztilde=gd.X[:, cols],
            ytilde=gd.y - gd.X @ params.beta,
            sigma_hat=params.sigma,
            Sigma_hat_diag=params.varsigma ** 2,
            bounds=bounds,
        ))
    return qps


def solve_all(dataset: Dataset, params: Parameters, spec: ModelSpec) -> RandomEffects:
    """Stack per-group solutions; equals the joint minimizer by decomposability.

    Coordinates sitting exactly at a bound are flagged for downstream
    interpretation (the overall coefficient is pinned at zero there).
    """
    qps = group_qps(dataset, params, spec)
    k = spec.k
    gamma = np.zeros((dataset.g, k))
    at_bound = np.zeros((dataset.g, k), dtype=bool)
    for ell, qp in enumerate(qps):
        sol = solve_group(qp)
        gamma[ell] = sol
        at_bound[ell] = np.abs(sol) >= qp.bounds
    return RandomEffects(gamma=gamma, at_bound=at_bound)
