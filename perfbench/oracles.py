"""Output checks that use no package code ROADMAP item 4 plans to move.

The dense PRLS objective builds the full ``n x n`` marginal covariance
itself, with the SDTN variance factor taken from ``scipy.stats.truncnorm``;
the per-group deviations are re-solved as bounded linear least squares by
``scipy.optimize.lsq_linear``.
"""

import numpy as np
from scipy.optimize import lsq_linear
from scipy.stats import truncnorm


def sdtn_variance(beta_i: float, varsigma_i: float) -> float:
    """Variance of the deviation law on [-|beta_i|, |beta_i|] with scale varsigma_i."""
    s, b = abs(varsigma_i), abs(beta_i)
    if s == 0.0 or b == 0.0:
        return 0.0
    return s * s * float(truncnorm.var(-b / s, b / s))


def dense_prls(dataset, alpha, beta, varsigma, sigma) -> float:
    """(y - X b)' V^-1 (y - X b) + ln|V| + ln|X' V^-1 X| with a dense V."""
    X = np.vstack([gd.X for gd in dataset.groups])
    y = np.concatenate([gd.y for gd in dataset.groups])
    n = X.shape[0]
    lam = np.array([sdtn_variance(beta[c], varsigma[i]) for i, c in enumerate(alpha)])
    V = sigma * sigma * np.eye(n)
    row = 0
    for gd in dataset.groups:
        Z = gd.X[:, list(alpha)]
        V[row:row + gd.n, row:row + gd.n] += (Z * lam) @ Z.T
        row += gd.n
    r = y - X @ beta
    sol = np.linalg.solve(V, np.column_stack([r, X]))
    sign_v, logdet_v = np.linalg.slogdet(V)
    sign_f, logdet_f = np.linalg.slogdet(X.T @ sol[:, 1:])
    if sign_v <= 0 or sign_f <= 0:
        return float("nan")
    return float(r @ sol[:, 0] + logdet_v + logdet_f)


def group_deviation(Z, ytilde, sigma, varsigma, bound) -> np.ndarray:
    """Minimize ||ytilde - Z g||^2 / sigma^2 + sum g_i^2 / varsigma_i^2 over |g| <= bound.

    Written as bounded least squares on the stacked system
    [Z / sigma; diag(1 / varsigma)] g ~ [ytilde / sigma; 0]. Coordinates with
    zero scale or zero bound are fixed at 0.
    """
    k = bound.size
    out = np.zeros(k)
    live = (varsigma > 0) & (bound > 0)
    if not live.any():
        return out
    A = np.vstack([Z[:, live] / sigma, np.diag(1.0 / varsigma[live])])
    rhs = np.concatenate([ytilde / sigma, np.zeros(int(live.sum()))])
    res = lsq_linear(A, rhs, bounds=(-bound[live], bound[live]), method="bvls", tol=1e-14)
    out[live] = np.clip(res.x, -bound[live], bound[live])
    return out
