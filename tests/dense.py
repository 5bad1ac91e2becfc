"""Dense test oracles: the stacked model, n x n covariance, the joint
(beta, gamma) normal equations, the stacked random-effect QP objective,
a one-point central-difference gradient, the PIT objective in its
per-group layout and a synthetic discounted-sales panel.

The package never forms an n x n matrix; these slow, direct forms are what
its block-diagonal core is checked against.
"""

import csv
import math
from pathlib import Path

import numpy as np

from cslme.baseline import (
    LOG_DOUBLE_MIN,
    PIT_UNDERFLOW_PENALTY,
    QuadratureUnderflowError,
    Theta,
    gh_nodes,
)
from cslme.optim import central_diff_probes
from cslme.ranef import group_qps
from cslme.sdtn import per_entry, sdtn_quantile, std_normal_cdf
from cslme.model import (
    Dataset,
    ModelSpec,
    Parameters,
    RandomEffects,
    SingularDesignError,
    sdtn_variances,
)


def assemble(dataset: Dataset, spec: ModelSpec):
    """Stack the grouped model into dense (X, Z, y, group_offsets).

    Z is block diagonal with block l equal to X_l restricted to the alpha
    columns; rows keep input order within and across groups. group_offsets
    has g + 1 entries (row boundaries of each group's block).
    """
    spec.validate_against(dataset)
    k, g = spec.k, dataset.g
    n, p = dataset.n, dataset.p
    X = np.vstack([gd.X for gd in dataset.groups])
    y = np.concatenate([gd.y for gd in dataset.groups])
    Z = np.zeros((n, k * g))
    offsets = np.zeros(g + 1, dtype=int)
    row = 0
    for ell, gd in enumerate(dataset.groups):
        offsets[ell] = row
        if k:
            Z[row:row + gd.n, ell * k:(ell + 1) * k] = gd.X[:, list(spec.alpha)]
        row += gd.n
    offsets[g] = row
    return X, Z, y, offsets


def lambda_diag(params: Parameters, spec: ModelSpec, g: int) -> np.ndarray:
    """Diagonal of Lambda: g repeated copies of the per-column variances."""
    return np.tile(sdtn_variances(params, spec), g)


def marginal_cov(params: Parameters, spec: ModelSpec, Z: np.ndarray) -> np.ndarray:
    """Dense marginal covariance V = Z Lambda Z^T + sigma^2 I.

    Intended for tests and small problems; fitting code uses BlockDesign.
    """
    n, kg = Z.shape
    if spec.k == 0:
        return params.sigma ** 2 * np.eye(n)
    g = kg // spec.k
    lam = lambda_diag(params, spec, g)
    return (Z * lam) @ Z.T + params.sigma ** 2 * np.eye(n)


def joint_system_solve(theta_hat: Theta, dataset, spec: ModelSpec):
    """Solve the joint (beta, gamma) normal equations at known theta.

    Coordinates with zero random-effect variance are removed from the
    system (their deviations are identically zero) so the penalty block
    stays invertible; the result agrees with the closed forms.
    """
    X, Z, y, _ = assemble(dataset, spec)
    g, k, p = dataset.g, spec.k, dataset.p
    active = np.where(theta_hat.varsigma > 0)[0]
    keep = np.concatenate([ell * k + active for ell in range(g)]) if k else np.array([], dtype=int)
    Za = Z[:, keep] if k else Z
    ginv = np.tile(1.0 / theta_hat.varsigma[active] ** 2, g)
    r2 = theta_hat.sigma ** 2
    top = np.hstack([X.T @ X, X.T @ Za])
    bottom = np.hstack([Za.T @ X, Za.T @ Za + r2 * np.diag(ginv)])
    lhs = np.vstack([top, bottom])
    rhs = np.concatenate([X.T @ y, Za.T @ y])
    try:
        sol = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularDesignError("joint system is singular") from exc
    beta = sol[:p]
    gamma = np.zeros((g, k))
    for j, idx in enumerate(keep):
        gamma[idx // k, idx % k] = sol[p + j]
    return beta, RandomEffects(gamma)


def joint_objective(dataset: Dataset, params: Parameters, spec: ModelSpec,
                    gamma: np.ndarray) -> float:
    """Stacked QP objective at a feasible gamma (inf if a zero-variance
    coordinate carries a nonzero deviation)."""
    qps = group_qps(dataset, params, spec)
    gamma = np.atleast_2d(np.asarray(gamma, dtype=float))
    total = 0.0
    for ell, qp in enumerate(qps):
        x = gamma[ell]
        dead = qp.Sigma_hat_diag == 0
        if np.any(dead & (x != 0.0)):
            return np.inf
        r = qp.ytilde - qp.Ztilde @ x
        total += float(r @ r) / qp.sigma_hat ** 2
        live = ~dead
        if live.any():
            total += float(np.sum(x[live] ** 2 / qp.Sigma_hat_diag[live]))
    return total


def central_diff_grad(fun, x: np.ndarray, h: np.ndarray | None = None) -> np.ndarray:
    """Central-difference gradient of a one-point `fun`, called at the probes
    of `optim.central_diff_probes` after x, one after another."""
    probes, h = central_diff_probes(x, h)
    values = np.array([fun(probe) for probe in probes[1:]], dtype=float)
    return (values[0::2] - values[1::2]) / (2.0 * h)


def pit_objective(x: np.ndarray, design, spec: ModelSpec, q: int, strict: bool = True):
    """`baseline.pit_objective` in its historical layout: one pass per group
    over (R, n_l, Q) arrays, the Q nodes on the contiguous axis, each
    group's log-products summed over its rows along axis 1."""
    X = np.asarray(x, dtype=float).reshape(-1, np.shape(x)[-1])
    p = design.p
    B = X[:, :p]
    d, w = gh_nodes(q)
    varsigma = np.abs(X[:, p])
    col = spec.alpha[0]
    b = np.abs(B[:, col])
    with np.errstate(over="ignore"):
        rho = np.divide(b, varsigma, out=np.zeros_like(b), where=varsigma > 0.0)
    gammas = sdtn_quantile(std_normal_cdf(d), 0.0, varsigma[:, None], rho[:, None])
    try:
        sigma = per_entry(math.exp)(X[:, p + 1])
        log_norm = -0.5 * math.log(2.0 * math.pi) - per_entry(math.log)(sigma)
    except (OverflowError, ValueError):
        if len(X) == 1:
            raise
        return np.array([pit_objective(row, design, spec, q, strict)
                         for row in X]).reshape(np.shape(x)[:-1])
    sigma, log_norm = sigma[:, None, None], log_norm[:, None, None]

    log_max, sums = [], []
    for lo, hi in zip(design.offsets[:-1], design.offsets[1:]):
        X_l = design.X[lo:hi]
        resid = design.y[lo:hi] - (X_l @ B[..., None])[..., 0]
        dev = resid[:, :, None] - X_l[:, col:col + 1] * gammas[:, None, :]
        log_prod = np.sum(log_norm - 0.5 * (dev / sigma) ** 2, axis=1)
        top = np.max(log_prod, axis=1)
        log_max.append(top)
        shift = np.maximum(top, LOG_DOUBLE_MIN)
        sums.append(np.sum(w * np.exp(log_prod - shift[:, None]), axis=1))

    log_max, sums = np.transpose(log_max), np.transpose(sums)
    under = log_max < LOG_DOUBLE_MIN
    if strict and under.any():
        r, ell = np.argwhere(under)[0]
        raise QuadratureUnderflowError(design.group_ids[ell], float(log_max[r, ell]))
    terms = -(log_max + per_entry(math.log)(np.where(under, 1.0, sums)))
    values = np.zeros(len(X))
    for term in terms.T:
        values += term
    values[under.any(axis=1)] = PIT_UNDERFLOW_PENALTY
    return values.reshape(np.shape(x)[:-1])[()]


def synthetic_discount_sales(seed: int = 20170301, clusters: int = 6,
                             rows_per_cluster: int = 45):
    """Synthetic panel shaped like a store-level discounted-sales extract.

    Columns: Store Cluster (A, B, ...), Discount Rate in [0, 1] (mostly
    zero), Logit Quantity. The true discount effect is slightly positive,
    but low-demand clusters discount more often and more deeply, so an
    unconstrained mixed fit typically lands on a negative pooled slope;
    the sign-constrained fit cannot. Returns (header, rows).
    """
    rng = np.random.default_rng(seed)
    labels = [chr(ord("A") + i) for i in range(clusters)]
    # demand level decreasing across clusters, discounting intensity increasing
    base = np.linspace(0.9, -0.9, clusters) + rng.normal(0.0, 0.1, clusters)
    discount_prob = np.linspace(0.1, 0.7, clusters)
    discount_scale = np.linspace(0.1, 0.45, clusters)
    true_slope = 0.05
    rows = []
    for c in range(clusters):
        for _ in range(rows_per_cluster):
            if rng.random() < discount_prob[c]:
                x = float(np.clip(rng.normal(discount_scale[c], 0.1), 0.01, 1.0))
            else:
                x = 0.0
            y = base[c] + true_slope * x + float(rng.normal(0.0, 0.6))
            rows.append((labels[c], round(x, 3), round(y, 3)))
    return ("Store Cluster", "Discount Rate", "Logit Quantity"), rows


def write_synthetic_discount_sales(path, **kwargs) -> Path:
    """Write the synthetic discounted-sales panel as RFC-4180 CSV."""
    header, rows = synthetic_discount_sales(**kwargs)
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path
