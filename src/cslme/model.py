"""Grouped data model and the block-diagonal covariance core.

A Dataset is an ordered list of groups, each carrying a response vector and
a design matrix with a shared column count p. A ModelSpec selects the
columns (index set alpha, 0-based) that receive group-level random
deviations; the per-group random-effect design is Z_l = X_l[:, alpha].

The marginal covariance of the stacked response is V = Z Lambda Z^T +
sigma^2 I with Lambda diagonal, so V is block diagonal by group. All
determinant/solve work goes through the g small k x k capacitance matrices
(Woodbury / Sylvester), never the full n x n matrix. BlockDesign forms the
per-group cross-products once, in O(n (p + k)^2); each (d, sigma)
evaluation is then one batched factorization of the capacitance matrices
and batched contractions, O(g k^3 + g k p), plus one O(n p) mat-vec for a
residual.

`BlockSolve.criterion` is the one Gaussian criterion behind every
estimator: r^T V^{-1} r + ln|V|, plus ln|X^T V^{-1} X| when restricted.
PLS/PRLS evaluate it at the sign-constrained beta, ML/REML at the GLS
beta (`BlockSolve.gls_beta`), which reads the same Cholesky factor of
X^T V^{-1} X. `BlockSolve.criterion_partials` adds the partial derivatives
an exact gradient needs, for O(g k^2 (k + p) + g k p^2 + p^3) more.
"""

from dataclasses import dataclass, field
from functools import cached_property
import math

import numpy as np

from .sdtn import variance_factor, variance_factor_slope


class DimensionMismatchError(ValueError):
    """Shapes of responses/designs disagree across or within groups."""


class SingularDesignError(ValueError):
    """X^T V^{-1} X, or a joint normal-equation system, is rank deficient."""


def _require_finite(group_id, name: str, a: np.ndarray):
    bad = np.argwhere(~np.isfinite(a))
    if bad.size:
        row, *col = bad[0]
        where = f"row {row}" + (f", column {col[0]}" if col else "") + " (0-based)"
        raise ValueError(
            f"group {group_id}: non-finite {name} value {a[tuple(bad[0])]} at {where}"
        )


@dataclass(frozen=True)
class GroupData:
    """One group's response and fixed-effect design (n_l rows), all finite."""

    group_id: object
    y: np.ndarray | None
    X: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        if X.ndim != 2 or X.shape[0] < 1:
            raise DimensionMismatchError(
                f"group {self.group_id}: design must be a nonempty 2-d array"
            )
        _require_finite(self.group_id, "design", X)
        object.__setattr__(self, "X", X)
        if self.y is not None:
            y = np.asarray(self.y, dtype=float)
            if y.shape != (X.shape[0],):
                raise DimensionMismatchError(
                    f"group {self.group_id}: y has length {y.shape}, design has "
                    f"{X.shape[0]} rows"
                )
            _require_finite(self.group_id, "response", y)
            object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]


@dataclass(frozen=True)
class Dataset:
    """Ordered collection of groups with a consistent column count."""

    groups: tuple

    def __post_init__(self):
        groups = tuple(self.groups)
        if not groups:
            raise DimensionMismatchError("dataset needs at least one group")
        p = groups[0].X.shape[1]
        for gd in groups:
            if gd.X.shape[1] != p:
                raise DimensionMismatchError(
                    f"group {gd.group_id} has {gd.X.shape[1]} columns, expected {p}"
                )
        object.__setattr__(self, "groups", groups)

    @property
    def p(self) -> int:
        return self.groups[0].X.shape[1]

    @property
    def g(self) -> int:
        return len(self.groups)

    @property
    def n(self) -> int:
        return sum(gd.n for gd in self.groups)

    @property
    def group_ids(self) -> list:
        return [gd.group_id for gd in self.groups]


@dataclass(frozen=True)
class ModelSpec:
    """Model structure: random-effect columns and constraint mode.

    alpha holds 0-based, strictly increasing column indices that receive
    random effects. When `constrained` is set, every fixed effect is kept
    nonnegative except columns listed in `unconstrained_columns`.
    """

    alpha: tuple
    intercept: bool = True
    constrained: bool = True
    unconstrained_columns: tuple = field(default_factory=tuple)

    def __post_init__(self):
        alpha = tuple(int(i) for i in self.alpha)
        if any(b <= a for a, b in zip(alpha, alpha[1:])):
            raise ValueError(f"alpha must be strictly increasing, got {alpha}")
        if alpha and alpha[0] < 0:
            raise ValueError(f"alpha indices must be nonnegative, got {alpha}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(
            self, "unconstrained_columns", tuple(int(i) for i in self.unconstrained_columns)
        )

    @property
    def k(self) -> int:
        return len(self.alpha)

    def validate_against(self, dataset: Dataset):
        if self.alpha and self.alpha[-1] >= dataset.p:
            raise ValueError(
                f"alpha {self.alpha} out of range for p={dataset.p} columns"
            )


@dataclass(frozen=True, slots=True)
class Parameters:
    """Estimation target: fixed effects, SDTN scales, residual scale.

    Slotted, like RandomEffects: sweeps and simulations keep one per point.
    """

    beta: np.ndarray
    varsigma: np.ndarray
    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float))
        object.__setattr__(self, "varsigma", np.asarray(self.varsigma, dtype=float))
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if np.any(self.varsigma < 0):
            raise ValueError("varsigma entries must be nonnegative")


@dataclass(frozen=True, slots=True)
class RandomEffects:
    """Per-group deviations: row l holds gamma^l (g x k)."""

    gamma: np.ndarray
    at_bound: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "gamma", np.atleast_2d(np.asarray(self.gamma, dtype=float)))
        if self.at_bound is not None:
            object.__setattr__(self, "at_bound", np.atleast_2d(np.asarray(self.at_bound, dtype=bool)))


def re_variances(beta: np.ndarray, varsigma: np.ndarray, alpha) -> np.ndarray:
    """SDTN random-effect variances from raw coefficient/scale arrays.

    Entry i is varsigma_i^2 * variance_factor(|beta_{alpha_i}| / |varsigma_i|).
    The absolute values keep the ratio defined at optimizer probe points
    that step slightly past a boundary. Zero scale or zero coefficient
    gives an exactly zero variance (degenerate random effect).
    """
    alpha = tuple(alpha)
    if len(alpha) != len(varsigma):
        raise DimensionMismatchError(
            f"varsigma has {len(varsigma)} entries, alpha has {len(alpha)}"
        )
    out = np.zeros(len(alpha))
    for i, col in enumerate(alpha):
        s = abs(float(varsigma[i]))
        b = abs(float(beta[col]))
        if s == 0.0 or b == 0.0:
            continue
        out[i] = s * s * variance_factor(b / s)
    return out


def re_variance_partials(beta: np.ndarray, varsigma: np.ndarray, alpha):
    """`re_variances` with its partial derivatives, for exact gradients.

    Returns (d, dd_dbeta, dd_dvarsigma), each of length k: d is bit-equal
    to re_variances, entry i of the others is the derivative of d_i in
    beta_{alpha_i} and in varsigma_i. With rho = |beta_{alpha_i}| /
    |varsigma_i| and vf' = variance_factor_slope, they are sign(beta) *
    |varsigma| vf'(rho) and sign(varsigma) * (2 |varsigma| vf(rho) -
    |beta| vf'(rho)). Where the scale or the coefficient is zero, d_i is
    identically zero along that boundary and flat to first order across
    it, so both partials are zero.
    """
    alpha = tuple(alpha)
    if len(alpha) != len(varsigma):
        raise DimensionMismatchError(
            f"varsigma has {len(varsigma)} entries, alpha has {len(alpha)}"
        )
    d, d_beta, d_varsigma = np.zeros((3, len(alpha)))
    for i, col in enumerate(alpha):
        s_signed, b_signed = float(varsigma[i]), float(beta[col])
        s, b = abs(s_signed), abs(b_signed)
        if s == 0.0 or b == 0.0:
            continue
        vf = variance_factor(b / s)
        slope = variance_factor_slope(b / s)
        d[i] = s * s * vf
        d_beta[i] = math.copysign(s * slope, b_signed)
        d_varsigma[i] = math.copysign(2.0 * s * vf - b * slope, s_signed)
    return d, d_beta, d_varsigma


def sdtn_variances(params: Parameters, spec: ModelSpec) -> np.ndarray:
    """Per-column SDTN random-effect variances (the diagonal of Delta)."""
    return re_variances(params.beta, params.varsigma, spec.alpha)


class BlockDesign:
    """Stacked data and per-group cross-products for block-diagonal V work.

    Set-up forms, once per dataset, the stacked X and y, the totals X^T X
    and X^T y and the per-group cross-products Z_l^T Z_l (g, k, k),
    Z_l^T X_l (g, k, p) and Z_l^T y_l (g, k): O(n (p + k)^2). Each
    (d, sigma) evaluation then factorizes the g capacitance matrices
    M_l = I + S Z_l^T Z_l S / sigma^2, S = diag(sqrt(d)), in one batched
    call and works from the cross-products alone: O(g k^3 + g k p), plus
    one O(n p) mat-vec for a residual quadratic form.

    `solve` keeps its last factorization and returns it again when
    (d, sigma) is bit-equal, as it is for the central-difference probes
    of a labeled-parameter search (`sim.minimize_labels`) on fixed effects
    that carry no random deviation.
    """

    def __init__(self, dataset: Dataset, spec: ModelSpec):
        spec.validate_against(dataset)
        self.spec = spec
        self.p = dataset.p
        self.k = spec.k
        self.group_ids = dataset.group_ids
        cols = list(spec.alpha)
        # per-group views, for the per-group quadrature of the PIT baseline
        self.ys = [gd.y for gd in dataset.groups]
        self.Xs = [gd.X for gd in dataset.groups]
        self.Zs = [gd.X[:, cols] for gd in dataset.groups]
        self.X = np.vstack(self.Xs)
        self.n = self.X.shape[0]
        Z = self.X[:, cols]
        starts = np.cumsum([0] + [gd.n for gd in dataset.groups[:-1]])

        def per_group(rows):
            return np.add.reduceat(rows, starts, axis=0)

        self.ZtZ = per_group(Z[:, :, None] * Z[:, None, :])
        self.ZtX = per_group(Z[:, :, None] * self.X[:, None, :])
        self.XtX = self.X.T @ self.X
        if any(y is None for y in self.ys):
            self.y = self.Zty = self.Xty = self.ZtA = self.XtA = None
        else:
            self.y = np.concatenate(self.ys)
            self.Zty = per_group(Z * self.y[:, None])
            self.Xty = self.X.T @ self.y
            # the same, side by side, for the gradient: Z_l^T [Z_l X_l y_l], X^T [X y]
            self.ZtA = np.concatenate([self.ZtZ, self.ZtX, self.Zty[:, :, None]], axis=2)
            self.XtA = np.column_stack([self.XtX, self.Xty])
        self.eye = np.eye(self.k)
        self._last = None

    @property
    def g(self) -> int:
        return len(self.Xs)

    @property
    def log_sigma_floor(self) -> float:
        """Lower bound on log sigma shared by every fit: log max(1e-6 sd(y), 1e-12)."""
        return math.log(max(1e-6 * float(np.std(self.y)), 1e-12))

    def solve(self, re_var: np.ndarray, sigma: float) -> "BlockSolve":
        d = np.array(re_var, dtype=float)
        sigma = float(sigma)
        key = (d.shape, d.tobytes(), sigma)
        if self._last is None or self._last[0] != key:
            self._last = (key, BlockSolve(self, d, sigma))
        return self._last[1]


def as_design(dataset, spec: ModelSpec) -> BlockDesign:
    """The BlockDesign of `dataset`, which may already be one."""
    if isinstance(dataset, BlockDesign):
        return dataset
    return BlockDesign(dataset, spec)


class BlockSolve:
    """Factorized state of V = Z diag(d) Z^T + sigma^2 I for fixed (d, sigma).

    With M_l = L_l L_l^T and B_l = L_l^{-1} S, the Woodbury identity gives
    V_l^{-1} = (I - Z_l B_l^T B_l Z_l^T / sigma^2) / sigma^2, so every
    product below is a batched contraction of the design's cross-products.
    """

    def __init__(self, design: BlockDesign, d: np.ndarray, sigma: float):
        if d.shape != (design.k,):
            raise DimensionMismatchError(
                f"expected {design.k} random-effect variances, got {d.shape}"
            )
        if any(v < 0.0 for v in d.tolist()):
            raise ValueError("random-effect variances must be nonnegative")
        if not sigma > 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        self.design = design
        self.d = d
        self.sigma = sigma
        self.sigma2 = sigma * sigma
        s = np.sqrt(d)
        L = np.linalg.cholesky(design.eye + design.ZtZ * (s[:, None] * s / self.sigma2))
        self.logdet_v = (design.n * math.log(self.sigma2)
                         + 2.0 * float(np.log(L.diagonal(0, 1, 2)).sum()))
        self._B = np.linalg.inv(L) * s

    def _BZtX(self) -> np.ndarray:
        """B_l Z_l^T X_l stacked over groups, (g k, p)."""
        return (self._B @ self.design.ZtX).reshape(-1, self.design.p)

    def _Ztr(self, beta: np.ndarray) -> np.ndarray:
        des = self.design
        return des.Zty - des.ZtX @ beta

    def quad_form_resid(self, beta: np.ndarray) -> float:
        """(y - X beta)^T V^{-1} (y - X beta); r^T r from the stacked residual."""
        des = self.design
        r = des.y - des.X @ beta
        u = (self._B @ self._Ztr(beta)[:, :, None]).ravel()
        return float(r @ r - u @ u / self.sigma2) / self.sigma2

    def xt_vinv_x(self) -> np.ndarray:
        T = self._BZtX()
        return (self.design.XtX - T.T @ T / self.sigma2) / self.sigma2

    def xt_vinv_y(self) -> np.ndarray:
        u = (self._B @ self.design.Zty[:, :, None]).reshape(-1)
        return (self.design.Xty - self._BZtX().T @ u / self.sigma2) / self.sigma2

    @cached_property
    def _f_chol(self):
        """(F, L): F = X^T V^{-1} X = L L^T, the one factorization of F.

        F depends on (d, sigma) alone, so it stays exact when
        `BlockDesign.solve` hands this solve back for a repeated point.
        """
        F = self.xt_vinv_x()
        try:
            L = np.linalg.cholesky(F)
            # a collinear column can pass with a rounding-level pivot, about
            # sqrt(eps) of its norm; reject pivots below 1e-7 of the norm, the
            # usual QR collinearity tolerance (Python floats: p is small)
            pivots, norms2 = L.diagonal().tolist(), F.diagonal().tolist()
            if any(v * v <= 1e-14 * f for v, f in zip(pivots, norms2)):
                raise np.linalg.LinAlgError("collinear design column")
        except np.linalg.LinAlgError as exc:
            raise SingularDesignError("X^T V^{-1} X is singular") from exc
        return F, L

    def _logdet_f(self) -> float:
        return 2.0 * float(np.sum(np.log(np.diag(self._f_chol[1]))))

    def gls_beta(self) -> np.ndarray:
        """Generalized-least-squares fixed effects F^{-1} X^T V^{-1} y."""
        L = self._f_chol[1]
        return np.linalg.solve(L.T, np.linalg.solve(L, self.xt_vinv_y()))

    def criterion(self, beta: np.ndarray, restricted: bool) -> float:
        """r^T V^{-1} r + ln|V|, plus ln|X^T V^{-1} X| if `restricted`; r = y - X beta.

        The PLS (PRLS) objective at beta; at beta = gls_beta() it is -2
        times the profile (restricted) log-likelihood, up to constants.
        """
        value = self.quad_form_resid(beta) + self.logdet_v
        if restricted:
            value += self._logdet_f()
        return value

    def criterion_partials(self, beta: np.ndarray, restricted: bool):
        """`criterion` and its partial derivatives, from this one factorization.

        Returns (value, dd, xvr, half_dlogsigma). dd[i], the derivative in
        d_i at fixed beta and sigma, is sum_l [(Z_l^T V_l^{-1} Z_l)_ii -
        u_li^2] with u_l = Z_l^T V_l^{-1} r_l; if `restricted` it also
        carries the derivative of ln|F|, -sum_l (W_l F^{-1} W_l^T)_ii with
        W_l = Z_l^T V_l^{-1} X_l. xvr = X^T V^{-1} r, so the derivative in
        beta at fixed V is -2 xvr. V is homogeneous of degree 1 in (d,
        sigma^2), so the derivative in log sigma at fixed beta and d is
        twice

            half_dlogsigma = n - q - p [restricted] - sum_i d_i dd_i,

        with q the quadratic form. Everything is read off Z_l^T V_l^{-1}
        [Z_l X_l y_l] and X^T V^{-1} [X y], one batched product each, with
        u_l and xvr formed as (.. y) - (.. X) beta: O(g k^2 (k + p) + g k
        p^2 + p^3).
        """
        des = self.design
        k, p, s2 = des.k, des.p, self.sigma2
        q = self.quad_form_resid(beta)
        value = q + self.logdet_v
        if restricted:
            value += self._logdet_f()
        Q = self._B @ des.ZtA                                # B_l Z_l^T [Z_l X_l y_l]
        R = (des.ZtA - np.swapaxes(Q[:, :, :k], 1, 2) @ Q / s2) / s2  # Z_l^T V_l^{-1} [...]
        W = R[:, :, k:k + p]
        u = R[:, :, -1] - W @ beta
        dd = (R.diagonal(0, 1, 2) - u * u).sum(axis=0)
        T = Q[:, :, k:].reshape(-1, p + 1)
        M = (des.XtA - T[:, :p].T @ T / s2) / s2             # X^T V^{-1} [X y]
        xvr = M[:, -1] - M[:, :p] @ beta
        if restricted:
            Wt = np.swapaxes(W, 0, 1)                        # (k, g, p)
            dd -= (np.swapaxes(Wt, 1, 2) @ Wt * np.linalg.inv(self._f_chol[0])).sum(axis=(1, 2))
        return value, dd, xvr, des.n - q - p * restricted - float(self.d @ dd)

    def zt_vinv_resid(self, beta: np.ndarray) -> np.ndarray:
        """Z_l^T V_l^{-1} (y_l - X_l beta) for every group, as rows of a (g, k) array."""
        des = self.design
        z = self._Ztr(beta)[:, :, None]
        w = np.swapaxes(self._B, 1, 2) @ (self._B @ z)
        return (z - des.ZtZ @ w / self.sigma2)[:, :, 0] / self.sigma2
