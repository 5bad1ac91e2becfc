"""Grouped data model and the block-diagonal covariance core.

A Dataset is an ordered list of groups, each carrying a response vector and
a design matrix with a shared column count p. A ModelSpec selects the
columns (index set alpha, 0-based) that receive group-level random
deviations; the per-group random-effect design is Z_l = X_l[:, alpha].

The marginal covariance of the stacked response is V = Z Lambda Z^T +
sigma^2 I with Lambda diagonal, so V is block diagonal by group. All
determinant/solve work goes through the g small k x k capacitance matrices
(Woodbury / Sylvester), never the full n x n matrix. BlockDesign forms two
cross-products once, in O(n (p + k)^2): Z_l^T [Z_l X_l y_l] per group and
X^T [X y]. Each (d, sigma) evaluation is then one batched Cholesky
factorization of the capacitance matrices, one batched forward
substitution that inverts the factors (`_tril_inv`; no LU per block), one
batched product of the inverses with Z_l^T [Z_l X_l y_l] and contractions
of it, O(g k^3 + g k p), plus one O(n p) mat-vec for a residual.

`BlockSolve.criterion` is the one Gaussian criterion behind every
estimator: r^T V^{-1} r + ln|V|, plus ln|X^T V^{-1} X| when restricted.
PLS/PRLS evaluate it at the sign-constrained beta, ML/REML at the GLS
beta (`BlockSolve.gls_beta`), which reads the same Cholesky factor of
X^T V^{-1} X. `BlockSolve.criterion_parts` gives the quadratic form and
the log-determinants apart, with their partials in d and the rows u_l =
Z_l^T V_l^{-1} r_l, for O(g k^2 (k + p) + g k p^2 + p^3) more: the ML/REML
search that profiles sigma out weighs the parts apart.
`BlockSolve.criterion_hessian` is the whole of a PLS/PRLS evaluation: (f,
g, H), the criterion, its gradient and its Hessian in (beta, d, log
sigma), for O(g k^2 p + k^2 p^3) more.

A `BlockSolve` holds R points (d, sigma) along a leading points axis, as
a contour grid, one lockstep round of a fit's starts or one
central-difference step evaluates: one batched factorization of the R g
capacitance matrices, and every value, X^T V^{-1} X and its factor
included, per point. Every point gets the same products, so a point's
values do not depend on the batch; one point is a batch of one. A batch
raises if any of its points cannot be evaluated. A point whose capacitance
matrix has NaN or inf entries is not such a point: `np.linalg.cholesky`
factors the matrix into NaN entries or inf pivots instead of raising,
`_tril_inv` carries them on as IEEE arithmetic does, and ln|V| there is
NaN or +inf.

Two search-point layouts live here, each once. PIT, contour grids and
labeled searches use x = (beta, varsigma, log sigma): `parameter_labels`
names its entries, `search_bounds` gives its box and `unpack` reads it
back as `Parameters`.
PLS/PRLS search x = (beta, q, log sigma) with q_i = d_i / beta_{alpha_i}^2
in [0, Q_MAX], which keeps the uniform limit varsigma -> inf (q -> 1/3) on
the box: `share_bounds` gives its box, `to_shares` maps a varsigma point to
it, `unpack_shares` reads it back and `at_uniform_limit` flags the columns
whose read-back varsigma stands in for +inf.
"""

from dataclasses import dataclass, field
from functools import cached_property
import math

import numpy as np

from .sdtn import SMALL_RHO, per_entry, variance_factor


class DimensionMismatchError(ValueError):
    """Shapes of responses/designs disagree across or within groups."""


class NumericalError(ArithmeticError):
    """The input was valid, and the computation failed on it; bad input is a ValueError."""


# what a start, a replication or a CLI run counts as a numerical failure
NUMERICAL_FAILURES = (NumericalError, OverflowError, FloatingPointError, np.linalg.LinAlgError)


class SingularDesignError(NumericalError):
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
    """One group's response and fixed-effect design (n_l rows), both
    required and finite: every group can be fitted and evaluated."""

    group_id: object
    y: np.ndarray
    X: np.ndarray

    def __post_init__(self):
        if self.y is None:
            raise ValueError(f"group {self.group_id}: no response")
        X = np.asarray(self.X, dtype=float)
        if X.ndim != 2 or X.shape[0] < 1:
            raise DimensionMismatchError(
                f"group {self.group_id}: design must be a nonempty 2-d array"
            )
        _require_finite(self.group_id, "design", X)
        y = np.asarray(self.y, dtype=float)
        if y.shape != (X.shape[0],):
            raise DimensionMismatchError(
                f"group {self.group_id}: y has length {y.shape}, design has "
                f"{X.shape[0]} rows"
            )
        _require_finite(self.group_id, "response", y)
        object.__setattr__(self, "X", X)
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


def _indices(name: str, values) -> tuple:
    """`values` as a tuple of ints; ValueError for an entry that is not a
    nonnegative integer, or one given twice."""
    values = tuple(values)
    try:
        ints = tuple(int(v) for v in values)
    except (TypeError, ValueError, OverflowError):  # None, "a", nan, inf
        ints = None
    if ints != values or min(ints, default=0) < 0:
        raise ValueError(f"{name} indices must be nonnegative integers, got {values}")
    if len(set(ints)) < len(ints):
        raise ValueError(f"{name} lists an index twice: {ints}")
    return ints


@dataclass(frozen=True)
class ModelSpec:
    """Model structure: random-effect columns and constraint mode.

    alpha holds 0-based, strictly increasing column indices that receive
    random effects, at least one: each SDTN deviation is tied to its
    column's coefficient. When `constrained` is set, every fixed effect is
    kept nonnegative except columns listed in `unconstrained_columns`. Both
    hold nonnegative integers, none twice (ValueError here); `check_columns`
    checks them against the column count p.
    """

    alpha: tuple
    constrained: bool = True
    unconstrained_columns: tuple = field(default_factory=tuple)

    def __post_init__(self):
        alpha = _indices("alpha", self.alpha)
        if not alpha:
            raise ValueError("at least one random-effect column is required")
        if any(b <= a for a, b in zip(alpha, alpha[1:])):
            raise ValueError(f"alpha must be strictly increasing, got {alpha}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "unconstrained_columns",
                           _indices("unconstrained_columns", self.unconstrained_columns))

    @property
    def k(self) -> int:
        return len(self.alpha)

    def validate_against(self, dataset: Dataset):
        """Raise TypeError unless `dataset` is a Dataset, and ValueError for
        a column index out of range (`check_columns`); every entry point
        calls it first, and those given a point then call `check_sizes`."""
        if not isinstance(dataset, Dataset):
            raise TypeError(f"expected a Dataset, got {type(dataset).__name__}")
        self.check_columns(dataset.p)

    def check_columns(self, p: int):
        """Raise ValueError for a column index at or above the column count p."""
        for name, cols in (("alpha", self.alpha),
                           ("unconstrained_columns", self.unconstrained_columns)):
            if cols and max(cols) >= p:
                raise ValueError(f"{name} {cols} out of range for p={p} columns")


def check_point(varsigma: np.ndarray, sigma, beta: np.ndarray | None = None):
    """Reject a point with a non-finite entry, a negative varsigma or sigma <= 0.

    Shared by `Parameters` and `baseline.Theta`; a non-finite entry is
    named by field and index.
    """
    for name, a in (("beta", beta), ("varsigma", varsigma)):
        if a is not None and not np.isfinite(a).all():
            i = int(np.flatnonzero(~np.isfinite(a))[0])
            raise ValueError(f"{name}[{i}] must be finite, got {a.flat[i]}")
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be finite and positive, got {sigma}")
    if np.any(varsigma < 0):
        raise ValueError("varsigma entries must be nonnegative")


@dataclass(frozen=True, slots=True)
class Parameters:
    """Estimation target: fixed effects, SDTN scales, residual scale.

    Every entry is finite, varsigma >= 0 and sigma > 0 (`check_point`).
    Slotted, like RandomEffects: sweeps and simulations keep one per point.
    """

    beta: np.ndarray
    varsigma: np.ndarray
    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float))
        object.__setattr__(self, "varsigma", np.asarray(self.varsigma, dtype=float))
        check_point(self.varsigma, self.sigma, beta=self.beta)


def check_sizes(point: Parameters, p: int, k: int, name: str):
    """Raise ValueError naming `name` and both sizes unless the point has p
    beta and k varsigma entries: the one size rule, which every entry point
    given a point calls after `ModelSpec.validate_against`."""
    if point.beta.shape != (p,) or point.varsigma.shape != (k,):
        raise ValueError(f"{name} has {point.beta.size} beta and {point.varsigma.size} "
                         f"varsigma entries, the model has p={p} and k={k}")


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
    """SDTN random-effect variances from raw coefficient/scale arrays: (k,)
    at beta (p,) and varsigma (k,), (R, k) at (R, p) and (R, k), row by row.

    Entry i is varsigma_i^2 * variance_factor(|beta_{alpha_i}| / |varsigma_i|).
    The absolute values keep the ratio defined at optimizer probe points
    that step slightly past a boundary. Zero scale or zero coefficient
    gives an exactly zero variance (degenerate random effect); a ratio that
    underflows to 0 gives NaN, as inf * 0 does where varsigma^2 overflows.
    """
    b = np.abs(np.asarray(beta, dtype=float)[..., list(alpha)])
    s = np.abs(np.asarray(varsigma, dtype=float))
    if s.shape != b.shape:
        raise DimensionMismatchError(f"varsigma has shape {s.shape}, "
                                     f"alpha picks beta entries of shape {b.shape}")
    out = np.zeros(s.shape)
    live = (s != 0.0) & (b != 0.0)
    with np.errstate(over="ignore", invalid="ignore"):  # as Python floats: inf * 0 is NaN
        s, rho = s[live], b[live] / s[live]
        pos = rho > 0.0
        out[live] = np.where(pos, s * s, np.nan) * variance_factor(np.where(pos, rho, 1.0))
    return out


def sdtn_variances(params: Parameters, spec: ModelSpec) -> np.ndarray:
    """Per-column SDTN random-effect variances (the diagonal of Delta)."""
    return re_variances(params.beta, params.varsigma, spec.alpha)


class BlockDesign:
    """Stacked data and per-group cross-products for block-diagonal V work.

    Set-up forms, once per dataset, the stacked X and y, the g + 1 row
    boundaries `offsets` of the groups (group l is rows offsets[l] to
    offsets[l + 1]) and two cross-products of A = [Z X y]: ZtA, Z_l^T A_l
    per group (g, k, k + p + 1), and XtA, X^T [X y] (p, p + 1): O(n (p +
    k)^2). Each (d, sigma) evaluation then factorizes the g capacitance
    matrices M_l = I + S Z_l^T Z_l S / sigma^2, S = diag(sqrt(d)), in one
    batched call and works from the cross-products alone: O(g k^3 + g k p),
    plus one O(n p) mat-vec for a residual quadratic form.
    """

    def __init__(self, dataset: Dataset, spec: ModelSpec):
        spec.validate_against(dataset)
        self.p = dataset.p
        self.k = spec.k
        self.group_ids = dataset.group_ids
        self.X = np.vstack([gd.X for gd in dataset.groups])
        self.n = self.X.shape[0]
        self.y = np.concatenate([gd.y for gd in dataset.groups])
        self.offsets = np.cumsum([0] + [gd.n for gd in dataset.groups])
        # [Z X y] row by row, and its per-group and total cross-products
        A = np.column_stack([self.X[:, list(spec.alpha)], self.X, self.y])
        self.ZtA = np.add.reduceat(A[:, :self.k, None] * A[:, None, :], self.offsets[:-1],
                                   axis=0)
        self.XtA = self.X.T @ A[:, self.k:]
        self.eye = np.eye(self.k)

    @cached_property
    def log_sigma_floor(self) -> float:
        """Lower bound on log sigma shared by every fit: log max(1e-6 sd(y), 1e-12)."""
        return math.log(max(1e-6 * float(np.std(self.y)), 1e-12))

    def check_full_rank(self):
        """Raise SingularDesignError naming the first column of X collinear with
        those before it, by `_full_rank_chol`'s rule on X^T X."""
        F = self.XtA[:, :-1]
        for j in range(1, self.p + 1):
            _full_rank_chol(F[:j, :j], f"design column {j - 1} (0-based) is collinear "
                                       "with the columns before it")

    def solve(self, re_var: np.ndarray, sigma: np.ndarray) -> "BlockSolve":
        """The `BlockSolve` at R points: re_var (R, k) and sigma (R,)."""
        return BlockSolve(self, np.array(re_var, dtype=float), np.asarray(sigma, dtype=float))


# The search point x = (beta, varsigma, log sigma): its labels, box and read-back.

def parameter_labels(spec: ModelSpec, p: int) -> list:
    """Labels of the point (beta, varsigma, sigma): beta<j>, varsigma<col>, sigma."""
    return ([f"beta{j}" for j in range(p)] + [f"varsigma{col}" for col in spec.alpha]
            + ["sigma"])


def search_bounds(design: BlockDesign, spec: ModelSpec) -> list:
    """The box of x = (beta, varsigma, log sigma), one (lo, hi) per entry.

    beta_j >= 0 when `spec.constrained`, except the unconstrained columns;
    varsigma >= 0; log sigma >= `design.log_sigma_floor`.
    """
    free = set(spec.unconstrained_columns) if spec.constrained else set(range(design.p))
    return ([(None, None) if j in free else (0.0, None) for j in range(design.p)]
            + [(0.0, None)] * spec.k + [(design.log_sigma_floor, None)])


def unpack(x: np.ndarray, spec: ModelSpec) -> Parameters:
    """The Parameters at a search point x = (beta, varsigma, log sigma).

    A zero coefficient pins its deviation at 0, leaving the scale
    unidentified (the objective is flat in it), so its varsigma reads as
    the canonical 0.
    """
    k = spec.k
    p = x.size - k - 1
    varsigma = x[p:p + k].copy()
    varsigma[x[list(spec.alpha)] == 0.0] = 0.0
    return Parameters(beta=x[:p], varsigma=varsigma, sigma=math.exp(x[-1]))


# The PLS/PRLS search point x = (beta, q, log sigma), where q_i = d_i /
# beta_{alpha_i}^2 is the deviation's variance over its squared half-width:
# its box, the map from varsigma and the read-back as Parameters.

# q runs from 0 (varsigma = 0) to 1/3, the uniform limit varsigma -> inf; the
# box stops one ulp short of 1/3, where varsigma still reads back finite
Q_MAX = float(np.nextafter(1.0 / 3.0, 0.0))
# q at rho = SMALL_RHO on the two-term series branch of `variance_share`
_Q_SERIES = 1.0 / 3.0 - 2.0 * SMALL_RHO * SMALL_RHO / 45.0


@per_entry
def variance_share(rho):
    """q = variance_factor(rho) / rho^2 at each ratio rho = |beta| / varsigma >= 0 (`per_entry`).

    q falls monotonically from 1/3 (rho = 0, capped at Q_MAX) to 0 (rho =
    inf); below SMALL_RHO it is the two-term series 1/3 - 2 rho^2/45.
    """
    if rho < SMALL_RHO:
        return min(1.0 / 3.0 - 2.0 * rho * rho / 45.0, Q_MAX)
    r2 = rho * rho
    if r2 == math.inf:  # variance_factor is 1 there, and q subnormal
        return (1.0 / rho) ** 2
    return variance_factor(rho) / r2


def share_ratio(q: float) -> float:
    """The rho with variance_share(rho) = q, for 0 < q <= Q_MAX.

    Above q(SMALL_RHO) the series inverts in closed form, rho = sqrt(22.5
    (1/3 - q)). Where variance_factor(1/sqrt(q)) rounds to 1, q = 1/rho^2
    and rho = 1/sqrt(q) (rho^2 would overflow at a subnormal q). Otherwise,
    bisection over the floats of [SMALL_RHO, 1/sqrt(q)]
    (variance_share(1/sqrt(q)) <= q, as variance_factor <= 1) returns the
    end whose share is nearer q.
    """
    if q > _Q_SERIES:
        return math.sqrt(22.5 * (1.0 / 3.0 - q))
    lo, hi = SMALL_RHO, 1.0 / math.sqrt(q)
    if variance_factor(hi) == 1.0:
        return hi
    while True:
        mid = math.sqrt(lo) * math.sqrt(hi) if hi > 2.0 * lo else 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo if variance_share(lo) - q <= q - variance_share(hi) else hi
        if variance_share(mid) > q:
            lo = mid
        else:
            hi = mid


def share_bounds(design: BlockDesign, spec: ModelSpec) -> list:
    """The box of x = (beta, q, log sigma): `search_bounds` with each
    varsigma's [0, inf) replaced by [0, Q_MAX]."""
    bounds = search_bounds(design, spec)
    bounds[design.p:design.p + spec.k] = [(0.0, Q_MAX)] * spec.k
    return bounds


def to_shares(x: np.ndarray, spec: ModelSpec) -> np.ndarray:
    """The point (beta, q, log sigma) of x = (beta, varsigma, log sigma); rows of (R, m) each.

    q_i = variance_share(|beta_{alpha_i}| / varsigma_i); a zero coefficient
    maps to Q_MAX, a zero scale (with a nonzero coefficient) to 0.
    """
    k = spec.k
    p = x.shape[-1] - k - 1
    out = np.array(x, dtype=float)
    b, s = np.abs(x[..., list(spec.alpha)]), x[..., p:p + k]
    live = (b != 0.0) & (s > 0.0)
    out[..., p:p + k] = np.where(b == 0.0, Q_MAX, 0.0)
    with np.errstate(over="ignore"):
        out[..., p:p + k][live] = variance_share(b[live] / s[live])
    return out


def unpack_shares(x: np.ndarray, spec: ModelSpec) -> Parameters:
    """The Parameters at x = (beta, q, log sigma): varsigma_i = |beta_{alpha_i}|
    / share_ratio(q_i).

    A zero q or a zero coefficient reads as varsigma = 0, as in `unpack`.
    `re_variances` at the result gives back d = beta^2 q to about 1e-13
    relative; at Q_MAX varsigma is finite, about 2.8e7 |beta_{alpha_i}|.
    """
    k = spec.k
    p = x.size - k - 1
    b, q, varsigma = np.abs(x[list(spec.alpha)]), x[p:p + k], np.zeros(k)
    live = (b > 0.0) & (q > 0.0)
    varsigma[live] = b[live] / per_entry(share_ratio)(q[live])
    return Parameters(beta=x[:p], varsigma=varsigma, sigma=math.exp(x[-1]))


def at_uniform_limit(x: np.ndarray, spec: ModelSpec) -> tuple:
    """Per random column of x = (beta, q, log sigma): is it at the uniform
    limit, q_i = Q_MAX with beta_{alpha_i} != 0?

    There the scale's minimizer is varsigma_i = +inf, and the varsigma_i of
    `unpack_shares` is a finite stand-in for it.
    """
    p = x.size - spec.k - 1
    return tuple(bool(x[p + i] >= Q_MAX and x[col] != 0.0) for i, col in enumerate(spec.alpha))


# The helpers below make the same BLAS or LAPACK call at every point of a
# stack, so a point's value does not depend on the batch.

def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b at every leading index of stacks of vectors (..., m)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _mv(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A @ v for a stack of vectors v (..., m); A broadcasts."""
    return (A @ v[..., None])[..., 0]


def _solve(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A^{-1} v for stacks of vectors v (..., m) and of A."""
    return np.linalg.solve(A, v[..., None])[..., 0]


def _tril_inv(L: np.ndarray) -> np.ndarray:
    """L^{-1} for every lower-triangular matrix of a stack L (..., m, m), by
    forward substitution over the whole stack at once.

    With r = 1 / diag(L), row i of X = L^{-1} is r_i e_i - r_i L[i, :i]
    X[:i, :i]: one reciprocal and m - 1 batched products, and exact zeros
    above the diagonal. At m = 1 it is 1 / l exactly. Non-finite entries
    propagate as IEEE arithmetic has them, with no warning: an inf pivot
    gives 0 where it enters (the limit of the inverse), a zero pivot inf,
    and a NaN at L[i, j] makes X NaN in rows i.. and columns ..j.
    """
    m = L.shape[-1]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        r = 1.0 / L.diagonal(0, -2, -1)
        X = np.zeros(L.shape)
        X[..., 0, 0] = r[..., 0]
        for i in range(1, m):
            X[..., i, :i] = -r[..., i, None] * (L[..., i, None, :i] @ X[..., :i, :i])[..., 0, :]
            X[..., i, i] = r[..., i]
    return X


def _full_rank_chol(F: np.ndarray, message: str) -> np.ndarray:
    """The Cholesky factor L of F = L L^T, at every point of a stack; raises
    SingularDesignError(message) where F does not factor or a pivot is at
    most 1e-7 of its column norm.

    A collinear column can pass the factorization with a rounding-level
    pivot, about sqrt(eps) of its norm; 1e-7 is the usual QR collinearity
    tolerance.
    """
    try:
        L = np.linalg.cholesky(F)
    except np.linalg.LinAlgError as exc:
        raise SingularDesignError(message) from exc
    if not (L.diagonal(0, -2, -1) ** 2 > 1e-14 * F.diagonal(0, -2, -1)).all():
        raise SingularDesignError(message)
    return L


def _logdet_chol(L: np.ndarray) -> np.ndarray:
    """ln|L L^T| at each point of a stack of Cholesky factors L (R, ..., m, m),
    summed over all of a point's factors."""
    return 2.0 * np.log(L.diagonal(0, -2, -1)).reshape(len(L), -1).sum(-1)


class BlockSolve:
    """Factorized state of V = Z diag(d) Z^T + sigma^2 I at R points.

    d has shape (R, k) and sigma shape (R,), as in a contour grid, a round
    of a fit's starts or a central-difference step; one point is R = 1.
    Every value gains the points axis first: (R,) values, (R, p) vectors
    (beta is (R, p)). With M_l = L_l L_l^T and B_l = L_l^{-1} S, the
    Woodbury identity gives V_l^{-1} = (I - Z_l B_l^T B_l Z_l^T / sigma^2)
    / sigma^2. So every value is read off one batched product, Q_l = B_l
    Z_l^T [Z_l X_l y_l], formed once: Z_l^T V_l^{-1} [Z_l X_l y_l], X^T
    V^{-1} [X y] and the quadratic form's B_l Z_l^T r_l are contractions
    of Q with the design's cross-products.

    A batch raises if any of its points has sigma^2 underflowing to 0
    (ValueError), a finite capacitance matrix that does not factor
    (LinAlgError) or, for a value that needs it, a singular X^T V^{-1} X
    (SingularDesignError). A point whose capacitance matrix has NaN or inf
    entries (d NaN, or d or d / sigma^2 overflowing), or whose sigma^2 overflows to
    inf, raises nothing. `np.linalg.cholesky` factors such a matrix into NaN
    entries or inf pivots instead of raising, and `_tril_inv` inverts the
    factors by IEEE arithmetic: an inf pivot gives 0 where it enters, a
    zero pivot inf, and a NaN spreads to the rows below. ln|V| there is
    NaN or +inf, so the criterion is non-finite and an optimizer's line
    search backs off such a probe. Only the values that factor X^T V^{-1} X
    (restricted ones, `gls_beta`) may then raise, as SingularDesignError
    on its pivots.
    """

    def __init__(self, design: BlockDesign, d: np.ndarray, sigma: np.ndarray):
        if d.ndim != 2 or d.shape[1] != design.k or sigma.shape != d.shape[:1]:
            raise DimensionMismatchError(
                f"expected {design.k} random-effect variances per point, got {d.shape} "
                f"with sigma of shape {sigma.shape}"
            )
        if (d < 0.0).any():
            raise ValueError("random-effect variances must be nonnegative")
        if not np.all(sigma > 0):
            raise ValueError(f"sigma must be positive, got {sigma}")
        self.design = design
        self.d = d
        self.R = len(sigma)
        # sigma^2, overflowing to inf silently as a Python float does, and
        # shaped to divide arrays with 0, 1, 2 or 3 core axes
        with np.errstate(over="ignore"):
            self.sigma2 = sigma * sigma
        self._s2 = [self.sigma2.reshape((self.R,) + (1,) * i) for i in range(4)]
        s = np.sqrt(d)
        L = np.linalg.cholesky(
            design.eye + design.ZtA[..., :design.k] * (s[:, None, :, None]
                                                        * s[:, None, None, :] / self._s2[3]))
        self.logdet_v = design.n * per_entry(math.log)(self.sigma2) + _logdet_chol(L)
        self._B = _tril_inv(L) * s[:, None, None, :]

    @cached_property
    def _Q(self) -> np.ndarray:
        """Q_l = B_l Z_l^T [Z_l X_l y_l], (R, g, k, k + p + 1): the one product
        with the factors that every value below is read off."""
        return self._B @ self.design.ZtA

    @cached_property
    def _ZVA(self) -> np.ndarray:
        """Z_l^T V_l^{-1} [Z_l X_l y_l] = (Z_l^T A_l - Q_l[:, :k]^T Q_l / sigma^2)
        / sigma^2, (R, g, k, k + p + 1)."""
        Q, s2 = self._Q, self._s2[3]
        return (self.design.ZtA - Q[..., :self.design.k].swapaxes(-1, -2) @ Q / s2) / s2

    @cached_property
    def _XVA(self) -> np.ndarray:
        """X^T V^{-1} [X y] = (X^T [X y] - T^T T / sigma^2) / sigma^2 with T the
        X and y columns of Q stacked over groups, (R, p, p + 1)."""
        des, s2 = self.design, self._s2[2]
        T = self._Q[..., des.k:].reshape(self.R, -1, des.p + 1)
        return (des.XtA - T[..., :des.p].swapaxes(-1, -2) @ T / s2) / s2

    def quad_form_resid(self, beta: np.ndarray):
        """(y - X beta)^T V^{-1} (y - X beta); r^T r from the stacked residual."""
        des = self.design
        r = des.y - _mv(des.X, beta)
        Q = self._Q
        u = (Q[..., -1] - _mv(Q[..., des.k:-1], beta[:, None, :])).reshape(self.R, -1)
        return (_dot(r, r) - _dot(u, u) / self.sigma2) / self.sigma2

    def xt_vinv_x(self) -> np.ndarray:
        return self._XVA[..., :-1].copy()

    def xt_vinv_y(self) -> np.ndarray:
        return self._XVA[..., -1].copy()

    def xt_vinv_resid(self, beta: np.ndarray) -> np.ndarray:
        """X^T V^{-1} (y - X beta), (R, p)."""
        return self._XVA[..., -1] - _mv(self._XVA[..., :-1], beta)

    @cached_property
    def _f_chol(self):
        """(F, L): F = X^T V^{-1} X = L L^T, the one factorization of F
        (`_full_rank_chol`, which raises if any point of a batch is singular)."""
        F = self.xt_vinv_x()
        return F, _full_rank_chol(F, "X^T V^{-1} X is singular")

    def _logdet(self, restricted: bool):
        """ln|V|, plus ln|X^T V^{-1} X| if `restricted`."""
        return self.logdet_v + _logdet_chol(self._f_chol[1]) if restricted else self.logdet_v

    def gls_beta(self) -> np.ndarray:
        """Generalized-least-squares fixed effects F^{-1} X^T V^{-1} y."""
        L = self._f_chol[1]
        return _solve(L.swapaxes(-1, -2), _solve(L, self.xt_vinv_y()))

    def criterion(self, beta: np.ndarray, restricted: bool):
        """r^T V^{-1} r + ln|V|, plus ln|X^T V^{-1} X| if `restricted`; r = y - X beta.

        The PLS (PRLS) objective at beta; at beta = gls_beta() it is -2
        times the profile (restricted) log-likelihood, up to constants.
        """
        return self.quad_form_resid(beta) + self._logdet(restricted)

    def criterion_parts(self, beta: np.ndarray, restricted: bool):
        """`criterion`'s quadratic form and log-determinants apart, with their
        derivatives in d at fixed beta and sigma, from this one factorization.

        Returns (q, logdet, dq, dlog, u): q = r^T V^{-1} r, logdet = ln|V|,
        plus ln|F| if `restricted`, F = X^T V^{-1} X; u (R, g, k) holds the
        rows u_l = Z_l^T V_l^{-1} r_l (`zt_vinv_resid`), dq[i] = -sum_l
        u_li^2, and dlog[i] = sum_l (Z_l^T V_l^{-1} Z_l)_ii, less sum_l (W_l
        F^{-1} W_l^T)_ii with W_l = Z_l^T V_l^{-1} X_l if `restricted`. The
        two parts scale differently with sigma, which the ML/REML search
        profiles out (`baseline.criterion_and_gradient`); the PLS/PRLS
        gradient adds them (`criterion_hessian`). Each is read off Z_l^T
        V_l^{-1} [Z_l X_l y_l]: O(g k^2 (k + p) + g k p^2 + p^3). dq and
        dlog gain the points axis first.
        """
        k = self.design.k
        u = self.zt_vinv_resid(beta)
        dlog = self._ZVA[..., :k].diagonal(0, -2, -1).sum(axis=-2)
        if restricted:
            dlog = dlog - (self._A * self._f_inv[..., None, :, :]).sum(axis=(-2, -1))
        return (self.quad_form_resid(beta), self._logdet(restricted), -(u * u).sum(axis=-2),
                dlog, u)

    @cached_property
    def _f_inv(self) -> np.ndarray:
        """F^{-1}, (R, p, p), shared by the partials and the Hessian."""
        return np.linalg.inv(self._f_chol[0])

    @cached_property
    def _A(self) -> np.ndarray:
        """A_i = sum_l w_li w_li^T, (R, k, p, p), w_li the i-th row of W_l."""
        Wt = self._ZVA[..., self.design.k:-1].swapaxes(-3, -2)    # (R, k, g, p)
        return Wt.swapaxes(-1, -2) @ Wt

    def criterion_hessian(self, beta: np.ndarray, restricted: bool):
        """(f, g, H): `criterion`, its gradient (R, p + k + 1) and its Hessian
        (R, p + k + 1, p + k + 1) in (beta, d, log sigma), from this one
        factorization; f is `criterion`'s value bit for bit.

        With u_l, W_l, F and the parts as in `criterion_parts`, the gradient
        is -2 X^T V^{-1} r in beta and dq + dlog in d. With M_l = Z_l^T
        V_l^{-1} Z_l, the d-d block of H is sum_l (2 u_li u_lj - M_lij)
        M_lij, plus, if `restricted`, 2 sum_l M_lij w_li^T F^{-1} w_lj -
        tr(F^{-1} A_i F^{-1} A_j) with A_i = sum_l w_li w_li^T; the beta-d
        block is 2 sum_l u_li w_li and the beta-beta block 2F. The log sigma
        entries follow from the others, as V is homogeneous of degree 1 in
        theta = (d, sigma^2): the gradient's is 2 (n - q - p [restricted] -
        d^T (dq + dlog)), and with subscripts for partials, sum_j theta_j
        f_ji = -f_i - q_i for i in theta and -q_i for i in beta. So no
        V^{-2} term is formed: H's log sigma row has entry i 2 h_i with h_i
        = sigma^2 f_{sigma^2 i}, and diagonal 4 (q + d^T dq - d^T h_d). The
        row is finite where sigma^2 overflows. Symmetric to rounding: O(g
        k^2 p + k^2 p^3) on top of `criterion_parts`.
        """
        q, logdet, dq, dlog, u = self.criterion_parts(beta, restricted)
        des, d = self.design, self.d
        p, k = des.p, des.k
        dd = dq + dlog
        g = np.empty((self.R, p + k + 1))
        g[:, :p] = -2.0 * self.xt_vinv_resid(beta)
        g[:, p:-1] = dd
        g[:, -1] = 2.0 * (des.n - q - p * restricted - (d * dd).sum(axis=1))
        M, W = self._ZVA[..., :k], self._ZVA[..., k:-1]
        H = np.empty((self.R, p + k + 1, p + k + 1))
        H[:, :p, :p] = 2.0 * self._XVA[..., :-1]
        H[:, p:-1, :p] = 2.0 * (u[..., None] * W).sum(axis=1)
        H[:, :p, p:-1] = H[:, p:-1, :p].swapaxes(-1, -2)
        hdd = H[:, p:-1, p:-1]
        hdd[...] = ((2.0 * u[..., :, None] * u[..., None, :] - M) * M).sum(axis=1)
        if restricted:
            Finv = self._f_inv[:, None]
            C = Finv @ self._A                                    # F^{-1} A_i
            hdd += (2.0 * (M * (W @ Finv @ W.swapaxes(-1, -2))).sum(axis=1)
                    - (C[:, :, None] * C.swapaxes(-1, -2)[:, None]).sum(axis=(-2, -1)))
        # h_i = sigma^2 f_{sigma^2 i} = -sum_j d_j f_ji - q_i (- f_i for i in d)
        rhs = np.concatenate([-g[:, :p], -2.0 * dq - dlog], axis=1)
        h = rhs - _mv(H[:, p:-1, :-1].swapaxes(-1, -2), d)
        H[:, -1, :-1] = H[:, :-1, -1] = 2.0 * h
        H[:, -1, -1] = 4.0 * (q + _dot(d, dq - h[:, p:]))
        return q + logdet, g, H

    def zt_vinv_resid(self, beta: np.ndarray) -> np.ndarray:
        """Z_l^T V_l^{-1} (y_l - X_l beta) for every group, as rows of an (R, g, k) array."""
        ZVA, k = self._ZVA, self.design.k
        return ZVA[..., -1] - _mv(ZVA[..., k:-1], beta[:, None, :])
