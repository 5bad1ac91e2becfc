"""Box-constrained drivers shared by all fitting routines, each running
many starts in lockstep.

`minimize_newton` runs projected Newton (Bertsekas 1982) on objectives
that return exact Hessians, the PLS/PRLS fits: every round computes the
steps of all its starts in one batched `eigh` and evaluates all their
trial points in one batched call, `fun(X (R, m)) -> (F (R,), G (R, m),
H (R, m, m))`, and `converged` means a projected gradient of at most
`TOL_GRAD`.

`minimize_starts` runs L-BFGS-B (projected-gradient limited-memory
quasi-Newton) on objectives that return gradients only: ML, REML, PIT and
labeled-parameter searches. L-BFGS-B is a reverse-communication algorithm,
so each start keeps its own scipy `setulb` state, and every round
evaluates the points the starts ask for in one batched call, `fun(X (R,
m)) -> (F (R,), G (R, m))`. Each start takes exactly the steps
`scipy.optimize.minimize(method="L-BFGS-B")` would take from it alone.
ML and REML supply exact gradients; a value-only objective (the PIT
baseline, labeled-parameter searches) is adapted by `with_central_diff`,
which evaluates the 1 + 2m probes of a central-difference step at every
row in one call of a batch value function `values(P) -> F`. Its step
rule and probe layout (`gradient_step`, `central_diff_probes`) are those
of every gradient check.

Both drivers return one `BoxResult` per start, or the error its first
evaluation raised, and record the projected gradient's infinity norm at
its end (`projected_gradient`).
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize._lbfgsb import setulb
from scipy.optimize._lbfgsb_py import status_messages, task_messages

from .model import NUMERICAL_FAILURES, NumericalError

# Stopping tolerances of every fit except PIT: relative objective decrease
# and projected-gradient infinity norm. Every fit allows MAX_ITER iterations.
TOL_OBJ = 1e-11
TOL_GRAD = 1e-8
MAX_ITER = 500


class ConvergenceError(NumericalError):
    """Optimization failed; carries per-start diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or []


def gradient_step(x: np.ndarray) -> np.ndarray:
    """Per-coordinate central-difference step: max(1e-6, 1e-7 * |x_i|)."""
    return np.maximum(1e-6, 1e-7 * np.abs(x))


def central_diff_probes(x: np.ndarray, h: np.ndarray | None = None):
    """The probes of a central-difference step at x, one per row, and the steps.

    Row 0 is x; rows 2i + 1 and 2i + 2 are x + h_i e_i and x - h_i e_i.
    h defaults to `gradient_step(x)`. For R points x (R, m), the probes
    are (R, 1 + 2m, m), each point's in that layout.
    """
    x = np.asarray(x, dtype=float)
    if h is None:
        h = gradient_step(x)
    m = x.shape[-1]
    i = np.arange(m)
    probes = np.repeat(x[..., None, :], 1 + 2 * m, axis=-2)
    probes[..., 2 * i + 1, i] = x + h
    probes[..., 2 * i + 2, i] = x - h
    return probes, h


def with_central_diff(values):
    """Adapt a batch value function `values(P (K, m)) -> (K,)` to the batch
    form `fun(X (R, m)) -> (F (R,), G (R, m))` of `minimize_starts`.

    Each call evaluates `values` once, at the 1 + 2m rows of
    `central_diff_probes` of every row of X, stacked; row r's gradient is
    (f(x_r + h_i e_i) - f(x_r - h_i e_i)) / 2h_i.
    """
    def fun_and_grad(X):
        probes, h = central_diff_probes(X)
        F = np.asarray(values(probes.reshape(-1, probes.shape[-1])), dtype=float)
        F = F.reshape(probes.shape[:-1])
        return F[:, 0], (F[:, 1::2] - F[:, 2::2]) / (2.0 * h)

    return fun_and_grad


@dataclass
class BoxResult:
    x: np.ndarray
    fun: float
    trace: np.ndarray
    converged: bool
    n_iter: int
    message: str
    nfev: int  # points evaluated, each for (f, grad) or (f, grad, hess)
    pg_norm: float  # the projected gradient's infinity norm at x (`projected_gradient`)


def projected_gradient(x: np.ndarray, g: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """The infinity norm of x - clip(x - g, lo, hi) along the last axis: 0
    exactly where x is first-order optimal in the box [lo, hi]."""
    return np.abs(x - _clip(x - g, lo, hi)).max(axis=-1)


def _clip(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """np.clip(x, lo, hi), at a third of its call overhead on small arrays."""
    return np.minimum(np.maximum(x, lo), hi)


# scipy.optimize.minimize's L-BFGS-B settings: stored corrections, line-search
# steps per iteration and the evaluation cap (its maxcor, maxls and maxfun)
MEMORY = 10
MAX_LINE_SEARCH = 20
MAX_FEV = 15000


class _Lbfgsb:
    """One start's L-BFGS-B run: scipy's `setulb` state, its last evaluated
    point and its record (objective trace, iterations, evaluations)."""

    def __init__(self, x0: np.ndarray):
        n = x0.size
        self.x = x0.copy()  # setulb's iterate, moved in place
        self.f = 0.0
        self.g = np.zeros(n)
        self.wa = np.zeros(2 * MEMORY * n + 5 * n + 11 * MEMORY * MEMORY + 8 * MEMORY)
        self.iwa = np.zeros(3 * n, dtype=np.int32)
        self.task = np.zeros(2, dtype=np.int32)
        self.ln_task = np.zeros(2, dtype=np.int32)
        self.lsave = np.zeros(4, dtype=np.int32)
        self.isave = np.zeros(44, dtype=np.int32)
        self.dsave = np.zeros(29)
        self.seen = self.value = self.grad = None  # seen: the last evaluated point, a list
        self.trace = []
        self.nfev = self.nit = 0

    def take(self, value: float, grad: np.ndarray):
        """Record (f, grad) at the current iterate; the first value opens the trace."""
        if not self.trace:
            self.trace.append(value)
        self.seen, self.value, self.grad = self.x.tolist(), value, grad
        self.f, self.g = value, grad.copy()
        self.nfev += 1

    def advance(self, box, factr: float, pgtol: float, max_iter: int) -> bool:
        """Step `setulb` until it asks for (f, grad) at a point other than the
        last one evaluated (True) or stops (False). A request at that same
        point is answered from the record, and each new iterate adds its
        objective to the trace, exactly as `scipy.optimize.minimize` does.
        """
        lower, upper, nbd = box
        while True:
            setulb(MEMORY, self.x, lower, upper, nbd, self.f, self.g, factr, pgtol, self.wa,
                   self.iwa, self.task, self.lsave, self.isave, self.dsave,
                   MAX_LINE_SEARCH, self.ln_task)
            if self.task[0] == 3:  # FG: evaluate at self.x
                # np.array_equal's test (-0.0 == 0.0, nan unequal) on floats, at a
                # tenth of its cost
                if self.x.tolist() != self.seen:
                    return True
                self.f, self.g = self.value, self.grad.copy()
            elif self.task[0] == 1:  # NEW_X: an iteration is done
                self.nit += 1
                self.trace.append(float(self.f))
                if self.nit >= max_iter:
                    self.task[:] = 5, 504
                elif self.nfev > MAX_FEV:
                    self.task[:] = 5, 502
            else:
                return False

    def result(self, fun, lo: np.ndarray, hi: np.ndarray):
        """The BoxResult at the last iterate re-projected onto [lo, hi]; where
        that moves it, `fun` is evaluated there, which may fail instead."""
        x, value, grad, nfev = np.clip(self.x, lo, hi), float(self.f), self.g, self.nfev
        if not np.array_equal(x, self.x):
            F, G, (exc,) = _evaluate(fun, x[None], 2)
            if exc is not None:
                return exc
            value, grad, nfev = float(F[0]), G[0], nfev + 1
        return BoxResult(
            x=x,
            fun=value,
            trace=np.asarray(self.trace, dtype=float),
            converged=bool(self.task[0] == 4),
            n_iter=self.nit,
            message=f"{status_messages[self.task[0]]}: {task_messages[self.task[1]]}",
            nfev=nfev,
            pg_norm=float(projected_gradient(x, grad, lo, hi)),
        )


def _evaluate(fun, X: np.ndarray, n_out: int):
    """`fun`'s n_out outputs at the rows of X, stacked, output j with j
    trailing axes of X's width: (F, G) or (F, G, H). Then, per row, None or
    the member of NUMERICAL_FAILURES its evaluation raised, where that row's
    outputs are NaN. A batch of several rows that raises is evaluated again
    one row at a time."""
    try:
        return (*fun(X), [None] * len(X))
    except NUMERICAL_FAILURES as exc:
        failure = exc
    out = [np.full((len(X),) + X.shape[1:] * j, np.nan) for j in range(n_out)]
    if len(X) == 1:
        return (*out, [failure])
    errors = []
    for i in range(len(X)):
        *row, (exc,) = _evaluate(fun, X[i:i + 1], n_out)
        for a, v in zip(out, row):
            a[i] = v[0]
        errors.append(exc)
    return (*out, errors)


def _box(bounds):
    """(lo, hi) of `bounds`, an absent bound infinite, and the box in setulb's
    coding (lower, upper, nbd): an absent bound reads 0, and nbd is 0 (free),
    1 (lower bound only), 2 (both) or 3 (upper bound only)."""
    lo = np.array([-np.inf if b[0] is None else float(b[0]) for b in bounds])
    hi = np.array([np.inf if b[1] is None else float(b[1]) for b in bounds])
    has_lo, has_hi = np.isfinite(lo), np.isfinite(hi)
    nbd = np.where(has_lo, np.where(has_hi, 2, 1), np.where(has_hi, 3, 0)).astype(np.int32)
    return lo, hi, (np.where(has_lo, lo, 0.0), np.where(has_hi, hi, 0.0), nbd)


def minimize_starts(fun, starts, bounds, tol_obj=TOL_OBJ, tol_grad=TOL_GRAD,
                    max_iter=MAX_ITER) -> list:
    """Minimize over a box from every start in lockstep; `fun(X)` maps points
    X (R, m) to their objectives F (R,) and gradients G (R, m).

    Each start runs L-BFGS-B (Byrd, Lu, Nocedal & Zhu 1995) through scipy's
    reverse-communication `setulb`, as `scipy.optimize.minimize(method=
    "L-BFGS-B", jac=True)` runs it with maxiter=max_iter, ftol=tol_obj and
    gtol=tol_grad: the same memory, line search, x0 clip, stopping tests
    and messages, and the same reuse of the last evaluation when a start
    asks again for the point it was last evaluated at. A round steps every
    live start until it asks for a new point or stops, then evaluates all
    the asked-for points in one call of `fun`. So a start's result does not
    depend on the other starts, as long as `fun`'s value at a point does not
    depend on the batch.

    Returns one entry per start: its BoxResult, or the member of
    NUMERICAL_FAILURES one of its evaluations raised. A round whose batch
    raises is evaluated again one point at a time, so only the starts whose
    own point raises fail. Each result is re-projected onto the box, so
    bound constraints hold exactly; where that moves the point, the start
    costs one more evaluation there.
    """
    lo, hi, box = _box(bounds)
    factr = tol_obj / np.finfo(float).eps
    runs = [_Lbfgsb(np.clip(np.asarray(x0, dtype=float), lo, hi)) for x0 in starts]
    failed = [None] * len(runs)  # the error of each start that failed
    want = list(range(len(runs)))  # the starts waiting for an evaluation
    while want:
        F, G, errors = _evaluate(fun, np.array([runs[i].x for i in want]), 2)
        for i, f, grad, exc in zip(want, F.tolist(), G, errors):
            if exc is None:
                runs[i].take(f, grad)
            else:
                failed[i] = exc
        want = [i for i in want
                if failed[i] is None and runs[i].advance(box, factr, tol_grad, max_iter)]
    return [run.result(fun, lo, hi) if exc is None else exc
            for exc, run in zip(failed, runs)]


# The projected-Newton driver's settings: the sufficient-decrease fraction of
# the Armijo test, the range of the step's cut per rejected trial, the widest
# band of the epsilon-active set, the floors of |eigenvalue| relative to the
# largest and, for an indefinite Hessian, to the most negative one (a partial
# Levenberg-Marquardt shift, which keeps the steps along nearly flat
# directions short where the model is not convex), and the change of an
# objective value, relative to max(|f|, 1) as in L-BFGS-B's own test, taken
# as rounding (f sums terms that can be much larger than f, so its rounding
# can exceed that of |f| by a hundredfold)
ARMIJO = 1e-4
BACKTRACK = (0.1, 0.5)
ACTIVE_BAND = 1e-3
EIG_FLOOR = 1e-12
INDEFINITE_FLOOR = 1e-2
ROUNDING = 1e-12


def _finite(F, G, H) -> np.ndarray:
    """Per row, whether its value, gradient and Hessian are all finite."""
    return np.isfinite(F) & np.isfinite(G).all(axis=1) & np.isfinite(H).all(axis=(1, 2))


def _newton_steps(X, G, H, pg, lo, hi):
    """Each row's projected-Newton step (Bertsekas 1982) at x with gradient g
    and Hessian H.

    The epsilon-active set holds the coordinates within eps = min(pg,
    ACTIVE_BAND) of a bound that a move against g would cross, and whose
    own Newton step -g_i / |H_ii| would cross it too: a coordinate whose
    curvature holds it off the bound stays free. Their rows and columns of
    H are cut to the diagonal |H_ii|, so one batched `eigh`
    gives every row's modified Newton step -V |Lambda|^{-1} V^T g, the
    eigenvalues in absolute value and floored at EIG_FLOOR of the largest
    and, where the free block of H is indefinite, at INDEFINITE_FLOOR of
    its most negative one: on the free set a Newton step wherever H is
    positive definite there, on the active set a gradient step scaled by
    1 / |H_ii|.
    """
    i = np.arange(X.shape[1])
    diag = H[:, i, i]
    Y = X - np.minimum(pg, ACTIVE_BAND)[:, None] * np.sign(G)
    with np.errstate(divide="ignore", invalid="ignore"):  # H_ii = 0: no Newton step
        Z = X - G / np.abs(diag)
    active = ((Y < lo) & (Z < lo)) | ((Y > hi) & (Z > hi))
    diag = np.where(active, np.abs(diag), diag)
    H = np.where(active[:, :, None] | active[:, None, :], 0.0, H)
    H[:, i, i] = diag
    lam, V = np.linalg.eigh(H)
    floor = np.maximum(EIG_FLOOR * np.abs(lam).max(axis=1), -INDEFINITE_FLOOR * lam[:, 0])
    lam = np.maximum(np.abs(lam), floor[:, None])
    return -(V @ ((V.swapaxes(-1, -2) @ G[..., None]) / lam[..., None]))[..., 0]


def minimize_newton(fun, starts, bounds, tol_grad=TOL_GRAD, max_iter=MAX_ITER) -> list:
    """Minimize over a box from every start in lockstep by projected Newton;
    `fun(X)` maps points X (R, m) to their objectives F (R,), gradients G
    (R, m) and Hessians H (R, m, m).

    Each iteration takes `_newton_steps` and backtracks along the projection
    arc x(a) = clip(x + a s) from a = 1 until the Armijo test f(x(a)) <=
    f(x) + ARMIJO min(0, g^T (x(a) - x)) holds (Bertsekas, SIAM J. Control
    Optim. 20(2), 1982); a rejected trial cuts a by the minimizer of the
    quadratic through f(x), that slope and f(x(a)), kept within BACKTRACK.
    A round computes every live start's step from its current point in one
    batched `eigh`, so a rejected trial carries nothing to the next round
    but its shorter a, and evaluates every live start's trial point in one
    call of `fun`. A start stops
    - converged, when the projected gradient's infinity norm at x is at
      most tol_grad; `converged` means exactly that;
    - when the decrease a trial predicts, |g^T (x(a) - x)|, is below
      ROUNDING max(|f(x)|, 1) and the trial does not lower the projected
      gradient within that rounding of f(x): the Newton decrement is below
      rounding, and no further step can be verified;
    - after max_iter iterations;
    - at its first point, not converged, when the values there are not all
      finite.
    A trial point that raises one of NUMERICAL_FAILURES, or whose values are
    not all finite, is a rejected step.

    A stop is recorded in one place: each live start carries a stop code, 0
    while it runs, and the top of a round turns the coded starts into
    BoxResults and drops them from the live arrays.

    Returns one entry per start, as `minimize_starts` does: its BoxResult,
    or the member of NUMERICAL_FAILURES its first point raised. Every step
    is element-wise or per row, so a start's result does not depend on the
    other starts, as long as `fun`'s values at a point do not depend on the
    batch.
    """
    messages = (None, "CONVERGENCE: NORM OF PROJECTED GRADIENT <= TOL_GRAD",
                "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT",
                "STOP: THE NEWTON DECREMENT IS BELOW ROUNDING",
                "ABNORMAL: THE OBJECTIVE IS NOT FINITE AT THE START")
    lo, hi, _ = _box(bounds)
    X = _clip(np.array(starts, dtype=float), lo, hi)
    # per start: the error its first point raised, or None until its BoxResult
    F, G, H, results = _evaluate(fun, X, 3)
    pg = projected_gradient(X, G, lo, hi)
    traces = [[f] for f in F.tolist()]
    # the live starts, one row each: start index, point, values, iterations,
    # evaluations, the step length and the stop code, an index into `messages`
    ids = np.flatnonzero([exc is None for exc in results])
    X, F, G, H, pg = X[ids], F[ids], G[ids], H[ids], pg[ids]
    nit, nfev = np.zeros(len(ids), dtype=int), np.ones(len(ids), dtype=int)
    a, code = np.ones(len(ids)), np.where(_finite(F, G, H), 0, 4)
    while True:
        code = np.where(code == 0, np.where(pg <= tol_grad, 1, np.where(nit >= max_iter, 2, 0)),
                        code)
        if code.any():
            for r in np.flatnonzero(code).tolist():
                i, c = int(ids[r]), int(code[r])
                results[i] = BoxResult(
                    x=X[r].copy(), fun=float(F[r]), trace=np.array(traces[i]),
                    converged=c == 1, n_iter=int(nit[r]), message=messages[c],
                    nfev=int(nfev[r]), pg_norm=float(pg[r]))
            live = code == 0
            ids, X, F, G, H, pg, nit, nfev, a, code = (
                v[live] for v in (ids, X, F, G, H, pg, nit, nfev, a, code))
        if not ids.size:
            return results
        T = _clip(X + a[:, None] * _newton_steps(X, G, H, pg, lo, hi), lo, hi)
        Ft, Gt, Ht, _ = _evaluate(fun, T, 3)
        nfev += 1
        slope = ((T - X) * G).sum(axis=1)
        pgt = projected_gradient(T, Gt, lo, hi)
        noise = ROUNDING * np.maximum(np.abs(F), 1.0)
        tiny = np.abs(slope) <= noise
        finite = _finite(Ft, Gt, Ht)
        ok = np.where(tiny, finite & (Ft <= F + noise) & (pgt < pg),
                      finite & (Ft <= F + ARMIJO * np.minimum(slope, 0.0)))
        nit += ok
        for i, f in zip(ids[ok].tolist(), Ft[ok].tolist()):
            traces[i].append(f)
        curve = 2.0 * (Ft - F - slope)  # > 0 at a finite rejected trial
        cut = _clip(np.divide(-slope, curve, out=np.zeros(len(a)), where=curve > 0), *BACKTRACK)
        a = np.where(ok, 1.0, a * cut)
        X, F, pg = np.where(ok[:, None], T, X), np.where(ok, Ft, F), np.where(ok, pgt, pg)
        G, H = np.where(ok[:, None], Gt, G), np.where(ok[:, None, None], Ht, H)
        code = np.where(~ok & tiny, 3, 0)
