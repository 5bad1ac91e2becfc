"""Box-constrained quasi-Newton driver shared by all fitting routines.

`minimize_starts`, the one optimizer entry point, runs L-BFGS-B
(projected-gradient limited-memory quasi-Newton) from many starts in
lockstep. L-BFGS-B is a reverse-communication algorithm, so each start
keeps its own scipy `setulb` state, and every round evaluates the points
the starts ask for in one batched call, `fun(X (R, m)) -> (F (R,), G (R, m))`.
Each start takes exactly the steps `scipy.optimize.minimize(method=
"L-BFGS-B")` would take from it alone. PLS, PRLS, ML and REML supply exact
gradients; a value-only objective (the PIT baseline, labeled-parameter
searches) is adapted by `with_central_diff`, which evaluates the 1 + 2m
probes of a central-difference step at every row in one call of a batch
value function `values(P) -> F`. Its step rule and probe layout
(`gradient_step`, `central_diff_probes`) are those of every gradient check.
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
    nfev: int  # points evaluated, each for (f, grad)


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
        x, value, nfev = np.clip(self.x, lo, hi), float(self.f), self.nfev
        if not np.array_equal(x, self.x):
            (got,) = _evaluate(fun, x[None])
            if not isinstance(got, tuple):
                return got
            value, nfev = float(got[0]), nfev + 1
        return BoxResult(
            x=x,
            fun=value,
            trace=np.asarray(self.trace, dtype=float),
            converged=bool(self.task[0] == 4),
            n_iter=self.nit,
            message=f"{status_messages[self.task[0]]}: {task_messages[self.task[1]]}",
            nfev=nfev,
        )


def _evaluate(fun, X: np.ndarray) -> list:
    """`fun` at the rows of X: per row (f, grad), or the member of
    NUMERICAL_FAILURES its evaluation raised. A batch that raises is
    evaluated again one row at a time."""
    try:
        F, G = fun(X)
    except NUMERICAL_FAILURES as exc:
        if len(X) == 1:
            return [exc]
        return [_evaluate(fun, X[i:i + 1])[0] for i in range(len(X))]
    return list(zip(F.tolist(), G))


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
        for i, got in zip(want, _evaluate(fun, np.array([runs[i].x for i in want]))):
            if isinstance(got, tuple):
                runs[i].take(*got)
            else:
                failed[i] = got
        want = [i for i in want
                if failed[i] is None and runs[i].advance(box, factr, tol_grad, max_iter)]
    return [run.result(fun, lo, hi) if exc is None else exc
            for exc, run in zip(failed, runs)]
