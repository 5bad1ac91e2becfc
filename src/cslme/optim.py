"""Box-constrained quasi-Newton driver shared by all fitting routines.

Thin wrapper around scipy's L-BFGS-B (projected-gradient limited-memory
quasi-Newton) that takes the objective and its gradient from one call,
`fun(x) -> (f, grad)`, and records the objective at every accepted
iterate. PLS, PRLS, ML and REML supply exact gradients; a value-only
objective (the PIT baseline, labeled-parameter searches) is adapted by
`with_central_diff`, whose central-difference step rule is shared by
every gradient check.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .model import NumericalError

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


def central_diff_grad(fun, x: np.ndarray, h: np.ndarray | None = None) -> np.ndarray:
    """Central-difference gradient with the shared step rule.

    `fun` is called on one probe array that is changed in place between
    calls, so it must not keep a reference to its argument.
    """
    x = np.array(x, dtype=float)  # a private copy, moved one coordinate at a time
    if h is None:
        h = gradient_step(x)
    grad = np.empty_like(x)
    for i in range(x.size):
        xi = x[i]
        x[i] = xi + h[i]
        f_plus = fun(x)
        x[i] = xi - h[i]
        f_minus = fun(x)
        x[i] = xi
        grad[i] = (f_plus - f_minus) / (2.0 * h[i])
    return grad


def with_central_diff(fun):
    """Adapt a value-only `fun` to `(f, grad)` with `central_diff_grad`.

    Each call evaluates `fun` at x, then at the 2 m probes.
    """
    def fun_and_grad(x):
        return fun(x), central_diff_grad(fun, x)

    return fun_and_grad


@dataclass
class BoxResult:
    x: np.ndarray
    fun: float
    trace: np.ndarray
    converged: bool
    n_iter: int
    message: str
    nfev: int  # calls of fun, each one (f, grad)


def minimize_box(fun, x0, bounds, tol_obj=TOL_OBJ, tol_grad=TOL_GRAD,
                 max_iter=MAX_ITER) -> BoxResult:
    """Minimize over a box; `fun(x)` returns the objective and its gradient.

    Stops when the relative objective decrease falls below tol_obj, the
    projected-gradient infinity norm falls below tol_grad, or max_iter is
    reached. The returned point is re-projected onto the box so bound
    constraints hold exactly. `fun` is called only by L-BFGS-B (its first
    call is at x0, whose value opens the trace), unless that projection
    moves the point, which costs one more call.
    """
    x0 = np.asarray(x0, dtype=float)
    lo = np.array([-np.inf if b[0] is None else b[0] for b in bounds])
    hi = np.array([np.inf if b[1] is None else b[1] for b in bounds])
    x0 = np.clip(x0, lo, hi)

    trace = []

    def fun_tracing_first(x):
        f, grad = fun(x)
        if not trace:
            trace.append(float(f))
        return f, grad

    def track(intermediate_result):
        trace.append(float(intermediate_result.fun))

    res = minimize(
        fun_tracing_first,
        x0,
        jac=True,
        method="L-BFGS-B",
        bounds=bounds,
        callback=track,
        options={"maxiter": max_iter, "ftol": tol_obj, "gtol": tol_grad},
    )
    x = np.clip(res.x, lo, hi)
    value, nfev = float(res.fun), int(res.nfev)
    if not np.array_equal(x, res.x):
        value, nfev = float(fun(x)[0]), nfev + 1
    return BoxResult(
        x=x,
        fun=value,
        trace=np.asarray(trace),
        converged=bool(res.success),
        n_iter=int(res.nit),
        message=str(res.message),
        nfev=nfev,
    )
