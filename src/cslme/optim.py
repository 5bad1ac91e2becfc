"""Box-constrained quasi-Newton driver shared by all fitting routines.

Thin wrapper around scipy's L-BFGS-B (projected-gradient limited-memory
quasi-Newton) that supplies our own central-difference gradient and records
the objective at every accepted iterate. One global step rule is used
everywhere so fits, identities and gradient checks all see the same
derivative operator.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize


class ConvergenceError(RuntimeError):
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


@dataclass
class BoxResult:
    x: np.ndarray
    fun: float
    trace: np.ndarray
    converged: bool
    n_iter: int
    message: str


def minimize_box(fun, x0, bounds, tol_obj=1e-9, tol_grad=1e-6, max_iter=500) -> BoxResult:
    """Minimize `fun` over a box, tracking accepted-iterate objectives.

    Stops when the relative objective decrease falls below tol_obj, the
    projected-gradient infinity norm falls below tol_grad, or max_iter is
    reached. The returned point is re-projected onto the box so bound
    constraints hold exactly.
    """
    x0 = np.asarray(x0, dtype=float)
    lo = np.array([-np.inf if b[0] is None else b[0] for b in bounds])
    hi = np.array([np.inf if b[1] is None else b[1] for b in bounds])
    x0 = np.clip(x0, lo, hi)

    trace = [float(fun(x0))]

    def track(intermediate_result):
        trace.append(float(intermediate_result.fun))

    res = minimize(
        fun,
        x0,
        jac=lambda x: central_diff_grad(fun, x),
        method="L-BFGS-B",
        bounds=bounds,
        callback=track,
        options={"maxiter": max_iter, "ftol": tol_obj, "gtol": tol_grad},
    )
    x = np.clip(res.x, lo, hi)
    return BoxResult(
        x=x,
        fun=float(fun(x)),
        trace=np.asarray(trace),
        converged=bool(res.success),
        n_iter=int(res.nit),
        message=str(res.message),
    )
