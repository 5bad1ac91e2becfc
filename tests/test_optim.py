"""The lockstep L-BFGS-B driver against scipy.optimize.minimize, its oracle.

`minimize_starts` steps scipy's private `setulb` itself; every start's
BoxResult must equal, bit for bit, what `minimize(method="L-BFGS-B")`
gives on the same start, so a change in scipy's L-BFGS-B shows here.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest
from scipy.optimize import minimize

from cslme import baseline, estimate, optim
from cslme.model import as_design, share_bounds
from cslme.optim import (
    MAX_ITER,
    TOL_GRAD,
    TOL_OBJ,
    BoxResult,
    minimize_starts,
)


def scipy_box(fun, x0, bounds, tol_obj=TOL_OBJ, tol_grad=TOL_GRAD, max_iter=MAX_ITER):
    """`scipy.optimize.minimize(method="L-BFGS-B", jac=True)` on a one-point
    `fun(x) -> (f, grad)`, recorded as a BoxResult: the first value and each
    iterate's open the trace, and a point off the box is re-projected."""
    lo = np.array([-np.inf if b[0] is None else b[0] for b in bounds])
    hi = np.array([np.inf if b[1] is None else b[1] for b in bounds])
    trace = []

    def tracing_first(x):
        f, grad = fun(x)
        if not trace:
            trace.append(float(f))
        return f, grad

    def track(intermediate_result):
        trace.append(float(intermediate_result.fun))

    res = minimize(tracing_first, np.clip(np.asarray(x0, dtype=float), lo, hi), jac=True,
                   method="L-BFGS-B", bounds=bounds, callback=track,
                   options={"maxiter": max_iter, "ftol": tol_obj, "gtol": tol_grad})
    x = np.clip(res.x, lo, hi)
    value, nfev = float(res.fun), int(res.nfev)
    if not np.array_equal(x, res.x):
        value, nfev = float(fun(x)[0]), nfev + 1
    return BoxResult(x=x, fun=value, trace=np.asarray(trace), converged=bool(res.success),
                     n_iter=int(res.nit), message=str(res.message), nfev=nfev)


def assert_same(got, want):
    assert isinstance(got, BoxResult), got
    np.testing.assert_array_equal(got.x, want.x)
    np.testing.assert_array_equal(got.trace, want.trace)
    assert (got.fun, got.n_iter, got.nfev, got.message, got.converged) == \
        (want.fun, want.n_iter, want.nfev, want.message, want.converged)


@pytest.fixture(scope="module")
def sleep():
    from cslme.cli import InputSchema, ingest
    from cslme.datasets import sleepstudy_path

    schema = InputSchema(group_column="Subject", response_column="Reaction",
                         feature_columns=("Days",),
                         random_effect_columns=("intercept", "Days"))
    return ingest(sleepstudy_path(), schema)


def per_point(fun):
    """The batch form `fun(X) -> (F, G)` of a one-point `fun(x) -> (f, grad)`,
    evaluating the rows of X one after another."""
    def batch(X):
        values, grads = zip(*(fun(x) for x in X))
        return np.array(values, dtype=float), np.array(grads, dtype=float)

    return batch


def one_point(batch):
    """The one-point form `fun(x) -> (f, grad)` of a batch objective, at a batch of one."""
    def fun(x):
        (f,), (grad,) = batch(x[None])
        return f, grad

    return fun


def sleep_problem(sleep, method, seed=0):
    """(objective taking X (R, m), starts, bounds) of a sleep-study fit; ML/REML
    search the relative variances v = (varsigma / sigma)^2 >= 0."""
    data, spec = sleep
    if method in estimate.METHODS:
        design = as_design(data, spec)
        starts = estimate.default_starts(design, spec, estimate.FitConfig(method, seed=seed))
        return (lambda x: estimate.objective_and_gradient(design, spec, x, method == "PRLS"),
                starts, share_bounds(design, spec))
    spec = replace(spec, constrained=False)
    design = as_design(data, spec)
    return (lambda x: baseline.criterion_and_gradient(x, design, method),
            baseline._baseline_starts(design, seed), [(0.0, None)] * design.k)


class TestAgainstScipy:
    @pytest.mark.parametrize("method", ["PLS", "PRLS", "ML", "REML"])
    def test_sleep_study_starts_alone_and_in_lockstep(self, sleep, method):
        batch, starts, bounds = sleep_problem(sleep, method)
        fun = one_point(batch)
        want = [scipy_box(fun, x0, bounds) for x0 in starts]
        (alone,) = minimize_starts(batch, starts[:1], bounds)
        assert_same(alone, want[0])
        together = minimize_starts(batch, starts, bounds)
        assert len(together) == len(starts) >= 3
        for got, ref in zip(together, want):
            assert_same(got, ref)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           kinds=st.lists(st.sampled_from(["both", "lower", "upper", "free"]),
                          min_size=1, max_size=5))
    def test_convex_box_qps(self, seed, kinds):
        rng = np.random.default_rng(seed)
        m = len(kinds)
        M = rng.normal(size=(m, m))
        A, b = M @ M.T + 0.1 * np.eye(m), 3.0 * rng.normal(size=m)

        def qp(x):
            return float(0.5 * x @ A @ x + b @ x), A @ x + b

        lo, width = rng.normal(size=m), rng.uniform(0.1, 3.0, size=m)
        bounds = [(lo[i] if kind in ("both", "lower") else None,
                   lo[i] + width[i] if kind in ("both", "upper") else None)
                  for i, kind in enumerate(kinds)]
        starts = 3.0 * rng.normal(size=(4, m))  # some outside the box: clipped
        results = minimize_starts(per_point(qp), starts, bounds)
        for x0, got in zip(starts, results):
            assert_same(got, scipy_box(qp, x0, bounds))

    def test_iteration_cap(self):
        def rosenbrock(x):
            a, b = x
            return (float((1 - a) ** 2 + 100 * (b - a * a) ** 2),
                    np.array([-2 * (1 - a) - 400 * a * (b - a * a), 200 * (b - a * a)]))

        starts = [np.array([-1.2, 1.0]), np.array([2.0, -1.0])]
        bounds = [(None, None), (-0.5, None)]
        results = minimize_starts(per_point(rosenbrock), starts, bounds, max_iter=4)
        for x0, got in zip(starts, results):
            want = scipy_box(rosenbrock, x0, bounds, max_iter=4)
            assert_same(got, want)
            assert got.n_iter == 4 and not got.converged
            assert got.message == "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT"


def separable(x):
    """(x - c)' (x - c) with c = (1, 0): a start at x_1 > 5 heads down through (5, 10)."""
    c = np.array([1.0, 0.0])
    return float((x - c) @ (x - c)), 2.0 * (x - c)


class TestBatchIsolation:
    STARTS = [np.array([3.0, 1.0]), np.array([-2.0, 10.0]), np.array([0.5, -2.0])]

    def test_a_raising_point_fails_only_its_start(self):
        rows = []

        def batch(X):
            rows.append(len(X))
            # any point past x_1 = 5 but start 1's own x0 raises, whatever shares its batch
            if ((X[:, 1] > 5.0) & (X[:, 1] != 10.0)).any():
                raise OverflowError("poisoned point")
            return per_point(separable)(X)

        idx, best, results, failures = estimate.multistart(
            batch, self.STARTS, [(None, None)] * 2, TOL_OBJ, TOL_GRAD, MAX_ITER)
        assert failures == [(1, "OverflowError('poisoned point')")]
        assert [i for i, _ in results] == [0, 2] and idx in (0, 2)
        for i, res in results:
            (alone,) = minimize_starts(per_point(separable), self.STARTS[i:i + 1],
                                       [(None, None)] * 2)
            assert_same(res, alone)
        assert rows[0] == 3 and 1 in rows  # the raising round went again point by point

    def test_a_start_does_not_depend_on_its_batch(self, sleep):
        fun, starts, bounds = sleep_problem(sleep, "PRLS", seed=3)
        together = minimize_starts(fun, starts, bounds)
        for subset in ([4, 1], [2], [3, 0, 2]):
            for i, got in zip(subset, minimize_starts(fun, [starts[i] for i in subset], bounds)):
                assert_same(got, together[i])


def test_a_point_off_the_box_is_re_projected_and_evaluated_there():
    # setulb keeps its iterates in the box, so this reaches the rule directly
    run = optim._Lbfgsb(np.array([0.5, 2.0]))
    run.take(*separable(run.x))
    run.x[:] = np.nextafter(1.0, 2.0), 2.5  # one ulp past the upper bound of x_0
    lo, hi = np.array([0.0, -np.inf]), np.array([1.0, np.inf])
    res = run.result(per_point(separable), lo, hi)
    np.testing.assert_array_equal(res.x, [1.0, 2.5])
    assert (res.fun, res.nfev) == (separable(res.x)[0], 2)

    def raising(X):
        raise FloatingPointError("no value here")

    assert isinstance(run.result(raising, lo, hi), FloatingPointError)
