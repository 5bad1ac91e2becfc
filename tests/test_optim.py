"""The two lockstep box drivers against their oracles.

`minimize_starts` steps scipy's private `setulb` itself; every start's
BoxResult must equal, bit for bit, what `minimize(method="L-BFGS-B")`
gives on the same start, so a change in scipy's L-BFGS-B shows here.
`minimize_newton`, the projected-Newton driver of the PLS/PRLS fits, must
match the active-set QP `ranef._box_qp` on strictly convex box QPs, run
each start as it runs alone, and treat a trial point that raises as a
rejected step.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest
from scipy.optimize import minimize

from cslme import baseline, estimate, optim
from cslme.model import BlockDesign, share_bounds
from cslme.optim import (
    MAX_ITER,
    TOL_GRAD,
    TOL_OBJ,
    BoxResult,
    minimize_newton,
    minimize_starts,
)
from cslme.ranef import _box_qp


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
    value, grad, nfev = float(res.fun), res.jac, int(res.nfev)
    if not np.array_equal(x, res.x):
        (value, grad), nfev = fun(x), nfev + 1
    return BoxResult(x=x, fun=float(value), trace=np.asarray(trace),
                     converged=bool(res.success), n_iter=int(res.nit), message=str(res.message),
                     nfev=nfev, pg_norm=float(np.abs(x - np.clip(x - grad, lo, hi)).max()))


def assert_same(got, want):
    assert isinstance(got, BoxResult), got
    np.testing.assert_array_equal(got.x, want.x)
    np.testing.assert_array_equal(got.trace, want.trace)
    assert (got.fun, got.n_iter, got.nfev, got.message, got.converged, got.pg_norm) == \
        (want.fun, want.n_iter, want.nfev, want.message, want.converged, want.pg_norm)


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
        design = BlockDesign(data, spec)
        starts = estimate.default_starts(design, spec, estimate.FitConfig(method, seed=seed))
        return (lambda x: estimate.objective_gradient_hessian(design, spec, x,
                                                              method == "PRLS")[:2],
                starts, share_bounds(design, spec))
    design = BlockDesign(data, spec)
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
            minimize_starts(batch, self.STARTS, [(None, None)] * 2))
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


def per_point_hessian(fun):
    """The batch form `fun(X) -> (F, G, H)` of a one-point `fun(x) -> (f, grad,
    hess)`, evaluating the rows of X one after another."""
    def batch(X):
        values, grads, hessians = zip(*(fun(x) for x in X))
        return (np.array(values, dtype=float), np.array(grads, dtype=float),
                np.array(hessians, dtype=float))

    return batch


def box_qp_case(seed, kinds):
    """A strictly convex QP 0.5 x'Ax + b'x over a box with the bound `kinds`,
    as (A, b, lo, hi, bounds, four starts, some outside the box)."""
    rng = np.random.default_rng(seed)
    m = len(kinds)
    M = rng.normal(size=(m, m))
    A, b = M @ M.T + 0.1 * np.eye(m), 3.0 * rng.normal(size=m)
    low, width = rng.normal(size=m), rng.uniform(0.1, 3.0, size=m)
    lo = np.array([low[i] if kind in ("both", "lower") else -np.inf
                   for i, kind in enumerate(kinds)])
    hi = np.array([low[i] + width[i] if kind in ("both", "upper") else np.inf
                   for i, kind in enumerate(kinds)])
    bounds = [(None if math.isinf(a) else a, None if math.isinf(z) else z)
              for a, z in zip(lo, hi)]
    return A, b, lo, hi, bounds, 3.0 * rng.normal(size=(4, m))


class TestNewton:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           kinds=st.lists(st.sampled_from(["both", "lower", "upper", "free"]),
                          min_size=1, max_size=5))
    def test_convex_box_qps_match_the_active_set_oracle(self, seed, kinds):
        A, b, lo, hi, bounds, starts = box_qp_case(seed, kinds)

        def qp(X):
            G = X @ A + b
            return 0.5 * ((G + b) * X).sum(axis=1), G, np.broadcast_to(A, (len(X),) + A.shape)

        want = _box_qp(A, -b, lo, hi)
        for got in minimize_newton(qp, starts, bounds):
            assert got.converged and got.pg_norm <= TOL_GRAD, got.message
            assert np.abs(got.x - want).max() <= 1e-10 * (1.0 + np.abs(want).max())
            np.testing.assert_array_equal(got.x == lo, want == lo)
            np.testing.assert_array_equal(got.x == hi, want == hi)

    @pytest.mark.parametrize("method", ["PLS", "PRLS"])
    def test_lockstep_equals_each_start_alone(self, sleep, method):
        data, spec = sleep
        design = BlockDesign(data, spec)
        starts = estimate.default_starts(design, spec, estimate.FitConfig(method, seed=3))

        def fun(X):
            return estimate.objective_gradient_hessian(design, spec, X, method == "PRLS")

        bounds = share_bounds(design, spec)
        together = minimize_newton(fun, starts, bounds)
        for i, got in enumerate(together):
            assert got.converged and got.pg_norm <= TOL_GRAD
            assert got.message == "CONVERGENCE: NORM OF PROJECTED GRADIENT <= TOL_GRAD"
            assert_same(minimize_newton(fun, starts[i:i + 1], bounds)[0], got)
        for subset in ([4, 1], [3, 0, 2]):
            for i, got in zip(subset, minimize_newton(fun, [starts[i] for i in subset], bounds)):
                assert_same(got, together[i])

    def test_a_raising_trial_is_a_rejected_step(self):
        # f = sqrt(1 + x^2): from x = 2 the Newton step overshoots to x = -8,
        # and every point below -5 raises; a start there fails at its first point
        def fun(x):
            if x[0] < -5.0:
                raise OverflowError("no value below -5")
            f = math.sqrt(1.0 + x[0] ** 2)
            return f, x / f, np.array([[f ** -3]])

        seen = []

        def batch(X):
            seen.extend(X[:, 0].tolist())
            return per_point_hessian(fun)(X)

        starts = [np.array([2.0]), np.array([-6.0])]
        got, failed = minimize_newton(batch, starts, [(None, None)])
        assert isinstance(failed, OverflowError)
        assert min(seen) < -6.0  # the first trial of the start at 2
        assert seen.count(min(seen)) == 1  # a one-row batch that raises is not run again
        assert got.converged and abs(got.x[0]) <= TOL_GRAD and got.nfev > got.n_iter + 1
        assert_same(minimize_newton(batch, starts[:1], [(None, None)])[0], got)

    def test_a_first_point_that_is_not_finite_stops_the_start(self):
        def fun(x):
            return (math.inf if x[0] > 1.0 else x[0] ** 2), 2.0 * x, np.array([[2.0]])

        bad, good = minimize_newton(per_point_hessian(fun), [np.array([3.0]), np.array([0.5])],
                                    [(None, None)])
        assert (bad.fun, bad.nfev, bad.n_iter, bad.converged) == (math.inf, 1, 0, False)
        assert bad.message == "ABNORMAL: THE OBJECTIVE IS NOT FINITE AT THE START"
        assert good.converged and good.x[0] == 0.0

    def test_the_decrement_below_rounding_stops_a_start(self):
        # f = 1e3 + y^2 + 1e-9 |y|, y = x - 0.3: |f'| >= 1e-9 everywhere, so
        # tol_grad = 1e-10 cannot be met, and the start stops once no step
        # can be verified
        def fun(x):
            y = x[0] - 0.3
            sign = 1.0 if y >= 0.0 else -1.0
            return 1e3 + y * y + 1e-9 * abs(y), np.array([2.0 * y + 1e-9 * sign]), np.eye(1) * 2.0

        (got,) = minimize_newton(per_point_hessian(fun), [np.array([2.0])], [(None, None)],
                                 tol_grad=1e-10)
        assert not got.converged and got.pg_norm <= 2e-9 and abs(got.x[0] - 0.3) <= 1e-9
        assert got.message == "STOP: THE NEWTON DECREMENT IS BELOW ROUNDING"

    def test_an_active_coordinate_does_not_damp_the_free_steps(self):
        # x_0 sits at its lower bound, pushed out by f, with curvature -1e6
        # there; the free x_1 still takes its Newton step to 1 at once
        def fun(x):
            return (-5e5 * x[0] ** 2 + 10.0 * x[0] + (x[1] - 1.0) ** 2,
                    np.array([10.0 - 1e6 * x[0], 2.0 * (x[1] - 1.0)]),
                    np.diag([-1e6, 2.0]))

        (got,) = minimize_newton(per_point_hessian(fun), [np.array([0.0, 5.0])],
                                 [(0.0, 1e-6), (None, None)])
        assert got.converged and got.n_iter == 1
        np.testing.assert_array_equal(got.x, [0.0, 1.0])

    def test_a_coordinate_its_curvature_holds_off_the_bound_stays_free(self):
        # x_0 starts within the active band of its bound 0, pushed toward it,
        # but its own Newton step stops at 9e-5: it stays free, so the first
        # step is the QP's exact minimizer (1e-4, 5)
        A = np.array([[1e4, 1.0], [1.0, 1.0]])
        b = -A @ np.array([1e-4, 5.0])

        def qp(X):
            G = X @ A + b
            return 0.5 * ((G + b) * X).sum(axis=1), G, np.broadcast_to(A, (len(X), 2, 2))

        (got,) = minimize_newton(qp, [np.array([5e-4, 5.1])], [(0.0, None), (None, None)])
        assert got.converged and got.n_iter == 1
        np.testing.assert_allclose(got.x, [1e-4, 5.0], rtol=1e-12)

    def test_every_way_a_start_ends_in_one_batch_as_alone(self):
        # one objective in five regions, one start in each: a quadratic that
        # one step solves, cosh(t) that needs more than max_iter steps,
        # 1e3 + t^2 + 1e-9 |t| whose kink keeps |f'| >= 1e-9 > tol_grad, inf
        # and a region that raises
        def fun(x):
            t = x[0]
            if t > 5000.0:
                raise OverflowError("no value above 5000")
            if t < -100.0:
                return math.inf, np.zeros(1), np.ones((1, 1))
            if t < 500.0:
                return (t - 1.0) ** 2, np.array([2.0 * (t - 1.0)]), np.array([[2.0]])
            if t < 1500.0:
                t -= 1000.0
                return math.cosh(t), np.array([math.sinh(t)]), np.array([[math.cosh(t)]])
            t -= 2000.0
            sign = 1.0 if t >= 0.0 else -1.0
            return 1e3 + t * t + 1e-9 * abs(t), np.array([2.0 * t + 1e-9 * sign]), np.eye(1) * 2.0

        batch = per_point_hessian(fun)
        starts = [np.array([t]) for t in (3.0, 1003.0, 2002.0, -200.0, 6000.0)]
        got = minimize_newton(batch, starts, [(None, None)], tol_grad=1e-10, max_iter=3)
        assert [res.message for res in got[:4]] == [
            "CONVERGENCE: NORM OF PROJECTED GRADIENT <= TOL_GRAD",
            "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT",
            "STOP: THE NEWTON DECREMENT IS BELOW ROUNDING",
            "ABNORMAL: THE OBJECTIVE IS NOT FINITE AT THE START"]
        assert isinstance(got[4], OverflowError)
        for start, res in zip(starts, got):
            (alone,) = minimize_newton(batch, [start], [(None, None)], tol_grad=1e-10,
                                       max_iter=3)
            if isinstance(res, BoxResult):
                assert_same(res, alone)
            else:
                assert type(alone) is type(res) and str(alone) == str(res)

    def test_iteration_cap(self):
        def fun(x):
            return math.cosh(x[0]), np.array([math.sinh(x[0])]), np.array([[math.cosh(x[0])]])

        (got,) = minimize_newton(per_point_hessian(fun), [np.array([3.0])], [(None, None)],
                                 max_iter=2)
        assert got.n_iter == 2 and not got.converged and len(got.trace) == 3
        assert got.message == "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT"
