import math
import warnings

import numpy as np
import pytest

from conftest import assert_rejects, make_dataset, random_params
from dense import assemble, central_diff_grad, joint_objective, marginal_cov
from cslme import estimate
from cslme.estimate import (
    METHODS,
    FitConfig,
    approx_loglik,
    fit,
    multistart,
    pls_objective,
    prls_objective,
)
from cslme.model import (
    NUMERICAL_FAILURES,
    BlockDesign,
    Dataset,
    GroupData,
    ModelSpec,
    Parameters,
    SingularDesignError,
    share_bounds,
)
from cslme.optim import (
    TOL_GRAD,
    TOL_OBJ,
    BoxResult,
    ConvergenceError,
    gradient_step,
    minimize_newton,
    minimize_starts,
    with_central_diff,
)
from cslme.sim import Scenario, builtin_scenarios, gen_design, gen_response, replication_data


def dense_pls(params, dataset, spec):
    X, Z, y, _ = assemble(dataset, spec)
    V = marginal_cov(params, spec, Z)
    Vinv = np.linalg.inv(V)
    r = y - X @ params.beta
    return float(r @ Vinv @ r + np.linalg.slogdet(V)[1])


def dense_logdet_f(params, dataset, spec):
    X, Z, y, _ = assemble(dataset, spec)
    Vinv = np.linalg.inv(marginal_cov(params, spec, Z))
    return float(np.linalg.slogdet(X.T @ Vinv @ X)[1])


class TestObjectives:
    def test_pls_matches_dense(self, rng):
        for _ in range(6):
            data = make_dataset(rng, g=3, p=3)
            spec = ModelSpec(alpha=(0, 1))
            params = random_params(rng, 3, spec.alpha)
            assert pls_objective(params, data, spec) == pytest.approx(
                dense_pls(params, data, spec), rel=1e-9)

    def test_prls_minus_pls_identity(self, rng):
        for _ in range(10):
            data = make_dataset(rng, g=3, p=3)
            spec = ModelSpec(alpha=(1,))
            params = random_params(rng, 3, spec.alpha)
            gap = prls_objective(params, data, spec) - pls_objective(params, data, spec)
            assert gap == pytest.approx(dense_logdet_f(params, data, spec), abs=1e-10)

    def test_prls_zero_term_for_orthonormal_design(self, rng):
        # V = I and orthonormal columns make ln|X' V^-1 X| vanish
        raw = rng.normal(size=(12, 2))
        Q, _ = np.linalg.qr(raw)
        data = Dataset((GroupData("a", rng.normal(size=6), Q[:6]),
                        GroupData("b", rng.normal(size=6), Q[6:])))
        spec = ModelSpec(alpha=(0,))
        params = Parameters(beta=np.array([0.0, 1.0]), varsigma=np.array([0.3]),
                            sigma=1.0)
        # beta[0] = 0 degenerates the deviation, so V = sigma^2 I = I
        gap = prls_objective(params, data, spec) - pls_objective(params, data, spec)
        assert gap == pytest.approx(0.0, abs=1e-10)

    def test_approx_loglik_identity(self, rng):
        data = make_dataset(rng, g=2, p=3)
        spec = ModelSpec(alpha=(0,))
        for _ in range(5):
            params = random_params(rng, 3, spec.alpha)
            lhs = pls_objective(params, data, spec)
            rhs = -2.0 * approx_loglik(params, data, spec) - data.n * math.log(2 * math.pi)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_approx_loglik_reduces_to_iid_normal(self, rng):
        data = make_dataset(rng, g=2, p=2)
        X = np.vstack([gd.X for gd in data.groups])
        y = np.concatenate([gd.y for gd in data.groups])
        ols, *_ = np.linalg.lstsq(X, y, rcond=None)
        rss = float(np.sum((y - X @ ols) ** 2))
        sigma2 = rss / data.n
        params = Parameters(beta=ols, varsigma=np.array([0.0]), sigma=math.sqrt(sigma2))
        expected = -0.5 * data.n * (math.log(2 * math.pi * sigma2) + 1.0)
        spec = ModelSpec(alpha=(0,), constrained=False)
        assert approx_loglik(params, data, spec) == pytest.approx(expected, rel=1e-12)


def boundary_scenario(n=300, seed=11):
    truth = Parameters(beta=np.array([0.072, 1.0, 1.0]),
                       varsigma=np.array([0.058]), sigma=1.0)
    return Scenario(n=n, p=3, g=2, alpha=(0,), truth=truth, seed=seed)


def simulate(scenario, rep=0):
    ss = np.random.SeedSequence([scenario.seed, rep])
    d_seed, r_seed = ss.spawn(2)
    spec = scenario.model_spec()
    design = gen_design(scenario, seed=d_seed)
    data, gamma_truth = gen_response(design, scenario.truth, spec, r_seed)
    return data, spec, gamma_truth


class TestFit:
    def test_feasibility_exact_near_boundary(self):
        data, spec, _ = simulate(boundary_scenario())
        res = fit(data, spec, FitConfig(method="PLS", seed=1))
        assert np.all(res.params.beta >= 0.0)
        assert np.all(res.params.varsigma >= 0.0)
        assert res.params.sigma > 0.0
        # overall coefficients never negative either
        overall = res.params.beta[0] + res.gamma.gamma[:, 0]
        assert np.all(overall >= 0.0)

    def test_objective_recomputable(self):
        data, spec, _ = simulate(boundary_scenario(n=200, seed=3))
        res = fit(data, spec, FitConfig(method="PRLS", seed=2))
        assert res.objective == pytest.approx(
            prls_objective(res.params, data, spec), rel=1e-12)

    def test_monotone_trace(self):
        data, spec, _ = simulate(boundary_scenario(n=200, seed=5))
        res = fit(data, spec, FitConfig(method="PLS", seed=0))
        assert np.all(np.diff(res.objective_trace) <= 1e-9)

    def test_deterministic(self):
        data, spec, _ = simulate(boundary_scenario(n=150, seed=7))
        cfg = FitConfig(method="PLS", seed=9)
        a = fit(data, spec, cfg)
        b = fit(data, spec, cfg)
        np.testing.assert_array_equal(a.params.beta, b.params.beta)
        np.testing.assert_array_equal(a.gamma.gamma, b.gamma.gamma)
        assert a.objective == b.objective
        assert a.start_index == b.start_index

    def test_overflowing_start_is_listed_as_failed(self, rng, monkeypatch):
        data = make_dataset(rng, g=3, p=2)
        spec = ModelSpec(alpha=(0,))
        natural_starts = estimate.default_starts

        def with_overflowing_start(design, spec, config):
            starts = natural_starts(design, spec, config)
            bad = starts[0].copy()
            bad[-1] = 800.0  # log sigma: exp(800) overflows a double
            return starts + [bad]

        monkeypatch.setattr(estimate, "default_starts", with_overflowing_start)
        res = fit(data, spec, FitConfig(n_starts=1))
        assert [idx for idx, _ in res.failed_starts] == [1]
        assert res.failed_starts[0][1].startswith("OverflowError")
        assert [idx for idx, *_ in res.start_objectives] == [0]

    @pytest.mark.parametrize("error", [ZeroDivisionError, KeyError])
    def test_program_error_in_a_start_propagates(self, rng, monkeypatch, error):
        # ZeroDivisionError is an ArithmeticError, as NumericalError is: the
        # failure tuple must name NumericalError, not its base
        def raising(*args):
            raise error("a program error")

        monkeypatch.setattr(estimate, "objective_gradient_hessian", raising)
        with pytest.raises(error, match="a program error"):
            fit(make_dataset(rng, g=3, p=2), ModelSpec(alpha=(0,)), FitConfig(n_starts=2))

    def test_zero_variance_truth_recovers_gls(self, rng):
        truth = Parameters(beta=np.array([1.0, 0.8, 1.2]),
                           varsigma=np.array([0.0]), sigma=0.7)
        sc = Scenario(n=400, p=3, g=2, alpha=(0,), truth=truth, seed=21)
        data, spec, _ = simulate(sc)
        res = fit(data, spec, FitConfig(method="PLS", seed=4))
        assert res.params.varsigma[0] < 0.05
        X = np.vstack([gd.X for gd in data.groups])
        y = np.concatenate([gd.y for gd in data.groups])
        ols, *_ = np.linalg.lstsq(X, y, rcond=None)
        np.testing.assert_allclose(res.params.beta, np.maximum(ols, 0.0), atol=0.02)

    def test_optimality_probe(self):
        data, spec, _ = simulate(boundary_scenario(n=250, seed=13))
        res = fit(data, spec, FitConfig(method="PLS", seed=1))
        x = np.concatenate([res.params.beta, res.params.varsigma,
                            [math.log(res.params.sigma)]])
        rng = np.random.default_rng(99)
        tol = TOL_OBJ * (1.0 + abs(res.objective))
        p, k = data.p, spec.k
        for _ in range(200):
            delta = 1e-3 * rng.uniform(-1, 1, size=x.size) * np.maximum(np.abs(x), 0.1)
            probe = x + delta
            probe[:p + k] = np.maximum(probe[:p + k], 0.0)
            params = Parameters(beta=probe[:p], varsigma=probe[p:p + k],
                                sigma=math.exp(probe[-1]))
            assert pls_objective(params, data, spec) >= res.objective - tol

    def test_gamma_solves_joint_problem(self):
        data, spec, _ = simulate(boundary_scenario(n=200, seed=17))
        res = fit(data, spec, FitConfig(method="PLS", seed=3))
        best = joint_objective(data, res.params, spec, res.gamma.gamma)
        rng = np.random.default_rng(5)
        bound = abs(res.params.beta[0])
        for _ in range(100):
            probe = res.gamma.gamma + rng.uniform(-0.1, 0.1, size=res.gamma.gamma.shape)
            probe = np.clip(probe, -bound, bound)
            assert joint_objective(data, res.params, spec, probe) >= best - 1e-10

    def test_constrained_matches_free_optimum_when_interior(self, rng):
        # solidly positive truth: the sign constraints never bind, so the
        # constrained optimum must coincide with the free optimum
        truth = Parameters(beta=np.array([2.0, 1.5, 1.0]),
                           varsigma=np.array([0.4]), sigma=0.8)
        sc = Scenario(n=500, p=3, g=2, alpha=(0,), truth=truth, seed=31)
        data, spec, _ = simulate(sc)
        cfg = FitConfig(method="PLS", seed=2)
        constrained = fit(data, spec, cfg)
        free_spec = ModelSpec(alpha=spec.alpha, constrained=False)
        free = fit(data, free_spec, cfg)
        assert np.all(free.params.beta > 0)
        assert constrained.objective == pytest.approx(
            free.objective, abs=1e-6 * (1 + abs(free.objective)))

    @pytest.mark.parametrize("method", ["PLS", "PRLS"])
    @pytest.mark.parametrize("column", [
        lambda X: X[:, 0] + 2.0 * X[:, 1], lambda X: np.zeros(len(X))],
        ids=["combination", "zero"])
    def test_collinear_column_named(self, method, column):
        data, spec, _ = simulate(boundary_scenario(n=100))
        data = Dataset(tuple(GroupData(gd.group_id, gd.y, np.column_stack([gd.X[:, :2],
                                                                          column(gd.X)]))
                             for gd in data.groups))
        with pytest.raises(SingularDesignError, match="design column 2 "):
            fit(data, spec, FitConfig(method=method))


class TestMinimizeBox:
    def test_nfev_counts_every_call(self):
        calls = []

        def fun(X):
            calls.extend(X.copy())
            return ((X - 3.0) ** 2).sum(axis=1), 2.0 * (X - 3.0)

        (res,) = minimize_starts(fun, [np.array([0.0, 10.0])], [(0.0, 1.0), (None, None)])
        assert res.nfev == len(calls) and res.trace[0] == 58.0
        np.testing.assert_array_equal(calls[0], [0.0, 10.0])
        assert res.x[0] == 1.0 and res.x[1] == pytest.approx(3.0)
        assert res.converged

    def test_nfev_counts_every_evaluated_row(self):
        rows = []

        def fun(X):
            rows.extend(X.copy())
            return ((X - 3.0) ** 2).sum(axis=1), 2.0 * (X - 3.0)

        starts = [np.array([0.0, 10.0]), np.array([0.5, -4.0]), np.array([2.0, 3.0])]
        results = minimize_starts(fun, starts, [(0.0, 1.0), (None, None)])
        assert sum(res.nfev for res in results) == len(rows)
        np.testing.assert_array_equal(rows[:3], [[0.0, 10.0], [0.5, -4.0], [1.0, 3.0]])
        assert [res.trace[0] for res in results] == [58.0, 55.25, 4.0]
        assert all(res.x[0] == 1.0 and res.converged for res in results)

    def test_with_central_diff_calls_at_x_then_the_probes(self):
        seen = []

        def values(P):
            seen.append(P.copy())
            return np.sum(P ** 3, axis=1)

        x = np.array([1.0, -2.0])
        (value,), (grad,) = with_central_diff(values)(x[None])
        assert value == -7.0 and len(seen) == 1 and seen[0].shape == (1 + 2 * x.size, x.size)
        np.testing.assert_array_equal(seen[0][0], x)
        np.testing.assert_array_equal(
            grad, central_diff_grad(lambda probe: float(np.sum(probe ** 3)), x))


def finished(fun, message="CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL"):
    """A start's BoxResult that ended at objective `fun`."""
    return BoxResult(x=np.zeros(1), fun=fun, trace=np.array([fun]), converged=True,
                     n_iter=1, message=message, nfev=1, pg_norm=0.0)


class TestMultistart:
    def test_near_tie_goes_to_earlier_start(self):
        runs = [finished(1.0), finished(1.0 - 0.5 * TOL_OBJ)]
        idx, best, results, failures = multistart(runs)
        assert idx == 0 and best is runs[0] and failures == []
        assert results == [(0, runs[0]), (1, runs[1])]
        assert runs[1].fun < best.fun  # lower, but within TOL_OBJ

    def test_lower_by_more_than_tol_obj_wins(self):
        runs = [finished(1.0), finished(1.0 - 10.0 * TOL_OBJ)]
        idx, best, _, _ = multistart(runs)
        assert idx == 1 and best is runs[1]

    @pytest.mark.parametrize("bad", [math.nan, -math.inf, math.inf])
    def test_non_finite_objective_never_wins(self, bad):
        runs = [finished(bad), OverflowError("poisoned point"), finished(2.0), finished(bad)]
        idx, best, results, failures = multistart(runs)
        assert idx == 2 and best is runs[2]
        assert [i for i, _ in results] == [0, 2, 3]  # finished, so counted, but not ranked
        assert failures == [(1, "OverflowError('poisoned point')")]

    def test_no_finite_objective_lists_every_start(self):
        runs = [finished(-math.inf, "ABNORMAL: THE OBJECTIVE IS NOT FINITE AT THE START"),
                np.linalg.LinAlgError("not positive definite"), finished(math.nan)]
        with pytest.raises(ConvergenceError, match="all 3 starts failed") as info:
            multistart(runs)
        assert info.value.diagnostics == [
            (0, "objective -inf: ABNORMAL: THE OBJECTIVE IS NOT FINITE AT THE START"),
            (1, "LinAlgError('not positive definite')"),
            (2, "objective nan: CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL")]

    @pytest.mark.parametrize("error", [*NUMERICAL_FAILURES, SingularDesignError,
                                       ConvergenceError])
    def test_every_start_failing_lists_each(self, error):
        with pytest.raises(ConvergenceError, match="all 2 starts failed") as info:
            multistart([error("no value here"), error("no value here")])
        assert [i for i, _ in info.value.diagnostics] == [0, 1]
        assert all(msg.startswith(error.__name__) for _, msg in info.value.diagnostics)

    @pytest.mark.parametrize("method", METHODS)
    def test_overflowing_response_raises(self, method):
        # u'u overflows before its division by sigma^2: every start's first value is -inf
        scenario = builtin_scenarios()["intercept-p3-n300"]
        data, _, seed = replication_data(scenario, 0)
        data = Dataset(tuple(GroupData(gd.group_id, gd.y * 1e100, gd.X) for gd in data.groups))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(ConvergenceError, match="all 5 starts failed") as info:
                fit(data, scenario.model_spec(), FitConfig(method=method, seed=seed))
        assert all(msg.startswith("objective -inf") for _, msg in info.value.diagnostics)


class TestSleepStudyStarts:
    """Every start of every start seed reaches the same optimum, certified.

    Central-difference gradients stopped PRLS at start seeds 1, 2, 4 and 9
    on the flat valley in the slope scale, up to 2.0e-4 above the others;
    the search in varsigma left single starts up to 9.2 above their seed's
    winner. The search in q has no such valley. L-BFGS-B stopped every
    start on its relative-decrease test with projected gradients up to
    7e-3; projected Newton ends each one at most TOL_GRAD from first-order
    optimality.
    """

    @pytest.fixture(scope="class")
    def sleep(self):
        from cslme.cli import InputSchema, ingest
        from cslme.datasets import sleepstudy_path

        schema = InputSchema(group_column="Subject", response_column="Reaction",
                             feature_columns=("Days",),
                             random_effect_columns=("intercept", "Days"))
        return ingest(sleepstudy_path(), schema)

    @pytest.mark.parametrize("method", ["PLS", "PRLS"])
    def test_start_seeds_0_to_9_agree(self, sleep, method):
        data, spec = sleep
        fits = [fit(data, spec, FitConfig(method=method, seed=seed)) for seed in range(10)]
        objectives = [res.objective for res in fits]
        assert max(objectives) - min(objectives) <= 1e-6
        for res in fits:
            assert res.failed_starts == [] and len(res.start_objectives) == 5
            assert max(value for _, value, _ in res.start_objectives) - res.objective <= 1e-5
            # every start certified: converged means a projected gradient <= TOL_GRAD
            assert all(converged for *_, converged in res.start_objectives)
            assert max(norm for _, norm in res.start_pg_norms) <= TOL_GRAD
        if method == "PLS":
            idx335 = data.group_ids.index("335")
            for res in fits:
                # criterion 5's band and its exact boundary slope
                for est, ref in zip(res.params.beta, (250.389, 10.789)):
                    assert abs(est - ref) <= 0.03 * abs(ref)
                assert res.params.beta[1] + res.gamma.gamma[idx335, 1] == 0.0

    @pytest.mark.parametrize("method", ["PLS", "PRLS"])
    def test_objective_near_zero_certifies_every_start(self, sleep, method):
        # y scaled by c shifts the objective by (n - p [PRLS]) ln c^2; at the c
        # that puts the optimum at 0, f's rounding is set by its terms (about
        # 1400), not by |f|, and every start must still end certified
        data, spec = sleep
        shift = fit(data, spec, FitConfig(method=method)).objective
        c = math.exp(-0.5 * shift / (data.n - data.p * (method == "PRLS")))
        scaled = Dataset(tuple(GroupData(gd.group_id, c * gd.y, gd.X) for gd in data.groups))
        for seed in range(5):
            res = fit(scaled, spec, FitConfig(method=method, seed=seed))
            assert abs(res.objective) < 1e-9
            assert all(converged for *_, converged in res.start_objectives)

    def test_seed_8_starts_run_silently_as_when_run_alone(self, sleep):
        # A start at log sigma = 400 evaluates a sigma whose square overflows:
        # alone, as a batch of one, and in its batch with the start seed 8
        # starts, it must stay as silent as a Python float's square
        data, spec = sleep
        design = BlockDesign(data, spec)
        starts = estimate.default_starts(design, spec, FitConfig(seed=8))
        overflowing = starts[1].copy()
        overflowing[-1] = 400.0
        bounds = share_bounds(design, spec)
        log_sigmas = []

        def fun(x):
            log_sigmas.extend(x[:, -1].tolist())
            return estimate.objective_gradient_hessian(design, spec, x, False)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            together = minimize_newton(fun, starts + [overflowing], bounds)
            solo = [minimize_newton(fun, [x0], bounds)[0] for x0 in starts + [overflowing]]
            res = fit(data, spec, FitConfig(seed=8))
        assert max(log_sigmas) > 0.5 * math.log(np.finfo(float).max)
        assert res.start_objectives == [(i, r.fun, r.converged) for i, r in enumerate(solo[:-1])]
        assert res.failed_starts == []
        assert solo[-1].fun == math.inf and not solo[-1].converged
        for got, want in zip(together, solo):
            np.testing.assert_array_equal(got.x, want.x)
            np.testing.assert_array_equal(got.trace, want.trace)
            assert (got.fun, got.nfev, got.n_iter, got.message, got.pg_norm) == \
                (want.fun, want.nfev, want.n_iter, want.message, want.pg_norm)


class TestGradient:
    def test_central_diff_matches_richardson(self, rng):
        data = make_dataset(rng, g=3, p=3)
        spec = ModelSpec(alpha=(0, 2))

        def fun(x):
            params = Parameters(beta=x[:3], varsigma=np.abs(x[3:5]),
                                sigma=math.exp(x[5]))
            return pls_objective(params, data, spec)

        for _ in range(20):
            params = random_params(rng, 3, spec.alpha)
            x = np.concatenate([params.beta, params.varsigma,
                                [math.log(params.sigma)]])
            internal = central_diff_grad(fun, x)
            h0 = 1e-3 * np.maximum(np.abs(x), 1.0)
            d1 = central_diff_grad(fun, x, h=h0)
            d2 = central_diff_grad(fun, x, h=h0 / 2)
            d4 = central_diff_grad(fun, x, h=h0 / 4)
            r1 = (4 * d2 - d1) / 3
            r2 = (4 * d4 - d2) / 3
            richardson = (16 * r2 - r1) / 15
            rel = np.linalg.norm(internal - richardson) / np.linalg.norm(richardson)
            assert rel < 1e-4

    def test_step_rule(self):
        x = np.array([0.0, 1e-3, 100.0])
        np.testing.assert_allclose(gradient_step(x), [1e-6, 1e-6, 1e-5])


class TestConstraintOverrides:
    def test_unconstrained_columns_may_go_negative(self, rng):
        # data with a genuinely negative slope on column 1
        from cslme.model import Dataset, GroupData
        from cslme.sim import Scenario, gen_design

        sc = Scenario(n=200, p=3, g=2, alpha=(0,),
                      truth=Parameters(beta=np.array([1.0, 0.0, 1.0]),
                                       varsigma=np.array([0.1]), sigma=0.5),
                      seed=3)
        groups = []
        gen = np.random.default_rng(9)
        for ell, X in enumerate(gen_design(sc, seed=1)):
            y = X @ np.array([1.0, -0.8, 1.0]) + gen.normal(0, 0.5, len(X))
            groups.append(GroupData(ell + 1, y, X))
        data = Dataset(tuple(groups))

        spec_all = ModelSpec(alpha=(0,), constrained=True)
        res_all = fit(data, spec_all, FitConfig(method="PLS", seed=1))
        assert res_all.params.beta[1] == 0.0  # clamped at the sign boundary

        spec_free1 = ModelSpec(alpha=(0,), constrained=True,
                               unconstrained_columns=(1,))
        res_free = fit(data, spec_free1, FitConfig(method="PLS", seed=1))
        assert res_free.params.beta[1] < -0.5
        assert res_free.params.beta[0] >= 0.0
        assert res_free.objective < res_all.objective


# Each row: what raises, the exception's exact type and a fragment of its
# message that names the field.
ESTIMATE_REJECTIONS = {
    "unknown-method": (lambda: FitConfig(method="OLS"), ValueError,
                       "method must be one of ('PLS', 'PRLS'), got 'OLS'"),
    "no-starts": (lambda: FitConfig(n_starts=0), ValueError, "n_starts must be positive"),
}


@pytest.mark.parametrize("name", ESTIMATE_REJECTIONS)
def test_estimate_boundary_rejections(name):
    assert_rejects(*ESTIMATE_REJECTIONS[name])
