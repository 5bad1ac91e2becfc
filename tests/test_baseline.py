import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from conftest import assert_rejects, make_dataset
import dense
from dense import assemble, central_diff_grad, joint_system_solve
from exact import sdtn_group_loglik
from cslme import baseline, estimate
from cslme.baseline import (
    PIT_UNDERFLOW_PENALTY,
    QuadratureUnderflowError,
    Theta,
    fit_pit,
    fit_unconstrained,
    gamma_closed_form,
    gh_nodes,
    pit_objective,
    profile_beta,
    profile_loglik,
    reml_loglik,
    shrinkage_gamma,
)
from cslme.model import (
    NUMERICAL_FAILURES,
    BlockDesign,
    Dataset,
    GroupData,
    ModelSpec,
    Parameters,
)
from cslme.optim import ConvergenceError, central_diff_probes, with_central_diff
from cslme.sdtn import SdtnParams, sdtn_pdf
from cslme.sim import (
    Scenario,
    builtin_scenarios,
    gen_design,
    gen_response,
    replication_data,
)


def dense_v(dataset, spec, theta):
    _, Z, y, _ = assemble(dataset, spec)
    g = dataset.g
    G = np.diag(np.tile(theta.varsigma ** 2, g))
    V = Z @ G @ Z.T + theta.sigma ** 2 * np.eye(dataset.n)
    return Z, y, V


class TestProfileBeta:
    def test_zero_variance_is_ols(self, rng):
        data = make_dataset(rng, g=3, p=3)
        spec = ModelSpec(alpha=(0,))
        theta = Theta(varsigma=np.array([0.0]), sigma=1.7)
        X = np.vstack([gd.X for gd in data.groups])
        y = np.concatenate([gd.y for gd in data.groups])
        ols, *_ = np.linalg.lstsq(X, y, rcond=None)
        np.testing.assert_allclose(profile_beta(theta, data, spec), ols, rtol=1e-10)

    def test_interpolation(self, rng):
        data = make_dataset(rng, g=2, p=3)
        b = np.array([0.5, 1.5, -0.3])
        groups = tuple(GroupData(gd.group_id, gd.X @ b, gd.X) for gd in data.groups)
        exact = Dataset(groups)
        theta = Theta(varsigma=np.array([0.4]), sigma=0.8)
        np.testing.assert_allclose(
            profile_beta(theta, exact, ModelSpec(alpha=(1,))), b, atol=1e-10)

    def test_matches_dense_gls(self, rng):
        for _ in range(5):
            data = make_dataset(rng, g=3, p=3)
            spec = ModelSpec(alpha=(0, 1))
            theta = Theta(varsigma=rng.uniform(0.1, 1.0, size=2),
                          sigma=float(rng.uniform(0.5, 2.0)))
            X = np.vstack([gd.X for gd in data.groups])
            Z, y, V = dense_v(data, spec, theta)
            Vinv = np.linalg.inv(V)
            oracle = np.linalg.solve(X.T @ Vinv @ X, X.T @ Vinv @ y)
            np.testing.assert_allclose(profile_beta(theta, data, spec), oracle,
                                       rtol=1e-8)


class TestLogLikelihoods:
    def test_zero_residual_identity_v(self, rng):
        data = make_dataset(rng, g=2, p=2)
        b = np.array([1.0, 2.0])
        exact = Dataset(tuple(GroupData(gd.group_id, gd.X @ b, gd.X)
                              for gd in data.groups))
        theta = Theta(varsigma=np.array([0.0]), sigma=1.0)
        assert profile_loglik(theta, exact, ModelSpec(alpha=(0,))) == pytest.approx(
            0.0, abs=1e-18)

    def test_zero_variance_closed_form(self, rng):
        data = make_dataset(rng, g=3, p=3)
        spec = ModelSpec(alpha=(1,))
        X = np.vstack([gd.X for gd in data.groups])
        y = np.concatenate([gd.y for gd in data.groups])
        ols, *_ = np.linalg.lstsq(X, y, rcond=None)
        rss = float(np.sum((y - X @ ols) ** 2))
        for sigma in (0.7, 1.0, 2.5):
            theta = Theta(varsigma=np.array([0.0]), sigma=sigma)
            expected = -0.5 * (data.n * math.log(sigma ** 2) + rss / sigma ** 2)
            assert profile_loglik(theta, data, spec) == pytest.approx(
                expected, rel=1e-12)

    def test_matches_dense_evaluation(self, rng):
        for _ in range(5):
            data = make_dataset(rng, g=2, p=3)
            spec = ModelSpec(alpha=(0, 2))
            theta = Theta(varsigma=rng.uniform(0.1, 1.0, size=2),
                          sigma=float(rng.uniform(0.5, 2.0)))
            X = np.vstack([gd.X for gd in data.groups])
            Z, y, V = dense_v(data, spec, theta)
            Vinv = np.linalg.inv(V)
            beta = np.linalg.solve(X.T @ Vinv @ X, X.T @ Vinv @ y)
            r = y - X @ beta
            expected = -0.5 * (np.linalg.slogdet(V)[1] + r @ Vinv @ r)
            assert profile_loglik(theta, data, spec) == pytest.approx(
                expected, rel=1e-9)
            expected_reml = expected - 0.5 * np.linalg.slogdet(X.T @ Vinv @ X)[1]
            assert reml_loglik(theta, data, spec) == pytest.approx(
                expected_reml, rel=1e-9)

    def test_reml_profile_identity(self, rng):
        data = make_dataset(rng, g=3, p=3)
        spec = ModelSpec(alpha=(0,))
        X = np.vstack([gd.X for gd in data.groups])
        for _ in range(10):
            theta = Theta(varsigma=rng.uniform(0.01, 2.0, size=1),
                          sigma=float(rng.uniform(0.3, 3.0)))
            Z, y, V = dense_v(data, spec, theta)
            logdet_f = np.linalg.slogdet(X.T @ np.linalg.inv(V) @ X)[1]
            assert reml_loglik(theta, data, spec) == pytest.approx(
                profile_loglik(theta, data, spec) - 0.5 * logdet_f, rel=1e-10)


def balanced_oneway(rng, g=8, m=25, mu=3.0, tau=0.8, sigma=1.2):
    groups = []
    for ell in range(g):
        b = rng.normal(0.0, tau)
        y = mu + b + rng.normal(0.0, sigma, size=m)
        groups.append(GroupData(ell, y, np.ones((m, 1))))
    return Dataset(tuple(groups))


def anova_reml(dataset):
    """Closed-form REML variance components for a balanced one-way design."""
    g = dataset.g
    m = dataset.groups[0].n
    means = np.array([gd.y.mean() for gd in dataset.groups])
    grand = np.mean(np.concatenate([gd.y for gd in dataset.groups]))
    ssb = m * np.sum((means - grand) ** 2)
    ssw = sum(float(np.sum((gd.y - gd.y.mean()) ** 2)) for gd in dataset.groups)
    mse = ssw / (g * (m - 1))
    msb = ssb / (g - 1)
    return max(0.0, (msb - mse) / m), mse, grand


class TestFitUnconstrained:
    def test_zero_variance_truth(self, rng):
        data = make_dataset(rng, g=3, sizes=[30, 30, 30], p=2)
        b = np.array([1.0, 0.5])
        groups = tuple(
            GroupData(gd.group_id, gd.X @ b + rng.normal(0, 0.5, gd.n), gd.X)
            for gd in data.groups)
        noisy = Dataset(groups)
        spec = ModelSpec(alpha=(0,), constrained=False)
        res = fit_unconstrained(noisy, spec, "ML")
        X = np.vstack([gd.X for gd in noisy.groups])
        y = np.concatenate([gd.y for gd in noisy.groups])
        ols, *_ = np.linalg.lstsq(X, y, rcond=None)
        assert res.theta.varsigma[0] < 0.15
        np.testing.assert_allclose(res.beta, ols, atol=0.05)

    def test_duplicated_column_fails_every_start(self, rng):
        data = make_dataset(rng, g=4, p=2)
        dup = Dataset(tuple(GroupData(gd.group_id, gd.y, gd.X[:, [0, 1, 1]])
                            for gd in data.groups))
        spec = ModelSpec(alpha=(0,), constrained=False)
        for criterion in ("ML", "REML"):
            with pytest.raises(ConvergenceError) as info:
                fit_unconstrained(dup, spec, criterion)
            assert len(info.value.diagnostics) == 3
            assert all("SingularDesignError" in msg for _, msg in info.value.diagnostics)

    def test_balanced_oneway_matches_anova_reml(self, rng):
        data = balanced_oneway(rng)
        spec = ModelSpec(alpha=(0,), constrained=False)
        res = fit_unconstrained(data, spec, "REML")
        tau2, mse, grand = anova_reml(data)
        assert res.theta.varsigma[0] ** 2 == pytest.approx(tau2, rel=1e-4)
        assert res.theta.sigma ** 2 == pytest.approx(mse, rel=1e-4)
        assert res.beta[0] == pytest.approx(grand, rel=1e-8)

    def test_gamma_matches_joint_system(self, rng):
        data = make_dataset(rng, g=3, p=3)
        spec = ModelSpec(alpha=(0, 1), constrained=False)
        theta = Theta(varsigma=np.array([0.6, 0.4]), sigma=1.1)
        beta_cf = profile_beta(theta, data, spec)
        gamma_cf = gamma_closed_form(theta, data, spec, beta_cf)
        beta_js, gamma_js = joint_system_solve(theta, data, spec)
        np.testing.assert_allclose(beta_js, beta_cf, rtol=1e-8)
        np.testing.assert_allclose(gamma_js.gamma, gamma_cf.gamma, rtol=1e-8,
                                   atol=1e-10)


@functools.cache
def sleep_and_replications():
    """(label, data, unconstrained spec): the sleep study with random intercept
    and slope, and 10 `intercept-p3-n300` replications."""
    from cslme.cli import InputSchema, ingest
    from cslme.datasets import sleepstudy_path

    schema = InputSchema(group_column="Subject", response_column="Reaction",
                         feature_columns=("Days",),
                         random_effect_columns=("intercept", "Days"))
    data, spec = ingest(sleepstudy_path(), schema)
    cases = [("sleepstudy", data, ModelSpec(alpha=spec.alpha, constrained=False))]
    sc = builtin_scenarios()["intercept-p3-n300"]
    for rep in range(10):
        data, _, _ = replication_data(sc, rep)
        cases.append((f"rep{rep}", data, ModelSpec(alpha=sc.alpha, constrained=False)))
    return cases


class TestProfiledSearch:
    """ML/REML search v = (varsigma / sigma)^2 with beta and sigma profiled out."""

    @pytest.mark.parametrize("criterion", ["ML", "REML"])
    def test_exact_fit_ends_at_the_sigma_floor(self, rng, criterion):
        # y in the column space of X: q0 = 0, and sigma_hat is the floor, not 0
        data = make_dataset(rng, g=4, sizes=[2, 2, 2, 2], p=2)
        b = np.array([1.5, -0.4])
        exact = Dataset(tuple(GroupData(gd.group_id, gd.X @ b, gd.X) for gd in data.groups))
        spec = ModelSpec(alpha=(0,), constrained=False)
        res = fit_unconstrained(exact, spec, criterion)
        assert np.isfinite(res.theta.varsigma).all() and math.isfinite(res.loglik)
        assert res.theta.sigma == math.exp(BlockDesign(exact, spec).log_sigma_floor)
        np.testing.assert_allclose(res.beta, b, rtol=1e-8)

    @pytest.mark.parametrize("criterion", ["ML", "REML"])
    def test_loglik_is_the_criterion_at_theta(self, criterion):
        loglik = profile_loglik if criterion == "ML" else reml_loglik
        for label, data, spec in sleep_and_replications():
            res = fit_unconstrained(data, spec, criterion)
            assert res.loglik == pytest.approx(loglik(res.theta, data, spec), rel=1e-10), label

    @pytest.mark.parametrize("criterion", ["ML", "REML"])
    def test_one_solve_per_round(self, monkeypatch, criterion):
        # one BlockSolve per round of the search, and none before or after:
        # the winner's own evaluation gives beta, sigma and gamma
        events = []
        real_minimize, real_solve = baseline.minimize_starts, BlockDesign.solve

        def counted_minimize(fun, *args, **kwargs):
            def counted(X):
                events.append(("round", len(X)))
                return fun(X)
            return real_minimize(counted, *args, **kwargs)

        def counted_solve(design, *args):
            events.append(("solve", 0))
            return real_solve(design, *args)

        monkeypatch.setattr(baseline, "minimize_starts", counted_minimize)
        monkeypatch.setattr(BlockDesign, "solve", counted_solve)
        for label, data, spec in sleep_and_replications():
            events.clear()
            res = fit_unconstrained(data, spec, criterion)
            kinds = [kind for kind, _ in events]
            assert kinds == ["round", "solve"] * (len(kinds) // 2), label
            assert sum(size for _, size in events) == res.n_eval, label

    @pytest.mark.parametrize("criterion", ["ML", "REML"])
    def test_no_least_squares(self, monkeypatch, criterion):
        # the starts are jittered around v = 1/4 and need no scale of the data
        def refuse(*args, **kwargs):
            raise AssertionError("least-squares solve")

        monkeypatch.setattr(estimate, "least_squares", refuse)
        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        for label, data, spec in sleep_and_replications()[:3]:
            assert fit_unconstrained(data, spec, criterion).converged, label

    @pytest.mark.parametrize("criterion", ["ML", "REML"])
    def test_gamma_is_the_closed_form_at_theta(self, criterion):
        for label, data, spec in sleep_and_replications():
            res = fit_unconstrained(data, spec, criterion)
            np.testing.assert_allclose(
                res.gamma.gamma, gamma_closed_form(res.theta, data, spec, res.beta).gamma,
                rtol=1e-12, err_msg=label)
            # and bit for bit from the fit's own relative variances
            np.testing.assert_array_equal(
                res.gamma.gamma,
                shrinkage_gamma(res.relative_variances, data, spec, res.beta).gamma)

    def test_sleep_study_evaluations(self):
        # at start seed 0, the (varsigma, log sigma) search took 102 (ML) and 109 (REML)
        _, data, spec = sleep_and_replications()[0]
        for criterion, before in (("ML", 102), ("REML", 109)):
            res = fit_unconstrained(data, spec, criterion, seed=0)
            assert res.converged and res.n_eval <= before // 2, criterion


class TestJointSystem:
    def test_matches_closed_forms_random(self, rng):
        for _ in range(20):
            data = make_dataset(rng, g=int(rng.integers(2, 5)), p=3)
            spec = ModelSpec(alpha=(0, 2), constrained=False)
            theta = Theta(varsigma=rng.uniform(0.2, 1.5, size=2),
                          sigma=float(rng.uniform(0.4, 2.0)))
            beta_cf = profile_beta(theta, data, spec)
            gamma_cf = gamma_closed_form(theta, data, spec, beta_cf)
            beta_js, gamma_js = joint_system_solve(theta, data, spec)
            np.testing.assert_allclose(beta_js, beta_cf, rtol=1e-8, atol=1e-10)
            np.testing.assert_allclose(gamma_js.gamma, gamma_cf.gamma,
                                       rtol=1e-8, atol=1e-10)

    def test_tiny_hand_assembled_system(self, rng):
        # k=1, g=2, p=1: 3x3 reduced system solved by hand
        X1 = np.array([[1.0], [1.0]])
        X2 = np.array([[1.0], [1.0], [1.0]])
        data = Dataset((GroupData("a", np.array([1.0, 2.0]), X1),
                        GroupData("b", np.array([3.0, 4.0, 5.0]), X2)))
        spec = ModelSpec(alpha=(0,), constrained=False)
        theta = Theta(varsigma=np.array([0.9]), sigma=1.1)
        r2, g2 = theta.sigma ** 2, theta.varsigma[0] ** 2
        lhs = np.array([
            [5.0, 2.0, 3.0],
            [2.0, 2.0 + r2 / g2, 0.0],
            [3.0, 0.0, 3.0 + r2 / g2],
        ])
        rhs = np.array([15.0, 3.0, 12.0])
        expected = np.linalg.solve(lhs, rhs)
        beta_js, gamma_js = joint_system_solve(theta, data, spec)
        assert beta_js[0] == pytest.approx(expected[0], rel=1e-12)
        np.testing.assert_allclose(gamma_js.gamma[:, 0], expected[1:], rtol=1e-12)

    def test_zero_variance_effect_removed(self, rng):
        data = make_dataset(rng, g=2, p=2)
        spec = ModelSpec(alpha=(0, 1), constrained=False)
        theta = Theta(varsigma=np.array([0.5, 0.0]), sigma=1.0)
        beta_js, gamma_js = joint_system_solve(theta, data, spec)
        np.testing.assert_array_equal(gamma_js.gamma[:, 1], 0.0)
        gamma_cf = gamma_closed_form(theta, data, spec, beta_js)
        np.testing.assert_allclose(gamma_js.gamma, gamma_cf.gamma, atol=1e-10)

    def test_vanishing_penalty_approaches_group_gls(self, rng):
        data = make_dataset(rng, g=2, sizes=[12, 14], p=2)
        spec = ModelSpec(alpha=(0, 1), constrained=False)
        theta = Theta(varsigma=np.array([1e4, 1e4]), sigma=1.0)
        beta_js, gamma_js = joint_system_solve(theta, data, spec)
        for ell, gd in enumerate(data.groups):
            resid = gd.y - gd.X @ beta_js
            per_group, *_ = np.linalg.lstsq(gd.X, resid, rcond=None)
            np.testing.assert_allclose(gamma_js.gamma[ell], per_group, atol=1e-4)


def tiny_pit_problem(seed=3, n=40, beta0=5.0, vs=0.5, g=2):
    truth = Parameters(np.array([beta0, 1.0]), np.array([vs]), 1.0)
    sc = Scenario(n=n, p=2, g=g, alpha=(0,), truth=truth, seed=seed)
    spec = sc.model_spec()
    data, _ = gen_response(gen_design(sc, seed=1), truth, spec, 2)
    return data, spec, truth


class TestPit:
    def test_gh_nodes_sum_to_one(self):
        for q in (2, 4):
            d, w = gh_nodes(q)
            assert np.sum(w) == pytest.approx(1.0, abs=1e-14)
            # E[Z^2] = 1 must be integrated exactly by a rule of order >= 2
            assert np.sum(w * d ** 2) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError):
            gh_nodes(3)

    def test_single_observation_groups_reduce_to_manual_quadrature(self):
        data = Dataset((
            GroupData("a", np.array([1.2]), np.array([[1.0, 0.5]])),
            GroupData("b", np.array([0.4]), np.array([[1.0, 1.5]])),
        ))
        spec = ModelSpec(alpha=(0,))
        beta = np.array([1.0, 0.3])
        vs, sigma = 0.4, 0.9
        x = np.concatenate([beta, [vs], [math.log(sigma)]])
        bd = BlockDesign(data, spec)
        value = pit_objective(x, bd, spec, 2)
        d, w = gh_nodes(2)
        from cslme.sdtn import sdtn_ppf, std_normal_cdf

        law = SdtnParams(0.0, vs, beta[0] / vs)
        gammas = sdtn_ppf(std_normal_cdf(d), law)
        manual = 0.0
        for gd in data.groups:
            r = float(gd.y[0] - gd.X[0] @ beta)
            dens = np.exp(-0.5 * ((r - gammas) / sigma) ** 2) / (
                sigma * math.sqrt(2 * math.pi))
            manual += -math.log(float(np.sum(w * dens)))
        assert value == pytest.approx(manual, rel=1e-12)

    def test_matches_exact_marginal_quadrature(self):
        data, spec, truth = tiny_pit_problem()
        bd = BlockDesign(data, spec)
        x = np.concatenate([truth.beta, truth.varsigma, [math.log(truth.sigma)]])
        pit4 = pit_objective(x, bd, spec, 4)
        law = SdtnParams(0.0, float(truth.varsigma[0]),
                         float(truth.beta[0] / truth.varsigma[0]))
        exact = 0.0
        for gd in data.groups:
            r = gd.y - gd.X @ truth.beta
            z = gd.X[:, 0]

            def integrand(g):
                logs = (-0.5 * math.log(2 * math.pi) - math.log(truth.sigma)
                        - 0.5 * ((r - z * g) / truth.sigma) ** 2)
                return math.exp(float(np.sum(logs))) * sdtn_pdf(g, law)

            val, _ = integrate.quad(integrand, law.lower, law.upper, limit=200)
            exact += -math.log(val)
        assert pit4 == pytest.approx(exact, rel=1e-3)

    def test_wide_ratio_fit_close_to_ml(self):
        # many groups keep the deviation scale identified; wide truncation
        # ratio makes the deviation law effectively normal, so from a good
        # initial the quadrature fit must land near the classical ML fit
        data, spec, truth = tiny_pit_problem(n=240, g=8)
        ml = fit_unconstrained(data, ModelSpec(alpha=(0,), constrained=False), "ML")
        initial = Parameters(beta=np.maximum(ml.beta, 0.0),
                             varsigma=np.maximum(ml.theta.varsigma, 1e-3),
                             sigma=ml.theta.sigma)
        pit = fit_pit(data, spec, q=4, initial=initial)
        np.testing.assert_allclose(pit.beta, ml.beta, atol=0.2)

    @pytest.mark.parametrize("beta, varsigma", [((0.072, 1.0, 1.0), (0.058, 0.058)),
                                                 ((0.072, 1.0), (0.058,)),
                                                 ((0.072, 1.0, 1.0, 1.0), ())])
    def test_initial_of_another_shape_rejected(self, beta, varsigma):
        sc = builtin_scenarios()["intercept-p3-n300"]
        data, _, _ = replication_data(sc, 0)
        initial = Parameters(beta=np.array(beta), varsigma=np.array(varsigma), sigma=1.0)
        want = (f"initial point has {len(beta)} beta and {len(varsigma)} varsigma entries, "
                "the model has p=3 and k=1")
        with pytest.raises(ValueError, match=want):
            fit_pit(data, sc.model_spec(), initial=initial)

    def test_underflow_diagnostic_large_groups(self):
        data, spec, truth = tiny_pit_problem(n=1040)  # 520 rows per group
        bd = BlockDesign(data, spec)
        x = np.concatenate([truth.beta, truth.varsigma, [math.log(truth.sigma)]])
        with pytest.raises(QuadratureUnderflowError):
            pit_objective(x, bd, spec, 2)
        with pytest.raises(QuadratureUnderflowError):
            fit_pit(data, spec, q=2)

    def test_rejects_multiple_random_effects(self, rng):
        data = make_dataset(rng, g=2, p=3)
        with pytest.raises(ValueError):
            fit_pit(data, ModelSpec(alpha=(0, 1)), q=2)


@functools.cache
def batch_problem():
    """A two-group, p = 2 PIT problem (20 rows per group) and its design."""
    data, spec, _ = tiny_pit_problem()
    return BlockDesign(data, spec), spec


def outcome(call):
    """What `call()` returns, or the member of NUMERICAL_FAILURES it raises."""
    try:
        return call()
    except NUMERICAL_FAILURES as exc:
        return exc


# (beta_alpha, beta_1, varsigma, log sigma): varsigma = 0 and beta_alpha = 0
# are drawn often; from about log sigma = -2.5 down, every node of a group
# underflows, and 800 overflows exp; the last row's |beta_alpha| / varsigma
# underflows to 0
PIT_ROWS = st.one_of(
    st.tuples(st.one_of(st.just(0.0), st.floats(-8.0, 8.0)), st.floats(-2.0, 2.0),
              st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
              st.one_of(st.floats(-6.0, 1.0), st.just(800.0))),
    st.just((1e-320, 0.5, 1e10, 0.0)),
)


class TestPitBatch:
    """pit_objective at R points is, row for row, bit-equal to each point alone."""

    @settings(max_examples=150, deadline=None)
    @given(rows=st.lists(PIT_ROWS, min_size=1, max_size=12), q=st.sampled_from([2, 4]),
           strict=st.booleans())
    def test_batch_equals_rows_alone(self, rows, q, strict):
        design, spec = batch_problem()
        X = np.array(rows)
        alone = [outcome(lambda: pit_objective(x, design, spec, q, strict)) for x in X]
        batch = outcome(lambda: pit_objective(X, design, spec, q, strict))
        first = next((got for got in alone if isinstance(got, Exception)), None)
        if first is None:
            assert batch.shape == (len(X),)
            assert [v.hex() for v in batch.tolist()] == [float(v).hex() for v in alone]
        else:
            assert type(batch) is type(first) and str(batch) == str(first)
            if isinstance(first, QuadratureUnderflowError):
                assert (batch.group_id, batch.log_max) == (first.group_id, first.log_max)

    def test_degenerate_and_penalized_rows_beside_valid_ones(self):
        design, spec = batch_problem()
        X = np.array([
            [5.0, 1.0, 0.5, 0.0],     # valid
            [5.0, 1.0, 0.0, 0.0],     # varsigma = 0
            [0.0, 1.0, 0.5, 0.0],     # beta_alpha = 0
            [5.0, 1.0, 0.5, -5.0],    # every node of a group underflows
        ])
        values = pit_objective(X, design, spec, 2, strict=False)
        assert values.tolist() == [pit_objective(x, design, spec, 2, strict=False)
                                   for x in X]
        assert values[3] == PIT_UNDERFLOW_PENALTY and np.isfinite(values).all()

    def test_strict_batch_raises_the_first_failing_rows_error(self):
        design, spec = batch_problem()
        X = np.array([[5.0, 1.0, 0.5, 0.0], [5.0, 1.0, 0.5, -4.0], [5.0, 1.0, 0.5, -5.0]])
        with pytest.raises(QuadratureUnderflowError) as first:
            pit_objective(X[1], design, spec, 2)
        with pytest.raises(QuadratureUnderflowError) as second:
            pit_objective(X[2], design, spec, 2)
        assert first.value.log_max != second.value.log_max
        with pytest.raises(QuadratureUnderflowError) as batch:
            pit_objective(X, design, spec, 2)
        assert (batch.value.group_id, batch.value.log_max) == \
            (first.value.group_id, first.value.log_max)

    def test_vanishing_truncation_ratio_is_a_value_not_an_error(self):
        # |beta_alpha| / varsigma = 1e-320 / 1e10 underflows to 0
        sc = builtin_scenarios()["intercept-p3-n300"]
        data, _, _ = replication_data(sc, 0)
        spec = sc.model_spec()
        design = BlockDesign(data, spec)
        x = np.array([1e-320, 0.5, 0.5, 1e10, 0.0])
        value = pit_objective(x, design, spec, 2, strict=False)
        at_zero = pit_objective(np.array([0.0, 0.5, 0.5, 1e10, 0.0]), design, spec, 2,
                                strict=False)
        assert math.isfinite(value) and value == at_zero
        X = np.array([[0.072, 1.0, 1.0, 0.058, 0.0], x, [0.1, 0.9, 1.1, 0.2, 0.1]])
        batch = pit_objective(X, design, spec, 2, strict=False)
        assert batch.tolist() == [pit_objective(row, design, spec, 2, strict=False)
                                  for row in X]
        assert batch[1] == value

    @settings(max_examples=60, deadline=None)
    @given(row=PIT_ROWS.filter(lambda row: row[3] < 700.0), q=st.sampled_from([2, 4]))
    def test_with_central_diff_is_value_and_central_diff_grad(self, row, q):
        design, spec = batch_problem()
        x = np.array(row)

        def one(point):
            return pit_objective(point, design, spec, q, strict=False)

        (value,), (grad,) = with_central_diff(
            lambda P: pit_objective(P, design, spec, q, strict=False))(x[None])
        assert float(value).hex() == float(one(x)).hex()
        want = central_diff_grad(one, x)
        assert [v.hex() for v in grad.tolist()] == [v.hex() for v in want.tolist()]

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(PIT_ROWS.filter(lambda row: row[3] < 700.0), min_size=2, max_size=6),
           q=st.sampled_from([2, 4]))
    def test_with_central_diff_rows_equal_each_row_alone(self, rows, q):
        design, spec = batch_problem()
        fun = with_central_diff(lambda P: pit_objective(P, design, spec, q, strict=False))
        X = np.array(rows)
        F, G = fun(X)
        assert F.shape == (len(X),) and G.shape == X.shape
        for i in range(len(X)):
            (f,), (grad,) = fun(X[i:i + 1])
            assert F[i].hex() == f.hex()
            assert [v.hex() for v in G[i].tolist()] == [v.hex() for v in grad.tolist()]


@functools.cache
def ragged_pit_problem():
    """Four groups of 1, 7, 40 and 250 rows (p = 2, a random intercept of
    variance 0.36, unit noise) and its design."""
    rng = np.random.default_rng(29)
    groups = []
    for ell, size in enumerate((1, 7, 40, 250)):
        X = np.column_stack([np.ones(size), rng.uniform(0.0, 2.0, size)])
        y = X @ [1.0, 0.5] + rng.normal(0.0, 0.6) + rng.normal(0.0, 1.0, size)
        groups.append(GroupData(f"g{ell}", y, X))
    spec = ModelSpec(alpha=(0,))
    return BlockDesign(Dataset(tuple(groups)), spec), spec


# (beta_alpha, beta_1, varsigma, log sigma) on `ragged_pit_problem`
RAGGED_POINTS = {
    "valid": (1.0, 0.5, 0.6, 0.0),
    "varsigma-0": (1.0, 0.5, 0.0, 0.0),
    "beta-alpha-0": (0.0, 0.5, 0.6, 0.0),
    "largest-group-underflows": (1.0, 0.5, 0.6, -1.1),
    "sigma-overflows": (1.0, 0.5, 0.6, 800.0),
}


class TestPitAgainstHistoricalLayout:
    """pit_objective gives the values and raises the errors of
    `dense.pit_objective`, its per-group (R, n_l, Q) loop, bit for bit."""

    @staticmethod
    def assert_same(X, q, strict):
        design, spec = ragged_pit_problem()
        got = outcome(lambda: pit_objective(X, design, spec, q, strict))
        want = outcome(lambda: dense.pit_objective(X, design, spec, q, strict))
        if isinstance(want, Exception):
            assert type(got) is type(want) and str(got) == str(want)
            if isinstance(want, QuadratureUnderflowError):
                assert (got.group_id, got.log_max) == (want.group_id, want.log_max)
        else:
            assert np.shape(got) == np.shape(want)
            assert [v.hex() for v in np.ravel(got).tolist()] == \
                [v.hex() for v in np.ravel(want).tolist()]
        return want

    @pytest.mark.parametrize("strict", [True, False])
    @pytest.mark.parametrize("R", [1, 11])
    @pytest.mark.parametrize("q", [2, 4])
    @pytest.mark.parametrize("point", list(RAGGED_POINTS))
    def test_points_and_their_central_difference_probes(self, point, q, R, strict):
        x = np.array(RAGGED_POINTS[point])
        want = self.assert_same(x if R == 1 else central_diff_probes(x)[0], q, strict)
        if point == "largest-group-underflows":
            assert (isinstance(want, QuadratureUnderflowError) and want.group_id == "g3"
                    if strict else np.all(want == PIT_UNDERFLOW_PENALTY))
        elif point == "sigma-overflows":
            assert isinstance(want, OverflowError)
        else:
            assert np.isfinite(want).all()

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(PIT_ROWS, min_size=1, max_size=11), q=st.sampled_from([2, 4]),
           strict=st.booleans())
    def test_mixed_batches(self, rows, q, strict):
        self.assert_same(np.array(rows), q, strict)


class TestExactSdtnLikelihood:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 8),
           log_varsigma=st.floats(-3.0, 2.0), log_rho=st.floats(-3.0, 1.0))
    def test_matches_quad(self, seed, n, log_varsigma, log_rho):
        # group sizes 1-8, varsigma from 1e-3 to 100, rho = b / varsigma from 1e-3 to 10
        rng = np.random.default_rng(seed)
        r = rng.normal(0.0, 1.5, size=n)
        z = np.ones(n) if seed % 2 else rng.gamma(2.0, 1.0, size=n)
        varsigma = 10.0 ** log_varsigma
        b = varsigma * 10.0 ** log_rho
        sigma = float(rng.uniform(0.3, 2.0))
        law = SdtnParams(0.0, varsigma, b / varsigma)
        exact = sdtn_group_loglik(r, z, varsigma, b, sigma)

        def integrand(g):  # the likelihood over the exact one: integrates to 1
            logs = (-0.5 * math.log(2 * math.pi) - math.log(sigma)
                    - 0.5 * ((r - z * g) / sigma) ** 2)
            return math.exp(float(np.sum(logs)) - exact) * sdtn_pdf(g, law)

        # breakpoints at both peaks, and 8 widths sigma / |z| either side of the
        # likelihood's: on a support much wider than that width, quad's first
        # nodes can all miss the likelihood peak and report a tiny error
        # (seed 0, n 1, varsigma 100, b 1000 integrated to 0.217)
        peak, width = float(z @ r) / float(z @ z), sigma / math.sqrt(float(z @ z))
        points = [g for g in (0.0, peak, peak - 8 * width, peak + 8 * width) if abs(g) < b]
        val, _ = integrate.quad(integrand, law.lower, law.upper, epsabs=0.0, epsrel=1e-13,
                                limit=200, points=points)
        assert abs(val - 1.0) <= 1e-10


class TestGlsOptimality:
    def test_profile_beta_minimizes_quadratic_form(self, rng):
        data = make_dataset(rng, g=3, p=3)
        spec = ModelSpec(alpha=(0, 1))
        theta = Theta(varsigma=np.array([0.5, 0.3]), sigma=1.2)
        beta_hat = profile_beta(theta, data, spec)
        _, _, V = dense_v(data, spec, theta)
        Vinv = np.linalg.inv(V)
        X = np.vstack([gd.X for gd in data.groups])
        y = np.concatenate([gd.y for gd in data.groups])

        def quad(beta):
            r = y - X @ beta
            return float(r @ Vinv @ r)

        base = quad(beta_hat)
        for _ in range(50):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            assert quad(beta_hat + 1e-3 * direction) >= base
            assert quad(beta_hat + 0.5 * direction) > base


# Each row: what raises, given a small k = 1 dataset and spec, the
# exception's exact type and a fragment of its message that names the field.
BASELINE_REJECTIONS = {
    "criterion": (lambda data, spec: fit_unconstrained(data, spec, criterion="PIT"),
                  ValueError, "criterion must be ML or REML, got 'PIT'"),
    "pit-two-columns": (lambda data, spec: fit_pit(data, ModelSpec(alpha=(0, 1))), ValueError,
                        "the quadrature baseline supports exactly one random-effect column, "
                        "got k=2"),
    "quadrature-order": (lambda data, spec: fit_pit(data, spec, q=3), ValueError,
                         "quadrature order must be one of [2, 4], got 3"),
}


@pytest.mark.parametrize("name", BASELINE_REJECTIONS)
def test_baseline_boundary_rejections(rng, name):
    assert_rejects(*BASELINE_REJECTIONS[name], make_dataset(rng, g=3, p=2), ModelSpec(alpha=(0,)))
