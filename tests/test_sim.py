import functools
import math
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest
from scipy import stats

from dataclasses import replace

from conftest import assert_rejects
from cslme import baseline, estimate, ranef, sim
from cslme.baseline import fit_pit, fit_unconstrained
from cslme.metrics import r_squared
from cslme.model import (
    NUMERICAL_FAILURES,
    BlockDesign,
    BlockSolve,
    Dataset,
    GroupData,
    ModelSpec,
    Parameters,
    re_variances,
)
from cslme.optim import minimize_newton, minimize_starts
from cslme.sdtn import variance_factor
from cslme.sim import (
    ALL_METHODS,
    ContourRequest,
    Scenario,
    builtin_scenarios,
    contour_grid,
    deviation_sd,
    fit_method,
    gen_design,
    gen_response,
    group_sizes,
    minimize_labels,
    replication_data,
    run_scenario,
    table_values,
)
from cslme.estimate import FitConfig, fit, pls_objective, prls_objective


def with_label(params, spec, label, value):
    """`params` with the entry named `label` (beta<j>, varsigma<col>, sigma) set."""
    if label == "sigma":
        return replace(params, sigma=value)
    name, i = (("beta", int(label[4:])) if label.startswith("beta")
               else ("varsigma", spec.alpha.index(int(label[8:]))))
    values = getattr(params, name).copy()
    values[i] = value
    return replace(params, **{name: values})


def scenario(n=300, seed=1, replications=1, beta=(0.072, 1.0, 1.0), vs=(0.058,)):
    truth = Parameters(beta=np.asarray(beta), varsigma=np.asarray(vs), sigma=1.0)
    return Scenario(n=n, p=3, g=2, alpha=(0,), truth=truth,
                    replications=replications, seed=seed)


class TestGenDesign:
    def test_gamma_column_moments(self):
        sc = scenario(n=100_000, seed=2)
        col = np.concatenate([X[:, 1] for X in gen_design(sc)])
        assert col.mean() == pytest.approx(2.0, abs=3 * math.sqrt(2 / 1e5))
        assert col.var() == pytest.approx(2.0, rel=0.05)
        assert np.all(col > 0)

    def test_intercept_column(self):
        for X in gen_design(scenario(n=50)):
            np.testing.assert_array_equal(X[:, 0], 1.0)

    def test_deterministic(self):
        a = gen_design(scenario(n=200, seed=9))
        b = gen_design(scenario(n=200, seed=9))
        for Xa, Xb in zip(a, b, strict=True):
            np.testing.assert_array_equal(Xa, Xb)

    def test_group_allocation(self):
        assert group_sizes(10, 3) == [4, 3, 3]
        assert group_sizes(9, 3) == [3, 3, 3]
        assert group_sizes(7, 2) == [4, 3]

    def test_group_without_response_rejected(self):
        X = gen_design(scenario(n=40))[0]
        with pytest.raises(ValueError, match="group 1: no response"):
            GroupData(group_id=1, y=None, X=X)

    @pytest.mark.parametrize("fit_call", [
        lambda d, sc: fit(d, sc.model_spec()),
        lambda d, sc: fit_unconstrained(d, sc.model_spec()),
        lambda d, sc: fit_pit(d, sc.model_spec()),
        lambda d, sc: pls_objective(sc.truth, d, sc.model_spec()),
        lambda d, sc: ranef.solve_all(d, sc.truth, sc.model_spec()),
        lambda d, sc: r_squared(sc.truth, d, sc.model_spec()),
        lambda d, sc: contour_grid(ContourRequest("PLS", ("beta0", "beta1"),
                                                  ((0.0, 1.0, 2), (0.0, 1.0, 2)), sc.truth),
                                   d, sc.model_spec()),
    ], ids=["fit", "fit_unconstrained", "fit_pit", "pls_objective", "solve_all",
            "r_squared", "contour_grid"])
    def test_block_design_rejected(self, fit_call):
        sc = scenario(n=40)
        data, _ = gen_response(gen_design(sc), sc.truth, sc.model_spec(), seed=1)
        with pytest.raises(TypeError, match="expected a Dataset, got BlockDesign"):
            fit_call(BlockDesign(data, sc.model_spec()), sc)


class TestReplicationData:
    def test_children_of_the_replication_seed(self):
        sc = scenario(n=80, seed=12)
        data, gamma, fit_seed = replication_data(sc, 3)
        design_seed, response_seed, fit_entropy = np.random.SeedSequence([12, 3]).spawn(3)
        expected, expected_gamma = gen_response(gen_design(sc, seed=design_seed), sc.truth,
                                                sc.model_spec(), response_seed)
        for ga, gb in zip(data.groups, expected.groups):
            np.testing.assert_array_equal(ga.X, gb.X)
            np.testing.assert_array_equal(ga.y, gb.y)
        np.testing.assert_array_equal(gamma.gamma, expected_gamma.gamma)
        assert fit_seed == int(fit_entropy.generate_state(1)[0])


class TestGenResponse:
    def test_zero_scale_truth(self):
        sc = scenario(vs=(0.0,))
        spec = sc.model_spec()
        data, gamma = gen_response(gen_design(sc), sc.truth, spec, seed=4)
        np.testing.assert_array_equal(gamma.gamma, 0.0)

    def test_overall_coefficients_nonnegative(self):
        sc = scenario(n=100)
        spec = sc.model_spec()
        for rep in range(50):
            _, gamma = gen_response(gen_design(sc, seed=rep), sc.truth, spec, seed=rep)
            overall = sc.truth.beta[0] + gamma.gamma[:, 0]
            assert np.all(overall >= 0.0)
            assert np.all(overall <= 2 * sc.truth.beta[0])

    def test_deviation_sd_matches_formula(self):
        truth = Parameters(beta=np.array([1.0, 1.0]), varsigma=np.array([0.6]),
                           sigma=1.0)
        sc = Scenario(n=20_000, p=2, g=10_000, alpha=(0,), truth=truth, seed=3)
        spec = sc.model_spec()
        _, gamma = gen_response(gen_design(sc), truth, spec, seed=8)
        expected = 0.6 * math.sqrt(variance_factor(1.0 / 0.6))
        assert gamma.gamma[:, 0].std() == pytest.approx(expected, rel=0.02)
        assert deviation_sd(None, 1.0, 0.6) == pytest.approx(expected, rel=1e-12)
        assert deviation_sd("PLS", 1.0, 0.6) == deviation_sd(None, 1.0, 0.6)

    def test_model_identity_residuals_normal(self):
        sc = scenario(n=10_000, seed=6)
        spec = sc.model_spec()
        design = gen_design(sc)
        data, gamma = gen_response(design, sc.truth, spec, seed=7)
        resid = []
        for ell, gd in enumerate(data.groups):
            mean = gd.X @ sc.truth.beta + gd.X[:, [0]] @ gamma.gamma[ell]
            resid.append(gd.y - mean)
        resid = np.concatenate(resid)
        assert stats.kstest(resid, "norm").pvalue > 0.01

    @pytest.mark.parametrize("alpha, match", [((5,), r"alpha \(5,\) out of range for p=3"),
                                              ((3,), "out of range"),
                                              ((-1,), "nonnegative"),
                                              ((1, 0), "strictly increasing")],
                             ids=["above-p", "at-p", "negative", "decreasing"])
    def test_bad_alpha_rejected_by_the_scenario(self, alpha, match):
        truth = Parameters(beta=np.array([0.072, 1.0, 1.0]), varsigma=np.full(len(alpha), 0.05),
                           sigma=1.0)
        with pytest.raises(ValueError, match=match):
            Scenario(n=30, p=3, g=2, alpha=alpha, truth=truth)

    def test_requires_nonnegative_truth(self):
        sc = scenario()
        bad = Parameters(beta=np.array([-0.1, 1.0, 1.0]),
                         varsigma=np.array([0.05]), sigma=1.0)
        with pytest.raises(ValueError):
            gen_response(gen_design(sc), bad, sc.model_spec(), seed=1)


class TestTables:
    point = Parameters(beta=np.array([0.5, 1.0, 2.0]), varsigma=np.array([0.2]), sigma=0.9)

    def test_labels_intercept_only(self):
        spec = ModelSpec(alpha=(0,))
        vals = table_values(self.point, np.array([[0.1], [-0.2]]), spec)
        assert list(vals) == ["overall_g1_b0", "overall_g2_b0", "beta1", "beta2",
                              "s_gamma0", "sigma"]

    def test_values_roundtrip(self):
        spec = ModelSpec(alpha=(0,))
        vals = table_values(self.point, np.array([[0.1], [-0.2]]), spec)
        assert vals["overall_g1_b0"] == pytest.approx(0.6)
        assert vals["overall_g2_b0"] == pytest.approx(0.3)
        assert vals["beta1"] == 1.0
        assert vals["sigma"] == 0.9
        assert vals["s_gamma0"] == deviation_sd(None, 0.5, 0.2)
        assert vals["s_gamma0"] == pytest.approx(0.2 * math.sqrt(variance_factor(2.5)))

    def test_normal_re_mode(self):
        spec = ModelSpec(alpha=(0,))
        for method in sim.NORMAL_METHODS:
            vals = table_values(self.point, np.zeros((2, 1)), spec, method)
            assert vals["s_gamma0"] == 0.2
        assert table_values(self.point, np.zeros((2, 1)), spec, "PRLS")["s_gamma0"] < 0.2

    def test_underflowing_ratio_reports_nan(self):
        # |beta| / varsigma underflows to 0: NaN, by the rule of re_variances
        assert np.isnan(re_variances([1e-320], [1e10], (0,))).all()
        assert math.isnan(deviation_sd("PLS", 1e-320, 1e10))
        assert math.isnan(deviation_sd(None, -1e-320, 1e10))
        assert deviation_sd("REML", 1e-320, 1e10) == 1e10
        point = replace(self.point, beta=np.array([1e-320, 1.0, 2.0]),
                        varsigma=np.array([1e10]))
        vals = table_values(point, np.zeros((2, 1)), ModelSpec(alpha=(0,)), "PRLS")
        assert math.isnan(vals["s_gamma0"]) and vals["sigma"] == 0.9


class TestRunScenario:
    def test_single_rep_smoke_recovers_truth(self):
        truth = Parameters(beta=np.array([1.0, 0.8, 1.2]),
                           varsigma=np.array([0.0]), sigma=0.5)
        sc = Scenario(n=800, p=3, g=2, alpha=(0,), truth=truth,
                      replications=1, seed=42)
        res = run_scenario(sc, methods=("PLS",))
        rec = res.records["PLS"][0]
        assert rec["estimates"]["beta1"] == pytest.approx(0.8, abs=0.1)
        assert rec["estimates"]["beta2"] == pytest.approx(1.2, abs=0.1)
        assert rec["estimates"]["sigma"] == pytest.approx(0.5, abs=0.1)

    def test_deterministic_across_runs(self):
        sc = scenario(n=120, replications=3, seed=77)
        a = run_scenario(sc, methods=("PLS", "REML"))
        b = run_scenario(sc, methods=("PLS", "REML"))
        for m in ("PLS", "REML"):
            for ra, rb in zip(a.records[m], b.records[m]):
                assert ra["estimates"] == rb["estimates"]
                assert ra["rmse"] == rb["rmse"]

    def test_parallel_matches_serial(self, monkeypatch):
        sc = scenario(n=80, replications=4, seed=5)
        serial = run_scenario(sc, methods=("PLS",))
        monkeypatch.setenv("CSLME_THREADS", "2")
        parallel = run_scenario(sc, methods=("PLS",))
        for ra, rb in zip(serial.records["PLS"], parallel.records["PLS"]):
            assert ra["estimates"] == rb["estimates"]

    def test_ml_rmse_shrinks_with_n(self):
        truth = Parameters(beta=np.array([1.0, 1.0, 1.0]),
                           varsigma=np.array([0.0]), sigma=1.0)
        medians = []
        for n in (500, 2000, 8000):
            sc = Scenario(n=n, p=3, g=2, alpha=(0,), truth=truth,
                          replications=5, seed=101)
            res = run_scenario(sc, methods=("ML",))
            medians.append(res.summary("ML")["rmse_core_median"])
        assert medians[2] < medians[0]

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            run_scenario(scenario(), methods=("BOGUS",))

    @pytest.mark.parametrize("methods, settings, match", [
        (("PLS", "PIT"), {"pit_q": 3}, "quadrature order"),
        (("REML", "PRLS"), {"n_starts": 0}, "n_starts"),
    ], ids=["pit_q", "n_starts"])
    def test_bad_settings_rejected_before_any_fit(self, monkeypatch, methods, settings,
                                                  match):
        monkeypatch.setenv("CSLME_THREADS", "1")

        def no_fit(*args, **kwargs):
            pytest.fail("a replication ran before the settings were checked")

        monkeypatch.setattr(sim, "fit_method", no_fit)
        with pytest.raises(ValueError, match=match):
            run_scenario(scenario(n=60, replications=2), methods=methods, **settings)

    def test_singular_design_recorded_not_raised(self, monkeypatch):
        monkeypatch.delenv("CSLME_THREADS", raising=False)
        natural_design = sim.gen_design

        def duplicated_column(scenario, seed=None):
            return tuple(X[:, [0, 1, 1]] for X in natural_design(scenario, seed))

        monkeypatch.setattr(sim, "gen_design", duplicated_column)
        res = run_scenario(scenario(n=60, replications=2, seed=4), methods=("ML", "REML"))
        for m in ("ML", "REML"):
            assert res.summary(m) == {"method": m, "n_ok": 0, "n_failed": 2}
            assert all(msg.startswith("ConvergenceError") for _, msg in res.failures[m])

    def test_pit_overflow_recorded_not_raised(self, monkeypatch):
        monkeypatch.delenv("CSLME_THREADS", raising=False)

        def overflowing(*args, **kwargs):
            return math.exp(800.0)  # as pit_objective at an unbounded log sigma

        monkeypatch.setattr(sim, "fit_pit", overflowing)
        res = run_scenario(scenario(n=60, replications=2, seed=4), methods=ALL_METHODS)
        assert res.summary("PIT") == {"method": "PIT", "n_ok": 0, "n_failed": 2}
        assert all(msg.startswith("OverflowError") for _, msg in res.failures["PIT"])
        for m in ("PLS", "PRLS", "ML", "REML"):
            assert res.summary(m)["n_ok"] == 2 and res.failures[m] == []

    def test_qp_iteration_cap_recorded_not_raised(self, monkeypatch):
        monkeypatch.delenv("CSLME_THREADS", raising=False)
        # _box_qp iterates over range(cap); a zero cap makes every group QP
        # with a live coordinate reach it at once
        monkeypatch.setattr(ranef, "range", lambda cap: range(0), raising=False)
        # six groups keep every fitted deviation scale above 0, so each fit has one
        truth = Parameters(beta=np.ones(3), varsigma=np.array([0.5]), sigma=1.0)
        sc = Scenario(n=120, p=3, g=6, alpha=(0,), truth=truth, replications=2, seed=4)
        res = run_scenario(sc, methods=ALL_METHODS)
        for m in ("PLS", "PRLS", "PIT"):  # their deviations solve the group QPs
            assert res.summary(m)["n_failed"] == 2
            assert all(msg == "ConvergenceError: active-set QP did not terminate"
                       for _, msg in res.failures[m])
        for m in ("ML", "REML"):  # closed-form deviations
            assert res.summary(m)["n_ok"] == 2 and res.failures[m] == []

    def test_pit_with_three_random_columns_rejected_before_any_fit(self, monkeypatch):
        fits = []
        monkeypatch.setattr(sim, "fit_method", lambda *args, **kw: fits.append(args))
        sc = builtin_scenarios()["full-p3-n500"]
        with pytest.raises(ValueError, match="exactly one random-effect column, got k=3"):
            run_scenario(sc, methods=("PLS", "PIT"))
        assert fits == []

    def test_fits_at_the_uniform_limit_counted(self):
        # in replications 0-7 of intercept-p3-n300, PRLS ends with the
        # intercept's variance share at Q_MAX in replications 2 and 7, PLS in 7
        sc = replace(builtin_scenarios()["intercept-p3-n300"], replications=8)
        res = run_scenario(sc, methods=("PLS", "PRLS", "REML"))
        for method, reps in (("PLS", [7]), ("PRLS", [2, 7]), ("REML", [])):
            recs = res.records[method]
            assert len(recs) == 8
            assert [r for r, rec in enumerate(recs) if rec["at_limit"]] == reps
            assert res.summary(method)["n_at_limit"] == len(reps)
            assert (method, "n_at_limit", "", str(len(reps)), "") in res.table_rows()
            for r in reps:
                assert (recs[r]["r2_marginal"], recs[r]["r2_conditional"]) == (0.0, 1.0)

    def test_failures_reported(self):
        # PIT on large per-group sizes fails with the underflow diagnostic
        truth = Parameters(beta=np.array([1.0, 1.0]), varsigma=np.array([0.3]),
                           sigma=1.0)
        sc = Scenario(n=1200, p=2, g=2, alpha=(0,), truth=truth,
                      replications=1, seed=3)
        res = run_scenario(sc, methods=("PIT",))
        assert res.summary("PIT")["n_failed"] == 1
        assert "Underflow" in res.failures["PIT"][0][1]


class TestFitMethod:
    @staticmethod
    def direct(method, data, spec):
        if method in ("PLS", "PRLS"):
            return fit(data, spec, FitConfig(method=method, n_starts=3, seed=7))
        if method in ("ML", "REML"):
            return fit_unconstrained(data, replace(spec, constrained=False), method,
                                     seed=7)
        return fit_pit(data, spec, q=4)

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_same_fit_as_the_direct_call(self, method):
        sc = scenario(n=60, seed=3)
        spec = sc.model_spec()
        data, _ = gen_response(gen_design(sc), sc.truth, spec, seed=2)
        got = fit_method(method.lower(), data, spec, seed=7, n_starts=3, pit_q=4)
        want = self.direct(method, data, spec)
        for name in ("beta", "varsigma", "sigma"):
            assert np.array_equal(getattr(got.params, name), getattr(want.params, name))
        assert np.array_equal(got.gamma.gamma, want.gamma.gamma)

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_n_eval_counts_the_objective_calls(self, monkeypatch, method):
        calls = [0]  # evaluated points: the rows of every batch

        def counting(minimize):
            def counted_minimize(fun, *args, **kwargs):
                def counted(X):
                    calls[0] += len(X)
                    return fun(X)

                return minimize(counted, *args, **kwargs)

            return counted_minimize

        monkeypatch.setattr(estimate, "minimize_newton", counting(minimize_newton))
        monkeypatch.setattr(baseline, "minimize_starts", counting(minimize_starts))
        sc = scenario(n=60, seed=3)
        spec = sc.model_spec()
        data, _ = gen_response(gen_design(sc), sc.truth, spec, seed=2)
        res = fit_method(method, data, spec, seed=7, n_starts=3)
        assert res.n_eval == calls[0] > 0

    def test_unknown_method_rejected(self):
        sc = scenario(n=60, seed=3)
        data, _ = gen_response(gen_design(sc), sc.truth, sc.model_spec(), seed=2)
        with pytest.raises(ValueError, match="BOGUS"):
            fit_method("BOGUS", data, sc.model_spec())


class TestContour:
    def test_single_cell_equals_direct_call(self):
        sc = scenario(n=100, seed=12)
        spec = sc.model_spec()
        data, _ = gen_response(gen_design(sc), sc.truth, spec, seed=2)
        req = ContourRequest(objective="PLS", vary=("beta1", "beta2"),
                             ranges=((1.0, 1.0, 1), (1.0, 1.0, 1)),
                             fixed=sc.truth)
        grid = contour_grid(req, data, spec)
        assert grid.shape == (1, 3)
        point = with_label(with_label(sc.truth, spec, "beta1", 1.0), spec, "beta2", 1.0)
        assert grid[0, 2] == pytest.approx(pls_objective(point, data, spec),
                                           rel=1e-12)

    def test_minimum_near_truth_large_n(self):
        sc = scenario(n=4000, seed=31)
        spec = sc.model_spec()
        data, _ = gen_response(gen_design(sc), sc.truth, spec, seed=5)
        req = ContourRequest(objective="PLS", vary=("beta1", "beta2"),
                             ranges=((0.0, 2.0, 21), (0.0, 2.0, 21)),
                             fixed=sc.truth)
        grid = contour_grid(req, data, spec)
        best = grid[np.nanargmin(grid[:, 2])]
        assert abs(best[0] - 1.0) <= 0.1 + 1e-12
        assert abs(best[1] - 1.0) <= 0.1 + 1e-12

    @staticmethod
    def per_point(req, data, spec):
        """The objective cell by cell, NaN where the per-point call raises."""
        objective = {"PLS": pls_objective, "PRLS": prls_objective}[req.objective]
        (lo1, hi1, s1), (lo2, hi2, s2) = req.ranges
        out = []
        for v1 in np.linspace(lo1, hi1, s1):
            for v2 in np.linspace(lo2, hi2, s2):
                try:
                    point = with_label(req.fixed, spec, req.vary[0], float(v1))
                    point = with_label(point, spec, req.vary[1], float(v2))
                    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                        out.append(objective(point, data, spec))
                except (ValueError, *NUMERICAL_FAILURES):
                    out.append(np.nan)
        return np.array(out)

    def test_grid_shape_and_failed_cells(self):
        sc = scenario(n=60, seed=3)
        spec = sc.model_spec()
        data, _ = gen_response(gen_design(sc), sc.truth, spec, seed=2)
        req = ContourRequest(objective="PRLS", vary=("beta1", "sigma"),
                             ranges=((0.0, 1.0, 3), (-1.0, 1.0, 4)),
                             fixed=sc.truth)
        grid = contour_grid(req, data, spec)
        assert grid.shape == (12, 3)
        # sigma <= 0 cells must be recorded as NaN, not raised
        bad = grid[grid[:, 1] <= 0]
        assert np.all(np.isnan(bad[:, 2]))
        # NaN exactly where the per-point call raises (sigma <= 0, varsigma < 0,
        # sigma^2 or |beta| / varsigma underflowing to 0), every other cell equal to it
        for objective in ("PLS", "PRLS"):
            for vary, ranges in [(("beta1", "sigma"), ((0.0, 1.0, 3), (-1.0, 1.0, 4))),
                                 (("varsigma0", "beta0"), ((-0.05, 0.1, 4), (-0.1, 0.2, 5))),
                                 (("sigma", "varsigma0"), ((1e-300, 2.0, 4), (0.0, 0.3, 3))),
                                 (("beta0", "varsigma0"), ((1e-320, 1e-300, 3), (1e9, 1e10, 2)))]:
                req = ContourRequest(objective=objective, vary=vary, ranges=ranges,
                                     fixed=sc.truth)
                grid = contour_grid(req, data, spec)
                (lo1, hi1, s1), (lo2, hi2, s2) = ranges
                np.testing.assert_array_equal(
                    grid[:, 0], np.repeat(np.linspace(lo1, hi1, s1), s2))
                np.testing.assert_array_equal(
                    grid[:, 1], np.tile(np.linspace(lo2, hi2, s2), s1))
                ref = self.per_point(req, data, spec)
                np.testing.assert_array_equal(np.isnan(grid[:, 2]), np.isnan(ref))
                assert np.isnan(ref).any() and not np.isnan(ref).all()
                np.testing.assert_allclose(grid[:, 2], ref, rtol=1e-12)

    def test_failing_and_valid_cells_in_one_chunk(self, monkeypatch):
        # a chunk that raises is evaluated cell by cell; small chunks mix cells
        # that raise (PRLS: d overflows, X^T V^-1 X singular) with valid ones
        sc = scenario(n=60, seed=3)
        spec = sc.model_spec()
        data, _ = gen_response(gen_design(sc), sc.truth, spec, seed=2)
        for objective, vary, ranges in [
                ("PRLS", ("varsigma0", "beta1"), ((0.5, 3e154, 4), (0.5, 1.5, 3))),
                ("PLS", ("sigma", "varsigma0"), ((1e-300, 2.0, 4), (0.0, 0.3, 3)))]:
            req = ContourRequest(objective=objective, vary=vary, ranges=ranges,
                                 fixed=sc.truth)
            ref = self.per_point(req, data, spec)
            assert np.isnan(ref).any() and not np.isnan(ref).all()
            for cells in (1, 2, 4, 5):
                monkeypatch.setattr(sim, "CONTOUR_CHUNK", cells * data.n)
                np.testing.assert_array_equal(contour_grid(req, data, spec)[:, 2], ref)

    def test_duplicated_design_column(self):
        # X^T V^-1 X is singular at every cell: no PRLS value, every PLS value
        sc = scenario(n=60, seed=3)
        spec = sc.model_spec()
        data, _ = gen_response(gen_design(sc), sc.truth, spec, seed=2)
        dup = Dataset(tuple(GroupData(gd.group_id, gd.y, gd.X[:, [0, 1, 1]])
                            for gd in data.groups))
        for objective in ("PLS", "PRLS"):
            req = ContourRequest(objective=objective, vary=("beta0", "beta1"),
                                 ranges=((0.0, 0.2, 4), (0.5, 1.5, 3)), fixed=sc.truth)
            values = contour_grid(req, dup, spec)[:, 2]
            if objective == "PRLS":
                assert np.all(np.isnan(values))
            else:
                assert np.all(np.isfinite(values))
                np.testing.assert_allclose(values, self.per_point(req, dup, spec), rtol=1e-12)

    @pytest.mark.parametrize("vary", [("beta9", "sigma"), ("varsigma1", "sigma"),
                                      ("beta0", "bogus")])
    def test_unknown_vary_label_rejected(self, vary):
        sc = scenario()
        data, _ = gen_response(gen_design(sc), sc.truth, sc.model_spec(), seed=2)
        req = ContourRequest(objective="PLS", vary=vary,
                             ranges=((0.0, 1.0, 3), (0.5, 1.0, 3)), fixed=sc.truth)
        with pytest.raises(ValueError, match="unknown parameter"):
            contour_grid(req, data, sc.model_spec())

    @pytest.mark.parametrize("beta, varsigma", [((0.072, 1.0), (0.058,)),
                                                ((0.072, 1.0, 1.0), (0.058, 0.3)),
                                                ((np.nan, 1.0, 1.0), (0.058,)),
                                                ((0.072, 1.0, 1.0), (np.inf,))])
    def test_bad_fixed_point_rejected(self, beta, varsigma):
        sc = scenario()
        data, _ = gen_response(gen_design(sc), sc.truth, sc.model_spec(), seed=2)
        if not (np.isfinite(beta).all() and np.isfinite(varsigma).all()):
            # a non-finite point is never built, so it cannot reach the grid
            with pytest.raises(ValueError, match="must be finite"):
                Parameters(beta=np.array(beta), varsigma=np.array(varsigma), sigma=1.0)
            return
        fixed = Parameters(beta=np.array(beta), varsigma=np.array(varsigma), sigma=1.0)
        req = ContourRequest(objective="PLS", vary=("beta0", "sigma"),
                             ranges=((0.0, 1.0, 3), (0.5, 1.0, 3)), fixed=fixed)
        with pytest.raises(ValueError, match="fixed point"):
            contour_grid(req, data, sc.model_spec())

    @pytest.mark.parametrize("bad", [(0.1, 0.2, 2.7), (0.1, 0.2, 1.5), (0.0, np.inf, 3),
                                     (0.1, 0.2, 1), (0.1, 0.2, np.nan)])
    def test_bad_range_rejected(self, bad):
        sc = scenario()
        with pytest.raises(ValueError):
            ContourRequest(objective="PLS", vary=("beta1", "beta2"),
                           ranges=((0.0, 1.0, 3), bad), fixed=sc.truth)

    def test_whole_float_steps_and_same_label_twice(self):
        sc = scenario()
        req = ContourRequest(objective="PLS", vary=("beta1", "beta2"),
                             ranges=((0.0, 1.0, 3.0), (0.5, 1.0, 2)), fixed=sc.truth)
        assert req.ranges == ((0.0, 1.0, 3), (0.5, 1.0, 2))
        assert isinstance(req.ranges[0][2], int)
        with pytest.raises(ValueError, match="differ"):
            ContourRequest(objective="PLS", vary=("beta1", "beta1"),
                           ranges=((0.0, 1.0, 3), (0.5, 1.0, 2)), fixed=sc.truth)

    def test_large_grid_allocates_no_cells_by_rows_array(self):
        sc = builtin_scenarios()["intercept-p7-n4000"]
        spec = sc.model_spec()
        data, _ = gen_response(gen_design(sc, seed=1), sc.truth, spec, seed=2)
        req = ContourRequest(objective="PRLS", vary=("beta1", "varsigma0"),
                             ranges=((0.5, 1.5, 60), (0.1, 1.0, 60)), fixed=sc.truth)
        tracemalloc.start()
        try:
            grid = contour_grid(req, data, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(grid[:, 2]))
        # one (cells, n) float array would take 3600 * 4000 * 8 B = 115 MB
        assert peak < 50e6


@functools.cache
def labeled_search_objective(labels, method):
    """The batch objective `minimize_labels` hands to `minimize_starts` on
    `merit-n30` replication 0."""
    sc = builtin_scenarios()["merit-n30"]
    data, _, _ = replication_data(sc, 0)
    seen = []

    def recording(fun, *args, **kwargs):
        seen.append(fun)
        return minimize_starts(fun, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "minimize_starts", recording)
        minimize_labels(data, sc.model_spec(), sc.truth, labels, method=method)
    return seen[0]


class TestMinimizeLabels:
    def test_constrained_profile_minimization(self):
        sc = scenario(n=30, seed=8, beta=(0.072, 0.001, 0.001))
        spec = sc.model_spec()
        data, _ = gen_response(gen_design(sc), sc.truth, spec, seed=9)
        free_vals, free_obj = minimize_labels(
            data, replace(spec, constrained=False), sc.truth, ("beta1", "beta2"))
        con_vals, con_obj = minimize_labels(data, spec, sc.truth, ("beta1", "beta2"))
        assert free_vals["beta2"] < 0.0  # the spec's own sign constraint, not a default
        assert con_obj >= free_obj - 1e-9
        assert con_vals["beta1"] >= 0.0
        assert con_vals["beta2"] >= 0.0

    @pytest.mark.parametrize("labels", [("beta1", "beta2"), ("varsigma0", "sigma"),
                                        ("beta0", "beta2")])
    def test_each_step_is_one_solve_of_all_its_probes(self, monkeypatch, labels):
        # beta1 and beta2 carry no deviation (alpha = (0,)), so only their probes
        # share V; varsigma0, sigma and beta0 move it
        sc = scenario(n=30, seed=8, beta=(0.072, 0.001, 0.001))
        spec = sc.model_spec()
        data, _ = gen_response(gen_design(sc), sc.truth, spec, seed=9)
        built = []
        init = BlockSolve.__init__

        def recording(self, design, d, sigma):
            built.append(np.shape(sigma))
            init(self, design, d, sigma)

        monkeypatch.setattr(BlockSolve, "__init__", recording)
        minimize_labels(data, spec, sc.truth, labels)
        assert len(built) > 1 and set(built) == {(1 + 2 * len(labels),)}

    def test_unknown_label_rejected(self):
        sc = scenario()
        data, _ = gen_response(gen_design(sc), sc.truth, sc.model_spec(), seed=2)
        for label in ("beta9", "varsigma1", "bogus"):  # alpha = (0,)
            with pytest.raises(ValueError, match=f"unknown parameter '{label}'"):
                minimize_labels(data, sc.model_spec(), sc.truth, ("beta1", label))

    def test_repeated_label_rejected(self):
        sc = builtin_scenarios()["merit-n30"]
        data, _, _ = replication_data(sc, 0)
        spec = sc.model_spec()
        with pytest.raises(ValueError, match="labels must be distinct"):
            minimize_labels(data, spec, sc.truth, ["beta1", "beta1"])
        with pytest.raises(ValueError, match="labels must be distinct"):
            minimize_labels(data, spec, sc.truth, ["beta0", "sigma", "beta0"])

    @pytest.mark.parametrize("labels, x0", [(["beta1", "beta2"], [0.1]),
                                            (["beta1"], [0.1, 0.2]),
                                            (["beta1", "sigma"], [0.1, 0.2, 0.0])])
    def test_x0_of_another_length_rejected(self, labels, x0):
        sc = builtin_scenarios()["merit-n30"]
        data, _, _ = replication_data(sc, 0)
        want = f"got {len(x0)} for {len(labels)} labels"
        with pytest.raises(ValueError, match=want):
            minimize_labels(data, sc.model_spec(), sc.truth, labels, x0=x0)

    @settings(max_examples=40, deadline=None)
    @given(labels=st.sampled_from([("beta1", "beta2"), ("varsigma0", "sigma"),
                                   ("beta0", "varsigma0"), ("beta1",)]),
           method=st.sampled_from(["PLS", "PRLS"]), seed=st.integers(0, 2 ** 32 - 1),
           rows=st.integers(2, 5))
    def test_batch_rows_equal_each_row_alone(self, labels, method, seed, rows):
        fun = labeled_search_objective(labels, method)
        # beta and varsigma in [0, 1.5], log sigma in [-1, 1]
        X = np.random.default_rng(seed).uniform(0.0, 1.5, size=(rows, len(labels)))
        if "sigma" in labels:
            X[:, labels.index("sigma")] -= 0.75
        F, G = fun(X)
        assert F.shape == (rows,) and G.shape == X.shape
        for i in range(rows):
            (f,), (grad,) = fun(X[i:i + 1])
            assert F[i].hex() == f.hex()
            assert [v.hex() for v in G[i].tolist()] == [v.hex() for v in grad.tolist()]

    @pytest.mark.parametrize("constrained", [True, False])
    def test_scale_search_at_its_bound(self, constrained):
        # the central-difference probe at varsigma = 0 steps below 0, which
        # the objective reads through |varsigma| as the fits do
        base = builtin_scenarios()["intercept-p3-n300"]
        spec = base.model_spec()
        for seed in range(12):
            sc = replace(base, seed=seed)
            data, _ = gen_response(gen_design(sc), sc.truth, spec, seed)
            values, value = minimize_labels(data, replace(spec, constrained=constrained),
                                            sc.truth, ("varsigma0",))
            assert values["varsigma0"] >= 0.0 and np.isfinite(value)

    def test_sigma_label_reads_back_on_natural_scale(self):
        sc = scenario(n=60, seed=3)
        spec = sc.model_spec()
        data, _ = gen_response(gen_design(sc), sc.truth, spec, seed=2)
        values, value = minimize_labels(data, spec, sc.truth, ("beta1", "sigma"))
        assert values["sigma"] > 0.0
        fixed = replace(sc.truth, beta=np.array([0.072, values["beta1"], 1.0]),
                        sigma=values["sigma"])
        assert value == pytest.approx(pls_objective(fixed, data, spec), rel=1e-12)


class TestBuiltins:
    def test_registry_contents(self):
        reg = builtin_scenarios()
        assert "intercept-p3-n300" in reg
        assert "merit-n30" in reg
        sc = reg["intercept-p3-n300"]
        assert (sc.n, sc.p, sc.g) == (300, 3, 2)
        assert sc.truth.beta[0] == pytest.approx(0.072)


class TestNoIntercept:
    def test_design_without_intercept_column(self):
        truth = Parameters(beta=np.array([1.0, 0.5]), varsigma=np.array([0.2]),
                           sigma=1.0)
        sc = Scenario(n=60, p=2, g=2, alpha=(0,), truth=truth, seed=4,
                      intercept=False)
        designs = gen_design(sc)
        assert [X.shape[1] for X in designs] == [2, 2]
        col0 = np.concatenate([X[:, 0] for X in designs])
        assert not np.allclose(col0, 1.0)
        assert np.all(col0 > 0)


def _request(**fields):
    """A PLS ContourRequest over beta1 and beta2 of `scenario()`'s truth, with
    `fields` replaced."""
    base = dict(objective="PLS", vary=("beta1", "beta2"), ranges=((0, 2, 3), (0, 2, 3)),
                fixed=scenario().truth)
    return ContourRequest(**{**base, **fields})


def _with_threads(monkeypatch, raw):
    monkeypatch.setenv("CSLME_THREADS", raw)
    return sim.worker_count()


# Each row: what raises, the exception's exact type and a fragment of its
# message that names the field, the label or the variable.
SIM_REJECTIONS = {
    "fewer-rows-than-groups": (lambda mp: scenario(n=1), ValueError,
                               "need n >= g and at least two groups"),
    "truth-beta-length": (lambda mp: scenario(beta=(0.072, 1.0)), ValueError,
                          "truth has 2 beta and 1 varsigma entries, the model has p=3 and k=1"),
    "truth-varsigma-length": (lambda mp: scenario(vs=(0.058, 0.1)), ValueError,
                              "truth has 3 beta and 2 varsigma entries, the model has p=3 "
                              "and k=1"),
    "no-random-column": (lambda mp: Scenario(n=30, p=3, g=2, alpha=(), truth=Parameters(
        np.ones(3), np.zeros(0), 1.0)), ValueError, "at least one random-effect column is "
                                                    "required"),
    "one-varied-label": (lambda mp: _request(vary=("beta1",)), ValueError,
                         "exactly two varied parameters are required"),
    "threads-not-an-integer": (lambda mp: _with_threads(mp, "two"), ValueError,
                               "CSLME_THREADS must be an integer, got 'two'"),
    "no-methods": (lambda mp: run_scenario(scenario(), methods=()), ValueError,
                   "at least one method is required"),
    "unknown-objective": (lambda mp: contour_grid(_request(objective="ML"),
                                                  *replication_data(scenario(), 0)[:1],
                                                  scenario().model_spec()),
                          ValueError, "unknown method 'ML'; choose from ('PLS', 'PRLS')"),
}


@pytest.mark.parametrize("name", SIM_REJECTIONS)
def test_sim_boundary_rejections(monkeypatch, name):
    assert_rejects(*SIM_REJECTIONS[name], monkeypatch)
