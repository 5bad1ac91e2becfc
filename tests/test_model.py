from dataclasses import replace
import math
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest
from scipy import integrate

from conftest import assert_rejects, make_dataset, random_params
from dense import assemble, lambda_diag, marginal_cov
from cslme.baseline import Theta, reml_loglik
from cslme.estimate import approx_loglik, fit, pls_objective, prls_objective
from cslme.metrics import r_squared
from cslme.model import (
    NUMERICAL_FAILURES,
    BlockDesign,
    BlockSolve,
    Dataset,
    DimensionMismatchError,
    GroupData,
    ModelSpec,
    Parameters,
    SingularDesignError,
    Q_MAX,
    _chol,
    _tril_inv,
    at_uniform_limit,
    check_sizes,
    parameter_labels,
    re_variances,
    sdtn_variances,
    search_bounds,
    share_bounds,
    share_ratio,
    to_shares,
    unpack,
    unpack_shares,
    variance_share,
)
from cslme.ranef import solve_all
from cslme.sdtn import SMALL_RHO, SdtnParams, sdtn_pdf, variance_factor
from cslme.sim import Scenario, gen_design, gen_response


class TestTypes:
    def test_group_requires_consistent_lengths(self):
        with pytest.raises(DimensionMismatchError):
            GroupData(group_id="a", y=np.zeros(3), X=np.zeros((4, 2)))

    def test_dataset_requires_consistent_p(self):
        g1 = GroupData("a", np.zeros(2), np.zeros((2, 2)))
        g2 = GroupData("b", np.zeros(2), np.zeros((2, 3)))
        with pytest.raises(DimensionMismatchError):
            Dataset((g1, g2))

    def test_nan_response_names_group_and_row(self):
        with pytest.raises(ValueError, match="group a: non-finite response value nan at row 1"):
            GroupData("a", np.array([0.5, np.nan, 1.0]), np.ones((3, 2)))

    def test_inf_feature_names_group_row_and_column(self):
        X = np.ones((3, 2))
        X[2, 1] = -np.inf
        with pytest.raises(ValueError, match="group b: non-finite design value -inf "
                                             r"at row 2, column 1"):
            GroupData("b", np.zeros(3), X)

    def test_alpha_must_increase(self):
        with pytest.raises(ValueError):
            ModelSpec(alpha=(2, 1))

    @pytest.mark.parametrize("fields, match", [
        ({"alpha": (0.5, 1.9)}, r"alpha indices must be nonnegative integers, got \(0.5, 1.9\)"),
        ({"alpha": (-1,)}, "alpha indices must be nonnegative integers"),
        ({"alpha": (1, 1)}, r"alpha lists an index twice: \(1, 1\)"),
        ({"alpha": (0,), "unconstrained_columns": (1.5,)},
         r"unconstrained_columns indices must be nonnegative integers, got \(1.5,\)"),
        ({"alpha": (0,), "unconstrained_columns": (-1,)},
         "unconstrained_columns indices must be nonnegative integers"),
        ({"alpha": (0,), "unconstrained_columns": (2, 2)},
         r"unconstrained_columns lists an index twice: \(2, 2\)"),
    ], ids=["alpha-fraction", "alpha-negative", "alpha-repeated", "free-fraction",
            "free-negative", "free-repeated"])
    def test_spec_rejects_a_bad_index(self, fields, match):
        with pytest.raises(ValueError, match=match):
            ModelSpec(**fields)

    def test_integral_indices_are_kept_as_ints(self):
        spec = ModelSpec(alpha=(np.int64(0), 2.0), unconstrained_columns=[1])
        assert spec.alpha == (0, 2) and spec.unconstrained_columns == (1,)
        assert all(type(i) is int for i in spec.alpha + spec.unconstrained_columns)

    def test_unconstrained_column_out_of_range_is_rejected_before_a_fit(self, rng):
        data = make_dataset(rng, g=3, p=3)
        spec = ModelSpec(alpha=(0,), unconstrained_columns=(1, 5))
        with pytest.raises(ValueError, match=r"unconstrained_columns \(1, 5\) out of range "
                                             "for p=3 columns"):
            spec.validate_against(data)
        with pytest.raises(ValueError, match="unconstrained_columns"):
            fit(data, spec)

    def test_parameters_validation(self):
        with pytest.raises(ValueError):
            Parameters(beta=np.zeros(2), varsigma=np.array([-0.1]), sigma=1.0)
        with pytest.raises(ValueError):
            Parameters(beta=np.zeros(2), varsigma=np.array([0.1]), sigma=0.0)

    @pytest.mark.parametrize("beta, varsigma, sigma, message", [
        ((0.5, np.nan), (0.1,), 1.0, r"beta\[1\] must be finite, got nan"),
        ((0.5, 1.0), (0.1, np.inf), 1.0, r"varsigma\[1\] must be finite, got inf"),
        ((0.5, 1.0), (0.1,), np.inf, "sigma must be finite and positive, got inf"),
        ((0.5, 1.0), (0.1,), np.nan, "sigma must be finite and positive, got nan"),
    ])
    def test_non_finite_parameters_rejected(self, beta, varsigma, sigma, message):
        with pytest.raises(ValueError, match=message):
            Parameters(beta=np.array(beta), varsigma=np.array(varsigma), sigma=sigma)
        if np.isfinite(beta).all():  # Theta holds the same scales, without beta
            with pytest.raises(ValueError, match=message):
                Theta(varsigma=np.array(varsigma), sigma=sigma)


class TestSearchPoint:
    def test_labels_follow_the_point(self):
        spec = ModelSpec(alpha=(0, 2))
        assert parameter_labels(spec, 3) == ["beta0", "beta1", "beta2", "varsigma0",
                                             "varsigma2", "sigma"]

    @pytest.mark.parametrize("alpha", [(0,), (0, 2)])
    def test_bounds_match_each_fits_box(self, rng, alpha):
        data = make_dataset(rng, g=3, p=3)
        spec = ModelSpec(alpha=alpha)
        design = BlockDesign(data, spec)
        p, k, floor = 3, len(alpha), (design.log_sigma_floor, None)
        bounds = search_bounds(design, spec)
        # the PLS/PRLS box, its ML/REML tail and, for k = 1, the PIT box
        assert bounds == [(0.0, None)] * p + [(0.0, None)] * k + [floor]
        assert bounds[p:] == [(0.0, None)] * k + [floor]
        if k == 1:
            assert bounds == [(0.0, None)] * p + [(0.0, None), floor]
        free = search_bounds(design, ModelSpec(alpha=alpha, constrained=False))
        assert free[:p] == [(None, None)] * p and free[p:] == bounds[p:]
        partly = search_bounds(design, ModelSpec(alpha=alpha, unconstrained_columns=(1,)))
        assert partly[:p] == [(0.0, None), (None, None), (0.0, None)]

    def test_unpack_canonicalizes_varsigma(self):
        spec = ModelSpec(alpha=(0, 2))
        x = np.array([0.0, 1.5, 2.0, 0.7, 0.3, np.log(1.25)])
        params = unpack(x, spec)
        np.testing.assert_array_equal(params.beta, [0.0, 1.5, 2.0])
        # beta0 = 0 pins its deviation, so its scale reads 0; beta2 > 0 keeps 0.3
        np.testing.assert_array_equal(params.varsigma, [0.0, 0.3])
        assert params.sigma == pytest.approx(1.25, rel=1e-15)
        assert x[3] == 0.7  # the search point itself is left alone


@st.composite
def share_points(draw):
    """(x = (beta, q, log sigma), spec) with one column's q drawn on a chosen
    side of SMALL_RHO, tiny or at a bound, or its coefficient at 0."""
    kind = draw(st.sampled_from(["series", "near_threshold", "closed", "uniform",
                                 "tiny", "zero", "max", "beta_zero"]))
    b = 10.0 ** draw(st.floats(-3.0, 3.0)) * draw(st.sampled_from([1.0, -1.0]))
    if kind == "beta_zero":
        b = 0.0
    log_rho = {"series": (-9.0, -3.0), "near_threshold": (-3.5, -2.5), "closed": (-3.0, 3.0)}
    if kind in log_rho:
        q = variance_share(10.0 ** draw(st.floats(*log_rho[kind])))
    elif kind == "zero":
        q = 0.0
    elif kind == "max":
        q = Q_MAX
    elif kind == "tiny":  # subnormal q included, where rho^2 overflows
        q = draw(st.floats(0.0, 1e-300))
    else:
        q = draw(st.floats(0.0, Q_MAX))
    return np.array([0.4, b, q, 0.1]), ModelSpec(alpha=(1,), constrained=False)


class TestShareLayout:
    @pytest.mark.parametrize("alpha", [(0,), (0, 2)])
    def test_box_replaces_each_scale_by_its_share(self, rng, alpha):
        data = make_dataset(rng, g=3, p=3)
        spec = ModelSpec(alpha=alpha)
        design = BlockDesign(data, spec)
        bounds = share_bounds(design, spec)
        assert bounds[3:3 + len(alpha)] == [(0.0, Q_MAX)] * len(alpha)
        others = search_bounds(design, spec)
        assert bounds[:3] == others[:3] and bounds[-1] == others[-1]
        assert Q_MAX < 1.0 / 3.0 and np.nextafter(Q_MAX, 1.0) == 1.0 / 3.0

    def test_share_falls_from_one_third_to_zero(self):
        rho = np.logspace(-9, 3, 400)
        q = variance_share(rho)
        assert q.tolist() == [variance_share(r) for r in rho.tolist()]
        # flat only where it is capped at Q_MAX (2 rho^2/45 below an ulp of 1/3)
        assert np.all(np.diff(q) <= 0.0) and np.all(np.diff(q[rho > 1e-7]) < 0.0)
        assert variance_share(0.0) == Q_MAX == q[0] and variance_share(np.inf) == 0.0
        assert q[-1] == pytest.approx(1e-6, rel=1e-12, abs=0.0)

    @settings(max_examples=300, deadline=None)
    @given(point=share_points())
    def test_read_back_reproduces_the_variance(self, point):
        x, spec = point
        b, q = x[1], x[2]
        params = unpack_shares(x, spec)
        np.testing.assert_array_equal(params.beta, x[:2])
        assert params.sigma == pytest.approx(np.exp(0.1), rel=1e-15)
        (d,) = re_variances(params.beta, params.varsigma, spec.alpha)
        if b == 0.0 or q == 0.0:
            assert params.varsigma[0] == 0.0 and d == 0.0
            return
        assert d == pytest.approx(b * b * q, rel=1e-12, abs=0.0)
        # and back: the read-back scale maps to the same share
        (q_again,) = to_shares(np.array([0.4, b, params.varsigma[0], 0.1]), spec)[2:3]
        assert q_again == pytest.approx(q, rel=1e-12, abs=0.0)

    @settings(max_examples=200, deadline=None)
    @given(b=st.floats(1e-3, 1e3), rho=st.floats(-9.0, 3.0))
    def test_scale_maps_to_share_and_back(self, b, rho):
        spec = ModelSpec(alpha=(0,))
        x = np.array([b, b / 10.0 ** rho, 0.0])
        shares = to_shares(x, spec)
        d = re_variances(x[:1], x[1:2], spec.alpha)[0]
        assert b * b * shares[1] == pytest.approx(d, rel=1e-12, abs=0.0)
        back = unpack_shares(shares, spec)
        assert re_variances(back.beta, back.varsigma, spec.alpha)[0] == \
            pytest.approx(d, rel=1e-12, abs=0.0)

    def test_uniform_limit_flags(self):
        spec = ModelSpec(alpha=(0, 1, 2))
        # at Q_MAX with a nonzero coefficient only; beta0 = 0 reads varsigma = 0
        x = np.array([0.0, -2.0, 1.0, Q_MAX, Q_MAX, np.nextafter(Q_MAX, 0.0), 0.3])
        assert at_uniform_limit(x, spec) == (False, True, False)

    def test_bounds_and_zero_coefficient(self):
        spec = ModelSpec(alpha=(0, 1))
        # beta0 = 0 maps to Q_MAX, varsigma1 = 0 to q = 0; both read back as 0
        x = np.array([0.0, 2.0, 0.5, 0.0, 0.3])
        shares = to_shares(x, spec)
        np.testing.assert_array_equal(shares, [0.0, 2.0, Q_MAX, 0.0, 0.3])
        # R points map row by row; varsigma1 = 1e-310 overflows the ratio to inf
        rows = np.array([x, [1.0, 2.0, 0.3, 1e-310, 0.3]])
        np.testing.assert_array_equal(to_shares(rows, spec), [to_shares(r, spec) for r in rows])
        np.testing.assert_array_equal(unpack_shares(shares, spec).varsigma, [0.0, 0.0])
        # at Q_MAX the scale reads back finite, and the variance is beta^2 / 3
        top = unpack_shares(np.array([1.0, 2.0, 0.1, Q_MAX, 0.0]), spec)
        assert 2.7e7 * 2.0 < top.varsigma[1] < 2.9e7 * 2.0
        assert re_variances(top.beta, top.varsigma, spec.alpha)[1] == \
            pytest.approx(4.0 / 3.0, rel=1e-15)
        assert share_ratio(Q_MAX) == pytest.approx(np.sqrt(22.5 * 2.0 ** -54), rel=1e-6)


class TestAssemble:
    def test_single_group_full_alpha(self, rng):
        data = Dataset((GroupData("only", rng.normal(size=5),
                                  rng.normal(size=(5, 3))),))
        spec = ModelSpec(alpha=(0, 1, 2))
        X, Z, y, offsets = assemble(data, spec)
        np.testing.assert_array_equal(Z, X)
        np.testing.assert_array_equal(offsets, [0, 5])

    def test_two_group_intercept_block_structure(self, rng):
        groups = tuple(
            GroupData(i, rng.normal(size=4),
                      np.column_stack([np.ones(4), rng.normal(size=(4, 1))]))
            for i in range(2))
        spec = ModelSpec(alpha=(0,))
        X, Z, y, offsets = assemble(Dataset(groups), spec)
        expected = np.zeros((8, 2))
        expected[:4, 0] = 1.0
        expected[4:, 1] = 1.0
        np.testing.assert_array_equal(Z, expected)

    def test_block_product_matches_per_group(self, rng):
        data = make_dataset(rng, g=3, p=4)
        spec = ModelSpec(alpha=(1, 3))
        X, Z, y, offsets = assemble(data, spec)
        gamma = rng.normal(size=(3, 2))
        stacked = Z @ gamma.reshape(-1)
        direct = np.concatenate(
            [gd.X[:, [1, 3]] @ gamma[ell] for ell, gd in enumerate(data.groups)])
        np.testing.assert_allclose(stacked, direct, rtol=1e-13)

    def test_row_order_preserved(self, rng):
        data = make_dataset(rng, g=2, p=2)
        X, Z, y, offsets = assemble(data, ModelSpec(alpha=(0,)))
        np.testing.assert_array_equal(
            y, np.concatenate([gd.y for gd in data.groups]))

    def test_alpha_out_of_range(self, rng):
        data = make_dataset(rng, g=2, p=2)
        with pytest.raises(ValueError):
            assemble(data, ModelSpec(alpha=(5,)))


class TestLambdaDiag:
    def test_zero_scale_gives_zero_entry(self):
        params = Parameters(beta=np.array([1.0, 2.0]), varsigma=np.array([0.0, 1.0]),
                            sigma=1.0)
        spec = ModelSpec(alpha=(0, 1))
        d = sdtn_variances(params, spec)
        assert d[0] == 0.0
        assert d[1] > 0.0

    def test_rows_equal_the_per_column_loop(self, rng):
        def loop(beta, varsigma, alpha):  # the scalar rule, column by column
            out = []
            for i, col in enumerate(alpha):
                s, b = abs(float(varsigma[i])), abs(float(beta[col]))
                out.append(0.0 if s == 0.0 or b == 0.0 else
                           math.nan if b / s == 0.0 else s * s * variance_factor(b / s))
            return out

        alpha = (0, 2)
        beta, varsigma = rng.uniform(0.01, 3.0, (12, 3)), rng.uniform(0.01, 3.0, (12, 2))
        beta[1, 0], varsigma[2, 1], varsigma[3, 0] = 0.0, 0.0, 1e-310  # zero, zero, rho = inf
        beta[4, 2], varsigma[4, 1] = 1e-320, 1e10  # |beta| / varsigma underflows to 0
        varsigma[5, 0], beta[6, 0], varsigma[7, 1] = 1e200, -1.2, -0.7  # inf * 0, signs
        varsigma[8] = 1e-3 * beta[8, list(alpha)]  # rho = 1000: the tail underflows
        varsigma[9] = 20.0 * beta[9, list(alpha)]  # rho = 0.05: the series branch
        d = re_variances(beta, varsigma, alpha)
        assert d.shape == (12, 2)
        for row, b, s in zip(d, beta, varsigma):
            assert [v.hex() for v in row.tolist()] == [v.hex() for v in loop(b, s, alpha)]
            assert [v.hex() for v in re_variances(b, s, alpha).tolist()] == \
                [v.hex() for v in row.tolist()]
        assert np.isnan(d[4, 1]) and np.isnan(d[5, 0])
        assert not np.isnan(np.delete(d, [4, 5], axis=0)).any()

    def test_wide_truncation_recovers_scale(self):
        params = Parameters(beta=np.array([40.0]), varsigma=np.array([1.0]), sigma=1.0)
        d = sdtn_variances(params, ModelSpec(alpha=(0,)))
        assert d[0] == pytest.approx(1.0, abs=1e-12)

    def test_entries_match_quadrature(self):
        params = Parameters(beta=np.array([1.0, 1.0]), varsigma=np.array([0.5, 2.0]),
                            sigma=1.0)
        d = sdtn_variances(params, ModelSpec(alpha=(0, 1)))
        for i, (b, s) in enumerate([(1.0, 0.5), (1.0, 2.0)]):
            law = SdtnParams(0.0, s, b / s)
            oracle, _ = integrate.quad(lambda t: t * t * sdtn_pdf(t, law),
                                       law.lower, law.upper)
            assert d[i] == pytest.approx(oracle, rel=1e-9)

    def test_tiling_and_permutation(self):
        params = Parameters(beta=np.array([1.0, 0.3]), varsigma=np.array([0.4, 0.2]),
                            sigma=1.0)
        spec = ModelSpec(alpha=(0, 1))
        lam = lambda_diag(params, spec, g=3)
        assert lam.shape == (6,)
        np.testing.assert_array_equal(lam[:2], lam[2:4])
        np.testing.assert_array_equal(lam[:2], lam[4:6])


class TestMarginalCov:
    def test_zero_lambda_gives_scaled_identity(self, rng):
        data = make_dataset(rng, g=2, p=2)
        spec = ModelSpec(alpha=(0,))
        params = Parameters(beta=np.array([0.0, 1.0]), varsigma=np.array([0.5]),
                            sigma=1.3)
        # beta[0] = 0 makes the deviation degenerate at 0
        _, Z, _, _ = assemble(data, spec)
        V = marginal_cov(params, spec, Z)
        np.testing.assert_allclose(V, 1.3 ** 2 * np.eye(data.n), atol=1e-14)

    def test_single_group_rank_one(self):
        n = 4
        data = Dataset((GroupData("a", np.zeros(n), np.ones((n, 1))),))
        spec = ModelSpec(alpha=(0,))
        params = Parameters(beta=np.array([2.0]), varsigma=np.array([0.7]), sigma=0.9)
        _, Z, _, _ = assemble(data, spec)
        V = marginal_cov(params, spec, Z)
        d = sdtn_variances(params, spec)[0]
        np.testing.assert_allclose(V, d * np.ones((n, n)) + 0.81 * np.eye(n),
                                   rtol=1e-12)

    def test_symmetric_positive_definite(self, small_problem):
        data, spec, params = small_problem
        _, Z, _, _ = assemble(data, spec)
        V = marginal_cov(params, spec, Z)
        np.testing.assert_allclose(V, V.T, rtol=1e-14)
        assert np.all(np.linalg.eigvalsh(V) > 0)

    def test_blockwise_logdet_matches_full(self, small_problem):
        data, spec, params = small_problem
        _, Z, _, offsets = assemble(data, spec)
        V = marginal_cov(params, spec, Z)
        full = np.linalg.slogdet(V)[1]
        per_block = sum(
            np.linalg.slogdet(V[o1:o2, o1:o2])[1]
            for o1, o2 in zip(offsets[:-1], offsets[1:]))
        assert per_block == pytest.approx(full, abs=1e-8)


@st.composite
def core_cases(draw):
    """Ragged groups (one-row groups included), k in {1, 2, 3}, zero variances."""
    k = draw(st.integers(1, 3))
    p = draw(st.integers(k, 4))
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    zero = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    data = make_dataset(rng, g=len(sizes), sizes=sizes, p=p)
    spec = ModelSpec(alpha=tuple(sorted(rng.choice(p, size=k, replace=False))))
    params = random_params(rng, p, spec.alpha)
    varsigma = np.where(zero, 0.0, params.varsigma)
    return data, spec, Parameters(beta=params.beta, varsigma=varsigma, sigma=params.sigma)


class TestBlockSolveAgainstDense:
    def _dense(self, data, spec, params):
        _, Z, y, _ = assemble(data, spec)
        V = marginal_cov(params, spec, Z)
        return Z, y, V, np.linalg.inv(V)

    def test_all_pieces(self, rng):
        for trial in range(8):
            data = make_dataset(rng, g=int(rng.integers(2, 5)), p=3)
            spec = ModelSpec(alpha=(0, 2))
            params = random_params(rng, 3, spec.alpha)
            if trial % 3 == 0:
                vs = params.varsigma.copy()
                vs[0] = 0.0  # exercise the degenerate coordinate
                params = Parameters(beta=params.beta, varsigma=vs, sigma=params.sigma)
            X = np.vstack([gd.X for gd in data.groups])
            Z, y, V, Vinv = self._dense(data, spec, params)
            design = BlockDesign(data, spec)
            d = sdtn_variances(params, spec)
            sol = design.solve(d[None], [params.sigma])
            beta = params.beta[None]

            assert sol.logdet_v[0] == pytest.approx(np.linalg.slogdet(V)[1], abs=1e-9)
            r = y - X @ params.beta
            assert sol.quad_form_resid(beta)[0] == pytest.approx(
                r @ Vinv @ r, rel=1e-9)
            np.testing.assert_allclose(sol.xt_vinv_x()[0], X.T @ Vinv @ X, rtol=1e-8)
            np.testing.assert_allclose(sol.xt_vinv_y()[0], X.T @ Vinv @ y, rtol=1e-8)
            ztr = sol.zt_vinv_resid(beta)[0]
            dense_ztr = Z.T @ Vinv @ r
            np.testing.assert_allclose(
                np.concatenate(ztr), dense_ztr, rtol=1e-8, atol=1e-10)

    @settings(max_examples=80, deadline=None)
    @given(case=core_cases())
    def test_batched_core_matches_dense(self, case):
        data, spec, params = case
        X, Z, y, _ = assemble(data, spec)
        V = marginal_cov(params, spec, Z)
        Vinv = np.linalg.inv(V)
        sol = BlockDesign(data, spec).solve(sdtn_variances(params, spec)[None], [params.sigma])
        beta = params.beta[None]
        r = y - X @ params.beta

        def close(actual, dense):
            scale = np.abs(dense).max()
            np.testing.assert_allclose(actual, dense, rtol=1e-8, atol=1e-10 * scale)

        assert sol.logdet_v[0] == pytest.approx(np.linalg.slogdet(V)[1], abs=1e-9)
        assert sol.quad_form_resid(beta)[0] == pytest.approx(r @ Vinv @ r, rel=1e-9)
        close(sol.xt_vinv_x()[0], X.T @ Vinv @ X)
        close(sol.xt_vinv_y()[0], X.T @ Vinv @ y)
        close(sol.zt_vinv_resid(beta).reshape(-1), Z.T @ Vinv @ r)

        logdet_v = np.linalg.slogdet(V)[1]
        q = r @ Vinv @ r
        F = X.T @ Vinv @ X
        assert sol.criterion(beta, False)[0] == pytest.approx(q + logdet_v, abs=1e-9,
                                                              rel=1e-9)
        # the restricted term and GLS need a well-conditioned X^T V^-1 X
        # (one-row groups can leave fewer rows than columns)
        if np.linalg.cond(F) < 1e6:
            assert sol.criterion(beta, True)[0] == pytest.approx(
                q + logdet_v + np.linalg.slogdet(F)[1], abs=1e-8, rel=1e-9)
            close(sol.gls_beta()[0], np.linalg.solve(F, X.T @ Vinv @ y))
        close(sol.xt_vinv_resid(beta)[0], X.T @ Vinv @ r)
        # criterion_parts splits the criterion in two, and dq + dlog is its
        # partial in d_i: tr(V^-1 D_i) - r^T V^-1 D_i V^-1 r, less tr(F^-1 X^T
        # V^-1 D_i V^-1 X) if restricted, with D_i = dV/dd_i = Z_i Z_i^T
        Zs = [Z[:, i::spec.k] for i in range(spec.k)]
        VinvD = [Vinv @ Zi @ Zi.T for Zi in Zs]
        for restricted in (False, True) if np.linalg.cond(F) < 1e6 else (False,):
            quad, logdet, dq, dlog, u = sol.criterion_parts(beta, restricted)
            np.testing.assert_array_equal(u, sol.zt_vinv_resid(beta))
            assert quad[0] + logdet[0] == pytest.approx(
                sol.criterion(beta, restricted)[0], abs=1e-9, rel=1e-12)
            dense = [np.trace(VD) - r @ VD @ Vinv @ r for VD in VinvD]
            if restricted:
                dense = [v - np.trace(np.linalg.solve(F, X.T @ VD @ Vinv @ X))
                         for v, VD in zip(dense, VinvD)]
            close((dq + dlog)[0], dense)

        # R points at once, the first the case's own: every value is the
        # batches of one's, and the batch raises where a batch of one raises
        rng = np.random.default_rng(data.n)
        for R in (1, 7):
            jitter = np.exp(rng.normal(0.0, 0.5, size=(R, spec.k + 2)))
            jitter[0] = 1.0
            d = sdtn_variances(params, spec) * jitter[:, :spec.k]
            sigma = params.sigma * jitter[:, -1]
            beta = params.beta * jitter[:, [spec.k]]
            self.check_batch(BlockDesign(data, spec), d, sigma, beta)

    @staticmethod
    def check_batch(design, d, sigma, beta):
        batch = design.solve(d, sigma)
        singles = [design.solve(d[[r]], sigma[[r]]) for r in range(len(sigma))]

        def same(value, *args):
            """value(batch, *args) stacks value(batch of one r, *(a[[r]] for a in args))
            bit for bit, or raises the error class of the first batch of one that raises."""
            try:
                expected = [value(sol, *(a[[r]] for a in args)) for r, sol in enumerate(singles)]
            except NUMERICAL_FAILURES as exc:
                with pytest.raises(type(exc)):
                    value(batch, *args)
                return
            actual = value(batch, *args)
            if isinstance(actual, tuple):
                for i, part in enumerate(actual):
                    np.testing.assert_array_equal(part, np.concatenate([e[i] for e in expected]))
            else:
                np.testing.assert_array_equal(actual, np.concatenate(expected))

        assert batch.logdet_v.shape == sigma.shape
        np.testing.assert_array_equal(batch.logdet_v,
                                      np.concatenate([sol.logdet_v for sol in singles]))
        same(BlockSolve.quad_form_resid, beta)
        same(BlockSolve.xt_vinv_x)
        same(BlockSolve.xt_vinv_y)
        same(BlockSolve.xt_vinv_resid, beta)
        same(BlockSolve.zt_vinv_resid, beta)
        same(BlockSolve.gls_beta)
        for restricted in (False, True):
            same(lambda sol, b: sol.criterion(b, restricted), beta)
            same(lambda sol, b: sol.criterion_parts(b, restricted), beta)
            same(lambda sol, b: sol.criterion_hessian(b, restricted), beta)

    def test_batch_raises_where_a_point_raises(self, rng):
        data = make_dataset(rng, g=4, p=2)
        spec = ModelSpec(alpha=(0,))
        design = BlockDesign(data, spec)
        # sigma^2 underflows to 0 at one point of three
        d, sigma = np.array([[0.3], [0.2], [0.1]]), np.array([0.9, 1e-300, 1.1])
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(ValueError):
                design.solve(d[[1]], sigma[[1]])
            with pytest.raises(ValueError):
                design.solve(d, sigma)
        # a duplicated column: X^T V^-1 X is singular at every point
        dup = BlockDesign(Dataset(tuple(GroupData(gd.group_id, gd.y, gd.X[:, [0, 1, 1]])
                                        for gd in data.groups)), spec)
        d, sigma, beta = d[[0, 2]], sigma[[0, 2]], np.array([[1.0, 0.5, 0.5]] * 2)
        self.check_batch(dup, d, sigma, beta)
        batch = dup.solve(d, sigma)
        assert np.isfinite(batch.criterion(beta, False)).all()
        for value in (batch.gls_beta, lambda: batch.criterion(beta, True),
                      lambda: batch.criterion_parts(beta, True)):
            with pytest.raises(SingularDesignError):
                value()

    def test_non_finite_capacitance_gives_a_non_finite_value(self):
        # `_chol`, as np.linalg.cholesky, factors a matrix with NaN or inf entries
        # into non-finite factors instead of raising, so at varsigma = 1e200 (d is
        # inf * 0 = NaN) the PLS value is NaN, at one point and in a batch, and
        # only the restricted value raises, on the pivots of X^T V^-1 X
        truth = Parameters(beta=np.array([0.072, 1.0, 1.0]), varsigma=np.array([0.058]),
                           sigma=1.0)
        sc = Scenario(n=60, p=3, g=2, alpha=(0,), truth=truth, seed=3)
        spec = sc.model_spec()
        data, _ = gen_response(gen_design(sc), truth, spec, seed=2)
        far = replace(truth, varsigma=np.array([1e200]))
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(pls_objective(far, data, spec))
            with pytest.raises(SingularDesignError):
                prls_objective(far, data, spec)
            d = np.array([sdtn_variances(truth, spec), sdtn_variances(far, spec)])
            values = BlockSolve(BlockDesign(data, spec), d, np.ones(2)).criterion(
                np.tile(truth.beta, (2, 1)), False)
        assert values[0] == pls_objective(truth, data, spec) and np.isnan(values[1])

    def test_repeated_point_gives_a_fresh_designs_values(self, rng):
        data = make_dataset(rng, g=4, p=3)
        spec = ModelSpec(alpha=(0, 2))
        beta = rng.normal(size=(1, 3))
        design = BlockDesign(data, spec)
        first = (np.array([[0.4, 1.3]]), [0.9])
        points = [first, (np.array([[0.0, 2.1]]), [1.7]), (first[0].copy(), first[1])]
        for d, sigma in points:
            sol = design.solve(d, sigma)
            fresh = BlockDesign(data, spec).solve(d, sigma)
            np.testing.assert_array_equal(sol.logdet_v, fresh.logdet_v)
            np.testing.assert_array_equal(sol.quad_form_resid(beta), fresh.quad_form_resid(beta))
            np.testing.assert_array_equal(sol.xt_vinv_x(), fresh.xt_vinv_x())
            np.testing.assert_array_equal(sol.xt_vinv_y(), fresh.xt_vinv_y())
            np.testing.assert_array_equal(sol.xt_vinv_resid(beta), fresh.xt_vinv_resid(beta))
            np.testing.assert_array_equal(sol.zt_vinv_resid(beta), fresh.zt_vinv_resid(beta))

    def test_quad_form_matches_dense_near_the_column_space_of_x(self, rng):
        # r^T V^-1 r to 1e-12 relative, on the data's own y and on a y within
        # 1e-8 |y| of X's column space at |X (beta - b)| from 1e-2 to 1 of |y|.
        # There y'y - 2 beta'X'y + beta'X'X beta cancels and misses r^T r by
        # more than 1e-12; r^T r off R_A does not. d is small against sigma^2,
        # so that the Woodbury correction does not cancel much either.
        spec = ModelSpec(alpha=(0, 2))
        scales = np.logspace(-2.0, 0.0, 5)
        normal_eq_miss = []
        for _ in range(10):
            data = make_dataset(rng, g=4, p=3)
            X, Z, y, offsets = assemble(data, spec)
            b, e = rng.normal(size=3), rng.normal(size=y.size)
            near = X @ b + 1e-8 * np.linalg.norm(X @ b) / np.linalg.norm(e) * e
            sigma = rng.gamma(2.0, 0.5, size=scales.size) + 0.2
            d = sigma[:, None] ** 2 * rng.uniform(0.05, 0.2, size=(scales.size, 2))
            u = rng.normal(size=(scales.size, 3))
            for y_case in (y, near):
                groups = tuple(GroupData(gd.group_id, y_case[lo:hi], gd.X) for gd, lo, hi
                               in zip(data.groups, offsets[:-1], offsets[1:]))
                beta = b + (scales * np.linalg.norm(y_case) / np.linalg.norm(u @ X.T, axis=1)
                            )[:, None] * u
                got = BlockDesign(Dataset(groups), spec).solve(d, sigma).quad_form_resid(beta)
                for i in range(scales.size):
                    r = y_case - X @ beta[i]
                    V = sigma[i] ** 2 * np.eye(y.size) + (Z * np.tile(d[i], data.g)) @ Z.T
                    assert got[i] == pytest.approx(r @ np.linalg.solve(V, r), rel=1e-12)
                    if y_case is near:
                        normal_eq = (near @ near - 2.0 * beta[i] @ (X.T @ near)
                                     + beta[i] @ (X.T @ X) @ beta[i])
                        normal_eq_miss.append(abs(normal_eq - r @ r) / (r @ r))
        assert max(normal_eq_miss) > 1e-12

    def test_evaluation_reads_no_array_of_length_n(self, rng):
        # after set-up every value comes off ZtA, XtA and R_A: with the
        # design's X and y overwritten by NaN, each stays bit for bit
        data = make_dataset(rng, g=4, p=3)
        design = BlockDesign(data, ModelSpec(alpha=(0, 2)))
        d, sigma = rng.gamma(2.0, 0.5, size=(5, 2)), rng.gamma(2.0, 0.5, size=5) + 0.2
        beta = rng.normal(size=(5, 3))

        def values():
            sol = design.solve(d, sigma)
            out = [sol.gls_beta()]
            for restricted in (False, True):
                out += [sol.criterion(beta, restricted), *sol.criterion_parts(beta, restricted),
                        *sol.criterion_hessian(beta, restricted)]
            return out

        before = values()
        design.X[...] = np.nan
        design.y[...] = np.nan
        after = values()
        assert all(np.isfinite(v).all() for v in before)
        assert [v.tobytes() for v in after] == [v.tobytes() for v in before]


def spd_factors(rng, n, m, cond=None):
    """Cholesky factors (n, m, m) of random SPD matrices: I + A A^T with A
    standard normal, or, given `cond`, Q diag(eigenvalues from 1 down to
    1 / cond) Q^T with Q a random orthogonal matrix."""
    if cond is None:
        A = rng.normal(size=(n, m, m + 2))
        return np.linalg.cholesky(np.eye(m) + A @ A.swapaxes(-1, -2))
    Q = np.linalg.qr(rng.normal(size=(n, m, m)))[0]
    lam = np.logspace(0.0, -math.log10(cond), m)
    return np.linalg.cholesky((Q * lam) @ Q.swapaxes(-1, -2))


class TestTrilInv:
    """`_tril_inv`, the forward substitution that inverts `BlockSolve`'s
    capacitance factors, against LAPACK's LU inverse, np.linalg.inv."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_matches_the_lu_inverse_with_exact_zeros_above(self, rng, m):
        L = spd_factors(rng, 2000, m)
        X, ref = _tril_inv(L), np.linalg.inv(L)
        # relative to each matrix's largest entry: LU leaves rounding-level
        # entries above the diagonal
        assert (np.abs(X - ref).max(axis=(1, 2)) <= 1e-12 * np.abs(ref).max(axis=(1, 2))).all()
        upper = X[:, np.triu(np.ones((m, m), dtype=bool), 1)]
        assert (upper == 0.0).all() and not np.signbit(upper).any()

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("cond", [1e2, 1e4, 1e6, 1e8])
    def test_residual_up_to_condition_1e8(self, rng, m, cond):
        L = spd_factors(rng, 500, m, cond)
        assert np.abs(L @ _tril_inv(L) - np.eye(m)).max() <= 1e-10

    def test_one_by_one_is_the_reciprocal(self, rng):
        L = spd_factors(rng, 2000, 1)
        assert _tril_inv(L).tobytes() == (1.0 / L).tobytes()

    def test_rows_do_not_depend_on_the_batch(self, rng):
        # a 24 x 24 sleep-study contour grid: 576 points of 18 groups, k = 2
        L = spd_factors(rng, 576 * 18, 2).reshape(576, 18, 2, 2)
        rows = np.concatenate([_tril_inv(L[i:i + 1]) for i in range(len(L))])
        assert _tril_inv(L).tobytes() == rows.tobytes()

    def test_non_finite_factors_propagate_without_a_warning(self, rng):
        # np.linalg.cholesky factors a matrix with NaN or inf entries into
        # NaN factors or inf pivots instead of raising. A NaN at L[i, j]
        # makes every entry of rows i.. in columns ..j NaN. Without a NaN,
        # the substitution takes the limit as the inf pivots grow: LU's
        # partial pivoting meets inf / inf there and may return NaN, so the
        # oracle is the LU inverse with each inf replaced by 1e200, and
        # wherever the LU inverse of L itself is finite it must agree.
        counts = {"nan": 0, "inf": 0}
        for m in (1, 2, 3, 4):
            for _ in range(300):
                A = rng.normal(size=(m, m + 2))
                M = np.eye(m) + A @ A.T
                i, j = rng.integers(0, m, 2)
                with np.errstate(over="ignore", invalid="ignore"):
                    M[i, j] = M[j, i] = rng.choice([np.nan, np.inf, -np.inf])
                    try:
                        L = np.linalg.cholesky(M)
                    except np.linalg.LinAlgError:
                        continue
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    X = _tril_inv(L)
                for r, c in np.argwhere(np.isnan(L)):
                    assert np.isnan(X[r:, :c + 1]).all()
                if np.isnan(L).any():
                    counts["nan"] += 1
                    continue
                counts["inf"] += 1
                big = np.linalg.inv(np.where(np.isinf(L), np.copysign(1e200, L), L))
                with np.errstate(invalid="ignore"):
                    lu = np.linalg.inv(L)
                for ref in (big, lu) if np.isfinite(lu).all() else (big,):
                    assert np.abs(X - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())
        assert counts["nan"] > 100 and counts["inf"] > 100


class TestChol:
    """`_chol`, the column Cholesky that factors `BlockSolve`'s capacitance
    matrices, against LAPACK's, np.linalg.cholesky."""

    @staticmethod
    def spd(rng, n, m):
        """n random SPD matrices (n, m, m), I + A A^T scaled over 12 decades."""
        A = rng.normal(size=(n, m, m + 2))
        return (np.eye(m) + A @ A.swapaxes(-1, -2)) * 10.0 ** rng.uniform(-6, 6, (n, 1, 1))

    @pytest.mark.parametrize("m", [1, 2])
    def test_bit_equal_to_lapack(self, rng, m):
        M = self.spd(rng, 5000, m)
        assert _chol(M).tobytes() == np.linalg.cholesky(M).tobytes()

    @pytest.mark.parametrize("m", [3, 4])
    def test_larger_blocks_within_rounding_of_lapack(self, rng, m):
        # LAPACK may fuse the products of its sums; the upper triangle is 0
        M = self.spd(rng, 5000, m)
        L, ref = _chol(M), np.linalg.cholesky(M)
        scale = np.abs(ref).max(axis=(1, 2))
        assert (np.abs(L - ref).max(axis=(1, 2)) <= 1e-14 * scale).all()
        assert (L[:, np.triu(np.ones((m, m), dtype=bool), 1)] == 0.0).all()

    @pytest.mark.parametrize("m", [1, 2])
    def test_non_finite_entries_as_lapack(self, rng, m):
        # NaN, inf and overflowing entries: the same raise, or the same
        # entries with their signs, NaN where LAPACK has NaN, with no warning.
        # An inf pivot scales the column below by 0 as LAPACK does, filling
        # +0 even where the entry is inf or NaN.
        counts = {"raise": 0, "nan": 0, "inf": 0}
        for _ in range(2000):
            A = rng.normal(size=(m, m + 2))
            M = np.eye(m) + A @ A.T
            for i, j in rng.integers(0, m, (int(rng.integers(1, 3)), 2)):
                M[i, j] = M[j, i] = rng.choice([np.nan, np.inf, -np.inf, 1e300, -1e300, -0.0])
            try:
                with np.errstate(invalid="ignore", over="ignore"):
                    ref = np.linalg.cholesky(M[None])
            except np.linalg.LinAlgError:
                with pytest.raises(np.linalg.LinAlgError):
                    _chol(M[None])
                counts["raise"] += 1
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                L = _chol(M[None])
            np.testing.assert_array_equal(L, ref)
            np.testing.assert_array_equal(np.signbit(L), np.signbit(ref))
            if np.isnan(ref).any():
                counts["nan"] += 1
            elif np.isinf(ref).any():
                counts["inf"] += 1
        assert counts["raise"] > 100 and counts["nan"] > 50 and counts["inf"] > 50

    def test_nan_radicand_does_not_raise(self):
        M = np.array([[[np.nan, 1.0], [1.0, 2.0]], [[4.0, np.nan], [np.nan, 1.0]]])
        with np.errstate(invalid="ignore"):
            ref = np.linalg.cholesky(M)
        np.testing.assert_array_equal(_chol(M), ref)
        assert np.isnan(_chol(M)[:, 1, 1]).all()

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_one_matrix_not_positive_definite_raises(self, rng, m):
        # one finite matrix among positive definite ones, with a zero or a
        # negative radicand in its last column
        for radicand in (0.0, -0.5):
            M = self.spd(rng, 50, m)
            M[17] = np.eye(m)
            M[17, -1, -1] = radicand
            for factor in (np.linalg.cholesky, _chol):
                with pytest.raises(np.linalg.LinAlgError):
                    factor(M)

    def test_rows_do_not_depend_on_the_batch(self, rng):
        # a 24 x 24 sleep-study contour grid: 576 points of 18 groups, k = 2
        M = self.spd(rng, 576 * 18, 2).reshape(576, 18, 2, 2)
        rows = np.concatenate([_chol(M[i:i + 1]) for i in range(len(M))])
        assert _chol(M).tobytes() == rows.tobytes()


RESTRICTED_CRITERIA = {
    "prls_objective": lambda data, spec, params: prls_objective(params, data, spec),
    "reml_loglik": lambda data, spec, params: reml_loglik(
        Theta(params.varsigma, params.sigma), data, spec),
    "BlockSolve.criterion": lambda data, spec, params: BlockDesign(data, spec).solve(
        sdtn_variances(params, spec)[None], [params.sigma]).criterion(params.beta[None], True),
}


@pytest.mark.parametrize("name", RESTRICTED_CRITERIA)
def test_duplicated_design_column_is_singular(rng, name):
    # Cholesky of the exactly singular X^T V^-1 X fails on some draws and
    # passes with a rounding-level pivot on others; both must raise
    spec = ModelSpec(alpha=(0,))
    params = Parameters(beta=np.array([1.0, 0.5, 0.5]), varsigma=np.array([0.4]), sigma=0.8)
    for _ in range(20):
        data = make_dataset(rng, g=4, p=2)
        dup = Dataset(tuple(GroupData(gd.group_id, gd.y, gd.X[:, [0, 1, 1]])
                            for gd in data.groups))
        with pytest.raises(SingularDesignError):
            RESTRICTED_CRITERIA[name](dup, spec, params)


def _one_column_design(rng):
    return BlockDesign(make_dataset(rng, g=3, p=2), ModelSpec(alpha=(0,)))


# Each row: what raises, the exception's exact type and a fragment of its
# message that names the field, the group or the sizes.
MODEL_REJECTIONS = {
    "design-not-2d": (lambda rng: GroupData("a", np.zeros(3), np.ones(3)),
                      DimensionMismatchError, "group a: design must be a nonempty 2-d array"),
    "no-groups": (lambda rng: Dataset(()), DimensionMismatchError,
                  "dataset needs at least one group"),
    "alpha-not-a-number": (lambda rng: ModelSpec(alpha=("a",)), ValueError,
                           "alpha indices must be nonnegative integers, got ('a',)"),
    "alpha-none": (lambda rng: ModelSpec(alpha=(None,)), ValueError,
                   "alpha indices must be nonnegative integers, got (None,)"),
    "no-random-column": (lambda rng: ModelSpec(alpha=()), ValueError,
                         "at least one random-effect column is required"),
    "alpha-at-p": (lambda rng: ModelSpec(alpha=(0, 3)).check_columns(3), ValueError,
                   "alpha (0, 3) out of range for p=3 columns"),
    "point-sizes": (lambda rng: check_sizes(Parameters(np.ones(3), np.ones(1), 1.0), 2, 1,
                                            "start"),
                    ValueError, "start has 3 beta and 1 varsigma entries, the model has p=2 "
                                "and k=1"),
    "re-variances-shape": (lambda rng: re_variances(np.ones(3), np.ones(2), (0,)),
                           DimensionMismatchError, "varsigma has shape (2,), alpha picks "
                                                   "beta entries of shape (1,)"),
    "solve-shape": (lambda rng: _one_column_design(rng).solve(np.ones((1, 2)), np.ones(1)),
                    DimensionMismatchError, "expected 1 random-effect variances per point, "
                                            "got (1, 2)"),
    "solve-negative-d": (lambda rng: _one_column_design(rng).solve(-np.ones((1, 1)),
                                                                   np.ones(1)),
                         ValueError, "random-effect variances must be nonnegative"),
    "solve-sigma": (lambda rng: _one_column_design(rng).solve(np.ones((1, 1)), np.zeros(1)),
                    ValueError, "sigma must be positive, got [0.]"),
}


@pytest.mark.parametrize("name", MODEL_REJECTIONS)
def test_model_boundary_rejections(rng, name):
    assert_rejects(*MODEL_REJECTIONS[name], rng)


POINT_ENTRY_POINTS = {
    "pls_objective": lambda data, spec, params: pls_objective(params, data, spec),
    "prls_objective": lambda data, spec, params: prls_objective(params, data, spec),
    "approx_loglik": lambda data, spec, params: approx_loglik(params, data, spec),
    "solve_all": lambda data, spec, params: solve_all(data, params, spec),
    "r_squared": lambda data, spec, params: r_squared(params, data, spec),
}


@pytest.mark.parametrize("name", POINT_ENTRY_POINTS)
@pytest.mark.parametrize("n_beta, n_varsigma", [(3, 2), (1, 2), (2, 3), (2, 1)],
                         ids=["long-beta", "short-beta", "long-varsigma", "short-varsigma"])
def test_entry_points_check_the_point_sizes(rng, name, n_beta, n_varsigma):
    # a point that does not match (p, k) = (2, 2) is named with both sizes,
    # never computed on (a numpy matmul error, or numbers)
    data, spec = make_dataset(rng, g=3, p=2), ModelSpec(alpha=(0, 1))
    params = Parameters(np.full(n_beta, 0.5), np.full(n_varsigma, 0.3), 1.0)
    message = (f"params has {n_beta} beta and {n_varsigma} varsigma entries, "
               "the model has p=2 and k=2")
    assert_rejects(POINT_ENTRY_POINTS[name], ValueError, message, data, spec, params)
