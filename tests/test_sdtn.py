import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from cslme.model import re_variances
from cslme.sim import deviation_sd
from cslme.sdtn import (
    SERIES_RHO,
    SMALL_RHO,
    SdtnParams,
    sdtn_cdf,
    sdtn_linear_transform,
    sdtn_pdf,
    sdtn_ppf,
    sdtn_sample,
    sdtn_variance,
    standardized_sum,
    std_normal_cdf,
    std_normal_pdf,
    variance_factor,
)

law_st = st.builds(
    SdtnParams,
    mu=st.floats(-5, 5),
    eta=st.floats(0.1, 3.0),
    rho=st.floats(0.05, 5.0),
)


class TestSdtnParams:
    @pytest.mark.parametrize("mu, eta", [(math.nan, 1.0), (math.inf, 1.0), (0.0, math.inf),
                                         (0.0, math.nan)])
    def test_rejects_a_non_finite_location_or_scale(self, mu, eta):
        with pytest.raises(ValueError, match="finite"):
            SdtnParams(mu, eta, 1.0)

    def test_infinite_ratio_allowed(self):
        # |beta| / varsigma overflows to +inf at a subnormal varsigma
        law = SdtnParams(0.0, 1e-310, math.inf)
        assert (law.lower, law.upper) == (-math.inf, math.inf)
        assert np.isfinite(sdtn_ppf([0.25, 0.75], law)).all()


class TestStdNormal:
    def test_pdf_at_zero(self):
        assert std_normal_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-15)

    def test_pdf_at_one(self):
        # frozen from the direct formula exp(-1/2)/sqrt(2*pi)
        assert std_normal_pdf(1.0) == pytest.approx(0.24197072451914337, abs=1e-15)

    def test_pdf_even(self):
        x = np.linspace(0.0, 6.0, 101)
        np.testing.assert_array_equal(std_normal_pdf(x), std_normal_pdf(-x))

    def test_cdf_at_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_cdf_tail_limit(self):
        assert abs(std_normal_cdf(40.0) - 1.0) < 1e-15

    def test_cdf_quantile_value(self):
        # oracle: adaptive quadrature of the density
        oracle, err = integrate.quad(std_normal_pdf, -40.0, 1.96)
        assert err < 1e-10
        assert std_normal_cdf(1.96) == pytest.approx(oracle, abs=1e-10)
        assert std_normal_cdf(1.96) == pytest.approx(0.9750021048517795, abs=1e-12)

    def test_cdf_monotone(self):
        x = np.linspace(-8, 8, 400)
        assert np.all(np.diff(std_normal_cdf(x)) > 0)


class TestSdtnPdf:
    def test_zero_just_outside_support(self):
        p = SdtnParams(mu=1.0, eta=0.5, rho=2.0)
        eps = 1e-9
        assert sdtn_pdf(p.lower - eps, p) == 0.0
        assert sdtn_pdf(p.upper + eps, p) == 0.0

    def test_center_value(self):
        p = SdtnParams(mu=0.0, eta=1.0, rho=2.0)
        expected = std_normal_pdf(0.0) / (2 * std_normal_cdf(2.0) - 1)
        assert sdtn_pdf(0.0, p) == pytest.approx(expected, rel=1e-14)
        mass, _ = integrate.quad(lambda t: sdtn_pdf(t, p), p.lower, p.upper)
        assert mass == pytest.approx(1.0, abs=1e-10)

    def test_matches_tn_under_symmetric_bounds(self, rng):
        for _ in range(10):
            p = SdtnParams(mu=float(rng.normal()), eta=float(rng.uniform(0.2, 2)),
                           rho=float(rng.uniform(0.1, 4)))
            xs = rng.uniform(p.lower, p.upper, size=7)
            np.testing.assert_allclose(
                sdtn_pdf(xs, p),
                stats.truncnorm(-p.rho, p.rho, loc=p.mu, scale=p.eta).pdf(xs), rtol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(eta=st.floats(0.1, 3.0), rho=st.floats(0.05, 5.0), frac=st.floats(0.0, 1.0))
    def test_symmetry_exact_centered(self, eta, rho, frac):
        # +d and -d are exactly representable mirrors of each other, so the
        # densities must agree bit for bit
        law = SdtnParams(mu=0.0, eta=eta, rho=rho)
        d = frac * rho * eta
        assert sdtn_pdf(d, law) == sdtn_pdf(-d, law)

    @settings(max_examples=60, deadline=None)
    @given(law=law_st, frac=st.floats(0.0, 1.0))
    def test_symmetry_general_location(self, law, frac):
        # fl(mu+d) and fl(mu-d) are not exact mirrors, so equality holds to
        # rounding of the evaluation points only
        d = frac * law.rho * law.eta
        assert sdtn_pdf(law.mu + d, law) == pytest.approx(
            sdtn_pdf(law.mu - d, law), rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(law=law_st)
    def test_unit_mass(self, law):
        mass, _ = integrate.quad(lambda t: sdtn_pdf(t, law), law.lower, law.upper,
                                 limit=200)
        assert mass == pytest.approx(1.0, abs=1e-8)


class TestVarianceFactor:
    def test_small_rho_limit(self):
        rho = 1e-6
        assert variance_factor(rho) == pytest.approx(rho ** 2 / 3.0, rel=1e-11)

    def test_untruncated_limit(self):
        assert 1.0 - 1e-12 <= variance_factor(40.0) <= 1.0

    def test_matches_quadrature_at_one(self):
        p = SdtnParams(mu=0.0, eta=1.0, rho=1.0)
        oracle, err = integrate.quad(lambda t: t * t * sdtn_pdf(t, p), -1, 1)
        assert err < 1e-12
        assert variance_factor(1.0) == pytest.approx(oracle, rel=1e-10)

    def test_monotone_on_log_grid(self):
        grid = np.logspace(-4, math.log10(40.0), 200)
        vals = np.array([variance_factor(r) for r in grid])
        assert np.all(np.diff(vals) >= 0)
        assert np.all((vals >= 0) & (vals <= 1))

    def test_branch_continuity_at_threshold(self):
        rho = SMALL_RHO
        closed = 1.0 - 2 * rho * std_normal_pdf(rho) / (2 * std_normal_cdf(rho) - 1)
        series = rho ** 2 / 3.0 - 2.0 * rho ** 4 / 45.0
        assert abs(closed - series) < 1e-10

    def test_matches_quadrature_through_the_series_branch(self):
        # vf(rho) / rho^2 is the second moment of u on [-1, 1] with density
        # proportional to exp(-rho^2 u^2 / 2): no cancellation at small rho
        def oracle(rho):
            def moment(j):
                return integrate.quad(lambda u: u ** j * math.exp(-0.5 * rho * rho * u * u),
                                      -1.0, 1.0, epsabs=0.0, epsrel=2e-14)[0]
            return rho * rho * moment(2) / moment(0)

        grid = np.concatenate([np.logspace(-8.0, math.log10(SMALL_RHO), 20),
                               np.logspace(math.log10(SMALL_RHO), math.log10(SERIES_RHO), 40),
                               np.logspace(math.log10(SERIES_RHO), 1.0, 20)])
        for rho in grid:
            assert variance_factor(rho) == pytest.approx(oracle(rho), rel=2e-13, abs=0.0)

    def test_series_branch_continuity_at_threshold(self):
        below = variance_factor(np.nextafter(SERIES_RHO, 0.0))
        assert abs(variance_factor(SERIES_RHO) - below) <= 1e-13 * below

    def test_underflowing_tail_is_the_limit_one(self):
        assert variance_factor(math.inf) == 1.0
        assert variance_factor(1e200) == 1.0
        # the ratio |beta| / varsigma overflows to inf at a subnormal scale
        np.testing.assert_array_equal(re_variances([1.0], [1e-310], (0,)), [0.0])
        assert deviation_sd("PLS", 1.0, 1e-310) == 1e-310

    def test_variance_bounded_by_eta_sq(self, rng):
        for _ in range(50):
            eta = float(rng.uniform(0.1, 3))
            rho = float(rng.uniform(0.01, 20))
            assert eta ** 2 * variance_factor(rho) <= eta ** 2

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            variance_factor(0.0)
        with pytest.raises(ValueError):
            variance_factor(-1.0)
        for bad in (0.0, -0.0, -1.0, -math.inf, math.nan):
            for rho in (np.array([1.0, bad, 2.0]), np.array([[1.0, 2.0], [3.0, bad]])):
                with pytest.raises(ValueError, match="rho must be positive"):
                    variance_factor(rho)

    def test_array_equals_each_scalar_call_bit_for_bit(self):
        lo, hi = 30.0, 40.0  # hi ends as the first rho where exp(-rho^2/2) underflows
        while np.nextafter(lo, hi) < hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if math.exp(-0.5 * mid * mid) == 0.0 else (mid, hi)
        rho = np.array([SERIES_RHO, np.nextafter(SERIES_RHO, 0.0), hi, lo, 1e200, math.inf,
                        SMALL_RHO, 1.0, 1e-8])
        for shaped in (rho, rho.reshape(3, 3), rho[:1], rho[:0].reshape(0, 2)):
            out = variance_factor(shaped)
            assert out.shape == shaped.shape
            assert [v.hex() for v in out.ravel().tolist()] == \
                [variance_factor(r).hex() for r in shaped.ravel().tolist()]
        assert variance_factor(hi) == 1.0 and type(variance_factor(hi)) is float


class TestSampler:
    def test_support_and_determinism(self):
        p = SdtnParams(mu=2.0, eta=1.5, rho=1.2)
        x = sdtn_sample(p, 50_000, seed=3)
        assert np.all(x >= p.lower) and np.all(x <= p.upper)
        np.testing.assert_array_equal(x, sdtn_sample(p, 50_000, seed=3))

    def test_moments_large_sample(self):
        p = SdtnParams(mu=-1.0, eta=2.0, rho=0.8)
        n = 1_000_000
        x = sdtn_sample(p, n, seed=11)
        assert x.mean() == pytest.approx(p.mu, abs=4 * p.eta / math.sqrt(n))
        assert x.var() == pytest.approx(sdtn_variance(p), rel=0.01)

    def test_ecdf_matches_analytic_cdf(self):
        p = SdtnParams(mu=0.5, eta=1.0, rho=2.5)
        x = sdtn_sample(p, 100_000, seed=5)
        ks = stats.kstest(x, lambda t: sdtn_cdf(t, p))
        assert ks.statistic < 0.01

    def test_ppf_rejects_nan_and_out_of_range_levels(self):
        law = SdtnParams(0.0, 1.0, 1.0)
        for q in ([0.5, math.nan], math.nan, [-0.1, 0.5], 1.5):
            with pytest.raises(ValueError, match=r"quantile levels must lie in \[0, 1\]"):
                sdtn_ppf(q, law)
        assert np.isfinite(sdtn_ppf([0.0, 0.5, 1.0], law)).all()

    def test_ppf_cdf_roundtrip(self, rng):
        p = SdtnParams(mu=1.0, eta=0.7, rho=1.8)
        q = rng.uniform(0.001, 0.999, size=200)
        np.testing.assert_allclose(sdtn_cdf(sdtn_ppf(q, p), p), q, atol=1e-12)


class TestLinearTransform:
    def test_identity(self):
        p = SdtnParams(mu=0.0, eta=1.3, rho=2.0)
        assert sdtn_linear_transform(p, 0.0, 1.0) == p

    def test_negation_preserves_centered_law(self):
        p = SdtnParams(mu=0.0, eta=1.0, rho=1.5)
        q = sdtn_linear_transform(p, 0.0, -1.0)
        assert q == p  # symmetric about 0, scale |k1|*eta

    @settings(max_examples=40, deadline=None)
    @given(law=law_st, k0=st.floats(-3, 3), k1=st.floats(0.1, 4))
    def test_density_transforms_correctly(self, law, k0, k1):
        q = sdtn_linear_transform(law, k0, k1)
        x = law.mu + 0.3 * law.rho * law.eta
        # change of variables: f_q(k0 + k1 x) = f_law(x)/|k1|
        assert sdtn_pdf(k0 + k1 * x, q) == pytest.approx(
            sdtn_pdf(x, law) / abs(k1), rel=1e-10)

    def test_sampled_transform_matches_target_density(self):
        base = SdtnParams(mu=0.0, eta=1.0, rho=1.5)
        target = SdtnParams(mu=3.0, eta=2.0, rho=1.5)
        x = 3.0 + 2.0 * sdtn_sample(base, 100_000, seed=13)
        ks = stats.kstest(x, lambda t: sdtn_cdf(t, target))
        assert ks.pvalue > 0.01

    def test_zero_slope_rejected(self):
        with pytest.raises(ValueError):
            sdtn_linear_transform(SdtnParams(0.0, 1.0, 1.0), 1.0, 0.0)


class TestStandardizedSum:
    def test_single_law_centered_draw(self):
        law = SdtnParams(mu=2.0, eta=1.0, rho=1.0)
        out = standardized_sum([law], np.array([[2.0]]))
        assert out[0] == 0.0

    def test_column_count_mismatch(self):
        laws = [SdtnParams(0.0, 1.0, 1.0)] * 3
        with pytest.raises(ValueError):
            standardized_sum(laws, np.zeros((10, 2)))

    def test_unit_variance(self, rng):
        laws = [SdtnParams(float(rng.uniform(-1, 1)), float(rng.uniform(0.5, 2)),
                           float(rng.uniform(0.5, 3))) for _ in range(50)]
        draws = np.column_stack(
            [sdtn_sample(p, 4000, seed=100 + i) for i, p in enumerate(laws)])
        z = standardized_sum(laws, draws)
        assert z.mean() == pytest.approx(0.0, abs=4 / math.sqrt(4000))
        assert z.var() == pytest.approx(1.0, rel=0.1)

    def test_weighted_sum_normal_limit(self, rng):
        n_laws, n_draws = 200, 5000
        laws = [SdtnParams(float(rng.uniform(-1, 1)), float(rng.uniform(0.5, 2)),
                           float(rng.uniform(0.5, 3))) for _ in range(n_laws)]
        weights = rng.uniform(0.5, 2.0, size=n_laws)
        draws = np.column_stack(
            [sdtn_sample(p, n_draws, seed=500 + i) for i, p in enumerate(laws)])
        z = standardized_sum(laws, draws, weights=weights)
        ks = stats.kstest(z, "norm")
        assert ks.pvalue > 0.01
