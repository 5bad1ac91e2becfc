import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_rejects, make_dataset
from cslme.metrics import r_squared, rmse
from cslme.model import ModelSpec, Parameters, sdtn_variances
from cslme.sim import builtin_scenarios, fit_method, replication_data


class TestRmse:
    def test_exact_match_is_zero(self):
        est = {"a": 1.0, "b": 2.0}
        assert rmse(est, dict(est)) == 0.0

    def test_single_offset(self):
        assert rmse({"a": 1.1}, {"a": 1.0}) == pytest.approx(0.1, abs=1e-12)

    def test_five_parameter_subset_hand_computed(self):
        est = {"b10": 0.0, "b20": 0.0, "b1": 1.052, "b2": 0.995, "sigma": 0.976,
               "spread": 9.9}
        tru = {"b10": 0.0, "b20": 0.144, "b1": 1.0, "b2": 1.0, "sigma": 1.0,
               "spread": 0.0}
        subset = ["b10", "b20", "b1", "b2", "sigma"]
        expected = math.sqrt((0.144 ** 2 + 0.052 ** 2 + 0.005 ** 2 + 0.024 ** 2) / 5)
        assert rmse(est, tru, subset) == pytest.approx(expected, rel=1e-12)

    def test_missing_label(self):
        with pytest.raises(KeyError):
            rmse({"a": 1.0}, {"a": 1.0, "b": 2.0}, ["a", "b"])

    @settings(max_examples=30, deadline=None)
    @given(values=st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
                           min_size=1, max_size=8),
           scale=st.floats(0.1, 10.0), seed=st.integers(0, 1000))
    def test_permutation_invariance_and_scaling(self, values, scale, seed):
        labels = [f"p{i}" for i in range(len(values))]
        est = {k: v[0] for k, v in zip(labels, values)}
        tru = {k: v[1] for k, v in zip(labels, values)}
        base = rmse(est, tru, labels)
        perm = list(np.random.default_rng(seed).permutation(labels))
        assert rmse(est, tru, perm) == pytest.approx(base, rel=1e-12)
        est_s = {k: scale * v for k, v in est.items()}
        tru_s = {k: scale * v for k, v in tru.items()}
        assert rmse(est_s, tru_s, labels) == pytest.approx(scale * base, rel=1e-9)


class TestRSquared:
    def test_zero_random_variance_equalizes(self, rng):
        data = make_dataset(rng, g=2, p=2)
        spec = ModelSpec(alpha=(0,))
        params = Parameters(beta=np.array([0.5, 1.0]), varsigma=np.array([0.0]),
                            sigma=1.0)
        m, c = r_squared(params, data, spec)
        assert m == c

    def test_constant_prediction_zero_marginal(self, rng):
        data = make_dataset(rng, g=2, p=2)
        spec = ModelSpec(alpha=(0,))
        params = Parameters(beta=np.array([2.0, 0.0]), varsigma=np.array([0.7]),
                            sigma=1.0)
        # slope 0 and constant intercept column: predictions are constant
        m, c = r_squared(params, data, spec)
        assert m == 0.0
        assert c == pytest.approx(0.49 / (0.49 + 1.0), rel=1e-12)

    def test_matches_direct_formula(self, rng):
        data = make_dataset(rng, g=3, p=3)
        spec = ModelSpec(alpha=(0, 1))
        params = Parameters(beta=np.array([0.4, 1.1, 0.6]),
                            varsigma=np.array([0.5, 0.2]), sigma=0.9)
        y_hat = np.concatenate([gd.X @ params.beta for gd in data.groups])
        vf = float(np.mean((y_hat - y_hat.mean()) ** 2))
        vr = 0.25 + 0.04
        m, c = r_squared(params, data, spec)
        assert m == pytest.approx(vf / (vf + vr + 0.81), rel=1e-12)
        assert c == pytest.approx((vf + vr) / (vf + vr + 0.81), rel=1e-12)
        assert 0.0 <= m <= c <= 1.0

    def test_effective_mode_uses_deflated_variances(self, rng):
        data = make_dataset(rng, g=2, p=2)
        spec = ModelSpec(alpha=(0,))
        params = Parameters(beta=np.array([1.0, 0.5]), varsigma=np.array([0.8]),
                            sigma=1.0)
        m_raw, c_raw = r_squared(params, data, spec)
        m_eff, c_eff = r_squared(params, data, spec, effective=True)
        assert c_eff < c_raw  # deflated variance shrinks the deviation term
        vr = float(np.sum(sdtn_variances(params, spec)))
        y_hat = np.concatenate([gd.X @ params.beta for gd in data.groups])
        vfix = float(np.mean((y_hat - y_hat.mean()) ** 2))
        assert c_eff == pytest.approx((vfix + vr) / (vfix + vr + 1.0), rel=1e-12)

    def test_unflagged_columns_change_nothing(self, rng):
        data = make_dataset(rng, g=3, p=3)
        spec = ModelSpec(alpha=(0, 1))
        params = Parameters(beta=np.array([0.4, 1.1, 0.6]),
                            varsigma=np.array([0.5, 0.2]), sigma=0.9)
        for effective in (False, True):
            assert r_squared(params, data, spec, effective, at_limit=(False, False)) == \
                r_squared(params, data, spec, effective)


class TestRSquaredAtTheUniformLimit:
    """Replication 7 of intercept-p3-n300, whose PLS and PRLS fits both end
    with the intercept's variance share at Q_MAX."""

    @pytest.fixture(scope="class")
    def fits(self):
        scenario = builtin_scenarios()["intercept-p3-n300"]
        data, _, seed = replication_data(scenario, 7)
        spec = scenario.model_spec()
        return data, spec, {m: fit_method(m, data, spec, seed=seed) for m in ("PLS", "PRLS")}

    @pytest.mark.parametrize("method", ["PLS", "PRLS"])
    def test_raw_pair_is_its_limit(self, fits, method):
        data, spec, res = fits[0], fits[1], fits[2][method]
        assert res.at_limit == (True,)
        b = res.params.beta[0]
        assert 2.7e7 * b < res.params.varsigma[0] < 2.9e7 * b
        assert r_squared(res.params, data, spec, at_limit=res.at_limit) == (0.0, 1.0)
        # unflagged, the finite stand-in gives the limit only to rounding
        m, c = r_squared(res.params, data, spec)
        assert 0.0 < m < 1e-12 and 1.0 - 1e-12 < c < 1.0

    @pytest.mark.parametrize("method", ["PLS", "PRLS"])
    def test_effective_pair_is_finite_and_ignores_the_flags(self, fits, method):
        data, spec, res = fits[0], fits[1], fits[2][method]
        b = res.params.beta[0]
        assert sdtn_variances(res.params, spec)[0] == pytest.approx(b * b / 3.0, rel=1e-15)
        m, c = r_squared(res.params, data, spec, effective=True)
        assert (m, c) == r_squared(res.params, data, spec, effective=True,
                                   at_limit=res.at_limit)
        assert 0.5 < m < c < 1.0


def _intercept_replication():
    """Replication 0 of `intercept-p3-n300` (p = 3, k = 1) and its spec."""
    scenario = builtin_scenarios()["intercept-p3-n300"]
    return replication_data(scenario, 0)[0], scenario.model_spec()


# Each row: what raises, the exception's exact type and a fragment of its
# message that names the subset or the point's sizes.
METRICS_REJECTIONS = {
    "rmse-empty-subset": (lambda: rmse({"a": 1.0}, {"a": 1.0}, subset=[]), ValueError,
                          "empty parameter subset"),
    "r_squared-extra-varsigma": (
        lambda: r_squared(Parameters(np.ones(3), np.full(2, 0.5), 1.0),
                          *_intercept_replication()),
        ValueError, "params has 3 beta and 2 varsigma entries, the model has p=3 and k=1"),
    "r_squared-short-beta": (
        lambda: r_squared(Parameters(np.ones(2), np.full(1, 0.5), 1.0),
                          *_intercept_replication()),
        ValueError, "params has 2 beta and 1 varsigma entries, the model has p=3 and k=1"),
}


@pytest.mark.parametrize("name", METRICS_REJECTIONS)
def test_metrics_boundary_rejections(name):
    assert_rejects(*METRICS_REJECTIONS[name])
