import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_rejects, make_dataset, random_params
from dense import joint_objective
from cslme.model import Dataset, GroupData, ModelSpec, Parameters
from cslme.ranef import (
    GroupQp,
    group_qps,
    kkt_residual,
    solve_all,
    solve_group,
)


def qp_value(qp, gamma):
    r = qp.ytilde - qp.Ztilde @ gamma
    pen = 0.0
    for i in range(gamma.size):
        if qp.Sigma_hat_diag[i] > 0:
            pen += gamma[i] ** 2 / qp.Sigma_hat_diag[i]
        elif gamma[i] != 0.0:
            return np.inf
    return float(r @ r) / qp.sigma_hat ** 2 + pen


def random_qp(rng, k=1, n=12, bounded=True):
    Z = rng.normal(size=(n, k))
    y = rng.normal(scale=2.0, size=n)
    bounds = rng.uniform(0.05, 1.5, size=k) if bounded else np.full(k, 1e6)
    return GroupQp(Ztilde=Z, ytilde=y, sigma_hat=float(rng.uniform(0.5, 2.0)),
                   Sigma_hat_diag=rng.uniform(0.05, 2.0, size=k) ** 2,
                   bounds=bounds)


class TestSolveGroup:
    def test_zero_residual_gives_zero(self, rng):
        qp = GroupQp(Ztilde=rng.normal(size=(6, 2)), ytilde=np.zeros(6),
                     sigma_hat=1.0, Sigma_hat_diag=np.array([0.5, 0.5]),
                     bounds=np.array([1.0, 1.0]))
        np.testing.assert_array_equal(solve_group(qp), 0.0)

    def test_zero_bounds_give_zero(self, rng):
        qp = GroupQp(Ztilde=rng.normal(size=(6, 2)), ytilde=rng.normal(size=6),
                     sigma_hat=1.0, Sigma_hat_diag=np.array([0.5, 0.5]),
                     bounds=np.zeros(2))
        np.testing.assert_array_equal(solve_group(qp), 0.0)

    def test_zero_variance_coordinate_fixed(self, rng):
        qp = GroupQp(Ztilde=rng.normal(size=(8, 2)), ytilde=rng.normal(size=8),
                     sigma_hat=1.0, Sigma_hat_diag=np.array([0.0, 0.4]),
                     bounds=np.array([1.0, 1.0]))
        sol = solve_group(qp)
        assert sol[0] == 0.0
        assert abs(sol[1]) <= 1.0

    def test_k1_closed_form_and_grid(self, rng):
        for _ in range(25):
            qp = random_qp(rng, k=1)
            sol = solve_group(qp)[0]
            z = qp.Ztilde[:, 0]
            num = float(z @ qp.ytilde) / qp.sigma_hat ** 2
            den = float(z @ z) / qp.sigma_hat ** 2 + 1.0 / qp.Sigma_hat_diag[0]
            closed = float(np.clip(num / den, -qp.bounds[0], qp.bounds[0]))
            assert sol == pytest.approx(closed, abs=1e-10)
            grid = np.linspace(-qp.bounds[0], qp.bounds[0], 10_001)
            vals = [qp_value(qp, np.array([g])) for g in grid]
            assert sol == pytest.approx(grid[int(np.argmin(vals))], abs=2e-4)

    def test_k2_grid_oracle(self, rng):
        for _ in range(5):
            qp = random_qp(rng, k=2)
            sol = solve_group(qp)
            g1 = np.linspace(-qp.bounds[0], qp.bounds[0], 100)
            g2 = np.linspace(-qp.bounds[1], qp.bounds[1], 100)
            best, arg = np.inf, None
            for a in g1:
                for b in g2:
                    v = qp_value(qp, np.array([a, b]))
                    if v < best:
                        best, arg = v, (a, b)
            spacing = max(qp.bounds) / 50
            assert abs(sol[0] - arg[0]) <= spacing
            assert abs(sol[1] - arg[1]) <= spacing
            assert qp_value(qp, sol) <= best + 1e-12

    def test_unbounded_limit_is_ridge(self, rng):
        for _ in range(10):
            qp = random_qp(rng, k=3, bounded=False)
            sol = solve_group(qp)
            Z = qp.Ztilde
            H = Z.T @ Z + qp.sigma_hat ** 2 * np.diag(1.0 / qp.Sigma_hat_diag)
            ridge = np.linalg.solve(H, Z.T @ qp.ytilde)
            np.testing.assert_allclose(sol, ridge, rtol=1e-8, atol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.integers(1, 4))
    def test_kkt_and_box_membership(self, seed, k):
        rng = np.random.default_rng(seed)
        qp = random_qp(rng, k=k)
        sol = solve_group(qp)
        assert np.all(np.abs(sol) <= qp.bounds)
        assert kkt_residual(qp, sol) < 1e-8


class TestSolveAll:
    def test_identical_groups_identical_rows(self, rng):
        X = np.column_stack([np.ones(5), rng.normal(size=5)])
        y = rng.normal(size=5)
        data = Dataset(tuple(GroupData(i, y.copy(), X.copy()) for i in range(3)))
        params = Parameters(beta=np.array([0.5, 0.3]), varsigma=np.array([0.4, 0.2]),
                            sigma=1.0)
        spec = ModelSpec(alpha=(0, 1))
        effects = solve_all(data, params, spec)
        np.testing.assert_array_equal(effects.gamma[0], effects.gamma[1])
        np.testing.assert_array_equal(effects.gamma[0], effects.gamma[2])

    def test_joint_optimum_beats_feasible_probes(self, rng):
        data = make_dataset(rng, g=4, p=3)
        spec = ModelSpec(alpha=(0, 1))
        params = random_params(rng, 3, spec.alpha)
        effects = solve_all(data, params, spec)
        best = joint_objective(data, params, spec, effects.gamma)
        bounds = np.abs(params.beta[list(spec.alpha)])
        for _ in range(500):
            probe = rng.uniform(-1.0, 1.0, size=effects.gamma.shape) * bounds
            assert joint_objective(data, params, spec, probe) >= best - 1e-10

    def test_decomposability_matches_stacked_qp(self, rng):
        from cslme.ranef import _box_qp

        data = make_dataset(rng, g=3, p=3)
        spec = ModelSpec(alpha=(0, 1))
        params = random_params(rng, 3, spec.alpha)
        effects = solve_all(data, params, spec)
        qps = group_qps(data, params, spec)
        # stacked joint problem over all g*k coordinates at once
        blocks, cs, lo, hi = [], [], [], []
        for qp in qps:
            Z = qp.Ztilde
            H = 2.0 * (Z.T @ Z / qp.sigma_hat ** 2 + np.diag(1.0 / qp.Sigma_hat_diag))
            blocks.append(H)
            cs.append(2.0 * Z.T @ qp.ytilde / qp.sigma_hat ** 2)
            lo.extend(-qp.bounds)
            hi.extend(qp.bounds)
        k = spec.k
        H_full = np.zeros((3 * k, 3 * k))
        for ell, H in enumerate(blocks):
            H_full[ell * k:(ell + 1) * k, ell * k:(ell + 1) * k] = H
        stacked = _box_qp(H_full, np.concatenate(cs), np.asarray(lo), np.asarray(hi))
        np.testing.assert_allclose(effects.gamma.reshape(-1), stacked, atol=1e-8)

    def test_boundary_flags(self, rng):
        # huge residual forces the deviation onto its bound
        Z = np.ones((4, 1))
        data = Dataset((GroupData("hot", 10.0 + rng.normal(size=4) * 0.01,
                                  np.column_stack([Z, rng.normal(size=(4, 1))])),
                        GroupData("cold", rng.normal(size=4) * 0.01,
                                  np.column_stack([Z, rng.normal(size=(4, 1))]))))
        params = Parameters(beta=np.array([0.5, 0.0]), varsigma=np.array([5.0]),
                            sigma=0.5)
        spec = ModelSpec(alpha=(0,))
        effects = solve_all(data, params, spec)
        assert effects.at_bound[0, 0]
        assert effects.gamma[0, 0] == 0.5  # exactly at +beta


def _qp(**fields):
    """A one-column GroupQp over four rows, with `fields` replaced."""
    base = dict(Ztilde=np.ones((4, 1)), ytilde=np.ones(4), sigma_hat=1.0,
                Sigma_hat_diag=np.ones(1), bounds=np.ones(1))
    return GroupQp(**{**base, **fields})


# Each row: what raises, the exception's exact type and a fragment of its
# message that names the field.
RANEF_REJECTIONS = {
    "sigma-zero": (lambda: _qp(sigma_hat=0.0), ValueError, "sigma_hat must be positive"),
    "negative-variance": (lambda: _qp(Sigma_hat_diag=[-1.0]), ValueError,
                          "variances and bounds must be nonnegative"),
    "negative-bound": (lambda: _qp(bounds=[-0.5]), ValueError,
                       "variances and bounds must be nonnegative"),
    "design-columns": (lambda: _qp(Ztilde=np.ones((4, 2))), ValueError,
                       "inconsistent QP dimensions"),
    "variance-count": (lambda: _qp(Sigma_hat_diag=np.ones(2)), ValueError,
                       "inconsistent QP dimensions"),
}


@pytest.mark.parametrize("name", RANEF_REJECTIONS)
def test_ranef_boundary_rejections(name):
    assert_rejects(*RANEF_REJECTIONS[name])


def test_kkt_residual_is_zero_without_a_live_coordinate():
    # a zero variance or a zero bound fixes the coordinate at 0: nothing to violate
    for qp in (_qp(Sigma_hat_diag=[0.0]), _qp(bounds=[0.0])):
        assert kkt_residual(qp, np.array([0.0])) == 0.0
        assert kkt_residual(qp, solve_group(qp)) == 0.0
