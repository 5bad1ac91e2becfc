"""Exact (f, grad f) of the covariance core, PLS, PRLS, ML and REML, and
the exact PLS/PRLS Hessian, against the Richardson oracle.

The oracle is the Richardson-extrapolated central difference of criterion
10, applied to value-only objectives; the exact gradients must agree with
it to 1e-4 relative, and their values must equal the value-only
objectives. PLS/PRLS search x = (beta, q, log sigma) with d = beta_alpha^2
q; their oracle is the dense n x n criterion at that d, which stays smooth
across both bounds of q, so the differences may step past them. ML/REML
search the relative variances v = d / sigma^2 >= 0 with sigma profiled
out; their oracle is `profile_loglik` (`reml_loglik`) at the profiled
sigma, which cannot step below v = 0, so it takes forward differences
there. The PLS/PRLS Hessian is checked against Richardson differences of
the exact gradient, forward ones in q near q = 0, as the exact gradient
is not defined at d = beta_alpha^2 q < 0.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from conftest import make_dataset, random_params
from dense import assemble, central_diff_grad
from cslme.baseline import Theta, criterion_and_gradient, profile_loglik, reml_loglik
from cslme.estimate import objective_gradient_hessian, pls_objective, prls_objective
from cslme.model import (
    Q_MAX,
    BlockDesign,
    Dataset,
    GroupData,
    ModelSpec,
    to_shares,
    unpack_shares,
)
from cslme.sdtn import SMALL_RHO

# where one random-effect column sits: anywhere, at a zero coefficient, at
# either bound of q, or with its truncation ratio just below or above SMALL_RHO
POINT_KINDS = ("interior", "beta_zero", "q_zero", "q_max", "rho_below", "rho_above")


def richardson_grad(fun, x, h0=None):
    if h0 is None:
        h0 = 1e-3 * np.maximum(np.abs(x), 1.0)
    d1 = central_diff_grad(fun, x, h=h0)
    d2 = central_diff_grad(fun, x, h=h0 / 2)
    d4 = central_diff_grad(fun, x, h=h0 / 4)
    r1 = (4 * d2 - d1) / 3
    r2 = (4 * d4 - d2) / 3
    return (16 * r2 - r1) / 15


def assert_matches_oracle(fun, batch_fun_and_grad, x, value_only=None, h0=None):
    """`batch_fun_and_grad` at x as a batch of one: its value equals the
    value-only objective's, its gradient the Richardson oracle's."""
    (value,), (grad,) = batch_fun_and_grad(x[None])
    assert value == pytest.approx((value_only or fun)(x), rel=1e-12)
    oracle = richardson_grad(fun, x, h0)
    assert np.linalg.norm(grad - oracle) <= 1e-4 * np.linalg.norm(oracle)


def dense_share_criterion(data, spec, restricted):
    """The PLS (PRLS) value at x = (beta, q, log sigma) from the dense V with
    d = beta_alpha^2 q, for any real q at which V is nonsingular."""
    X, Z, y, _ = assemble(data, spec)
    p, k = data.p, spec.k

    def fun(x):
        d = x[list(spec.alpha)] ** 2 * x[p:p + k]
        V = (Z * np.tile(d, data.g)) @ Z.T + math.exp(2.0 * x[-1]) * np.eye(len(y))
        r = y - X @ x[:p]
        value = r @ np.linalg.solve(V, r) + np.linalg.slogdet(V)[1]
        if restricted:
            value += np.linalg.slogdet(X.T @ np.linalg.solve(V, X))[1]
        return float(value)

    return fun


def share_steps(x, p, k):
    """Richardson's first steps: 1e-3 max(|x_i|, 1), but 1e-5 for q, so that a
    step past q = 0 keeps V positive definite."""
    h0 = 1e-3 * np.maximum(np.abs(x), 1.0)
    h0[p:p + k] = 1e-5
    return h0


@st.composite
def gradient_cases(draw):
    """Ragged and one-row groups, k in {1, 2, 3}, one column at a special point.

    Returns (data, spec, x = (beta, varsigma, log sigma), the column whose q
    goes to its upper bound or None)."""
    k = draw(st.integers(1, 3))
    p = draw(st.integers(k, 4))
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    sizes[0] += max(0, p + 2 - sum(sizes))  # X^T V^-1 X stays nonsingular
    kind = draw(st.sampled_from(POINT_KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    data = make_dataset(rng, g=len(sizes), sizes=sizes, p=p)
    spec = ModelSpec(alpha=tuple(sorted(rng.choice(p, size=k, replace=False))))
    params = random_params(rng, p, spec.alpha)
    beta, varsigma = params.beta.copy(), params.varsigma.copy()
    i = int(rng.integers(k))
    col = spec.alpha[i]
    if kind == "beta_zero":
        beta[col] = 0.0
    elif kind == "q_zero":
        varsigma[i] = 0.0
    elif kind == "rho_below":
        beta[col] = 0.5 * SMALL_RHO * varsigma[i]
    elif kind == "rho_above":
        beta[col] = 2.0 * SMALL_RHO * varsigma[i]
    x = np.concatenate([beta, varsigma, [math.log(params.sigma)]])
    return data, spec, x, i if kind == "q_max" else None


def profiled_sigma2(data, spec, restricted):
    """sigma^2(v) minimizing the ML (REML) criterion over sigma at relative
    variances v, from the dense V0 = I + Z diag(v) Z^T: q0 / (n - p
    [restricted]), q0 the GLS residual's r^T V0^{-1} r, floored at
    exp(log_sigma_floor)^2."""
    X, Z, y, _ = assemble(data, spec)
    floor = math.exp(BlockDesign(data, spec).log_sigma_floor)

    def sigma2(v):
        V0 = (Z * np.tile(v, data.g)) @ Z.T + np.eye(len(y))
        Vinv_X = np.linalg.solve(V0, X)
        r = y - X @ np.linalg.solve(X.T @ Vinv_X, Vinv_X.T @ y)
        q0 = float(r @ np.linalg.solve(V0, r))
        return max(q0 / (data.n - data.p * restricted), floor * floor)

    return sigma2


def richardson_partials(fun, x, h0, forward):
    """The gradient of `fun` at x from differences at steps h0, h0/2 and h0/4,
    Richardson-extrapolated: central ones (error O(h^6)), or forward ones
    (O(h^3)) on the coordinates where `forward` is set. For an array-valued
    `fun`, row i holds the partials in x_i of its entries."""
    grad = [None] * x.size
    for i in range(x.size):
        def diff(h):
            e = np.zeros(x.size)
            e[i] = h
            if forward[i]:
                return (fun(x + e) - fun(x)) / h
            return (fun(x + e) - fun(x - e)) / (2.0 * h)

        d1, d2, d4 = (diff(h0[i] / m) for m in (1, 2, 4))
        grad[i] = ((8 * d4 - 6 * d2 + d1) / 3 if forward[i]
                   else (64 * d4 - 20 * d2 + d1) / 45)
    return np.array(grad)


@st.composite
def profiled_cases(draw):
    """Ragged and one-row groups, k in {1, 2, 3}, relative variances v with
    some entries 0 and, in a near-exact fit, the sigma floor binding.

    Returns (data, spec, v, whether the floor binds at v)."""
    at_floor = draw(st.booleans())
    k = draw(st.integers(1, 3))
    p = draw(st.integers(max(k, 1 + at_floor), 4))
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    sizes[0] += max(0, p + 2 - sum(sizes))  # X^T V^-1 X stays nonsingular
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    data = make_dataset(rng, g=len(sizes), sizes=sizes, p=p)
    if at_floor:  # y = X b + noise: sigma_hat is about 1e-11 sd(y), the floor 1e-6 sd(y)
        b = np.concatenate([rng.normal(size=p - 1), [1.0]])  # X b is not constant
        scale = 1e-11 * float(np.std(np.concatenate([gd.X @ b for gd in data.groups])))
        data = Dataset(tuple(GroupData(gd.group_id, gd.X @ b + scale * rng.normal(size=gd.n),
                                       gd.X) for gd in data.groups))
    spec = ModelSpec(alpha=tuple(sorted(rng.choice(p, size=k, replace=False))),
                     constrained=False)
    v = rng.gamma(2.0, 0.3, size=k)
    v[draw(st.lists(st.booleans(), min_size=k, max_size=k))] = 0.0
    return data, spec, v, at_floor


@st.composite
def core_points(draw):
    """Ragged and one-row groups, k in {1, 2, 3}, and a point y = (beta, d,
    log sigma) of the covariance core, with some variances d_i = 0.

    Returns (data, spec, y)."""
    k = draw(st.integers(1, 3))
    p = draw(st.integers(k, 4))
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    sizes[0] += max(0, p + 2 - sum(sizes))  # X^T V^-1 X stays nonsingular
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    data = make_dataset(rng, g=len(sizes), sizes=sizes, p=p)
    spec = ModelSpec(alpha=tuple(sorted(rng.choice(p, size=k, replace=False))))
    d = rng.gamma(2.0, 0.3, size=k)
    d[draw(st.lists(st.booleans(), min_size=k, max_size=k))] = 0.0
    return data, spec, np.concatenate([rng.normal(size=p), d, [rng.normal(0.0, 0.5)]])


class TestCoreGradient:
    @settings(max_examples=60, deadline=None)
    @given(case=core_points(), restricted=st.booleans())
    def test_criterion_hessian_gradient_matches_richardson(self, case, restricted):
        # `criterion_hessian`'s (f, g) in y = (beta, d, log sigma): f is
        # `criterion` bit for bit, g its Richardson differences, forward ones
        # in d near d = 0, as the core rejects d < 0
        data, spec, y = case
        design = BlockDesign(data, spec)
        p = data.p

        def solve(z):
            return design.solve(z[None, p:-1], [math.exp(z[-1])])

        def criterion(z):
            return solve(z).criterion(z[None, :p], restricted)[0]

        (f,), (g,), _ = solve(y).criterion_hessian(y[None, :p], restricted)
        assert f == criterion(y)
        h0 = 1e-3 * np.maximum(np.abs(y), 1.0)
        forward = np.zeros(y.size, dtype=bool)
        forward[p:-1] = y[p:-1] < h0[p:-1]
        h0[forward] = 1e-6
        oracle = richardson_partials(criterion, y, h0, forward)
        assert np.linalg.norm(g - oracle) <= 1e-6 * np.linalg.norm(oracle)


class TestExactGradient:
    @settings(max_examples=60, deadline=None)
    @given(case=gradient_cases(), restricted=st.booleans())
    def test_pls_prls_match_richardson(self, case, restricted):
        data, spec, x, top = case
        design = BlockDesign(data, spec)
        p, k = data.p, spec.k
        x = to_shares(x, spec)
        if top is not None:
            x[p + top] = Q_MAX
        assert np.all((0.0 <= x[p:p + k]) & (x[p:p + k] <= Q_MAX))
        value_only = prls_objective if restricted else pls_objective

        def read_back(z):
            # the read-back varsigma reproduces d, so the value-only objective agrees
            return value_only(unpack_shares(z, spec), data, spec)

        assert_matches_oracle(
            dense_share_criterion(data, spec, restricted),
            lambda z: objective_gradient_hessian(design, spec, z, restricted)[:2], x,
            value_only=read_back, h0=share_steps(x, p, k))
        # the value is BlockSolve.criterion at d = beta_alpha^2 q, bit for bit
        (value,), *_ = objective_gradient_hessian(design, spec, x[None], restricted)
        sol = design.solve((x[list(spec.alpha)] ** 2 * x[p:p + k])[None], [math.exp(x[-1])])
        assert value == sol.criterion(x[None, :p], restricted)[0]

    @settings(max_examples=60, deadline=None)
    @given(case=profiled_cases(), criterion=st.sampled_from(("ML", "REML")))
    def test_ml_reml_match_richardson(self, case, criterion):
        data, spec, v, at_floor = case
        design = BlockDesign(data, spec)
        restricted = criterion == "REML"
        sigma2 = profiled_sigma2(data, spec, restricted)
        floor = math.exp(design.log_sigma_floor)
        assert (sigma2(v) == floor * floor) is at_floor
        loglik = reml_loglik if restricted else profile_loglik

        def fun(v):
            sigma = math.sqrt(sigma2(v))
            return -loglik(Theta(np.sqrt(v) * sigma, sigma), data, spec)

        (value,), (grad,) = criterion_and_gradient(v[None], design, criterion)
        assert value == pytest.approx(fun(v), rel=1e-12)
        h0 = 1e-4 * np.maximum(v, 1.0)
        oracle = richardson_partials(fun, v, h0, forward=v < h0)
        # plus the oracle's rounding, about 3e-11 |value|: with one group the fixed
        # effects absorb the deviations, and the REML criterion is flat in v
        assert (np.linalg.norm(grad - oracle)
                <= 1e-4 * np.linalg.norm(oracle) + 1e-9 * (1.0 + abs(value)))

    @settings(max_examples=60, deadline=None)
    @given(case=gradient_cases(), restricted=st.booleans())
    def test_pls_prls_hessian_matches_richardson(self, case, restricted):
        data, spec, x, top = case
        design = BlockDesign(data, spec)
        p, k = data.p, spec.k
        x = to_shares(x, spec)
        if top is not None:
            x[p + top] = Q_MAX

        def gradient(z):
            return objective_gradient_hessian(design, spec, z[None], restricted)[1][0]

        (hess,) = objective_gradient_hessian(design, spec, x[None], restricted)[2]
        assert np.array_equal(hess, hess.T)
        # d = beta_alpha^2 q < 0 raises: forward differences where a step
        # would cross q = 0, at a smaller step, as they err by O(h^3)
        h0 = share_steps(x, p, k)
        forward = np.zeros(x.size, dtype=bool)
        forward[p:p + k] = x[p:p + k] < h0[p:p + k]
        h0[forward] = 1e-6
        oracle = richardson_partials(gradient, x, h0, forward)
        assert np.linalg.norm(hess - oracle) <= 1e-6 * np.linalg.norm(oracle)

    def test_unconstrained_negative_coefficient(self, rng):
        # d = beta^2 q: the chain rule carries the coefficients' signs
        data = make_dataset(rng, g=4, p=3)
        spec = ModelSpec(alpha=(0, 1), constrained=False)
        design = BlockDesign(data, spec)
        x = np.array([-0.7, -1.1, 0.4, 0.3, 0.05, -0.2])
        assert_matches_oracle(
            dense_share_criterion(data, spec, False),
            lambda z: objective_gradient_hessian(design, spec, z, False)[:2], x,
            value_only=lambda z: pls_objective(unpack_shares(z, spec), data, spec),
            h0=share_steps(x, 3, 2))
