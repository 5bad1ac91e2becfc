"""Exact (f, grad f) of PLS, PRLS, ML and REML against the Richardson oracle.

The oracle is the Richardson-extrapolated central difference of criterion
10, applied to the value-only objectives; the exact gradients must agree
with it to 1e-4 relative, and their values must equal the value-only
objectives.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from conftest import make_dataset, random_params
from cslme.baseline import Theta, criterion_and_gradient, profile_loglik, reml_loglik
from cslme.estimate import objective_and_gradient, pls_objective, prls_objective
from cslme.model import BlockDesign, ModelSpec, Parameters
from cslme.optim import central_diff_grad
from cslme.sdtn import SMALL_RHO

# where one random-effect column sits: anywhere, at a zero coefficient, at a
# zero scale, or with its truncation ratio just below or above SMALL_RHO
POINT_KINDS = ("interior", "beta_zero", "varsigma_zero", "rho_below", "rho_above")


def richardson_grad(fun, x):
    h0 = 1e-3 * np.maximum(np.abs(x), 1.0)
    d1 = central_diff_grad(fun, x, h=h0)
    d2 = central_diff_grad(fun, x, h=h0 / 2)
    d4 = central_diff_grad(fun, x, h=h0 / 4)
    r1 = (4 * d2 - d1) / 3
    r2 = (4 * d4 - d2) / 3
    return (16 * r2 - r1) / 15


def assert_matches_oracle(fun, fun_and_grad, x):
    value, grad = fun_and_grad(x)
    assert value == pytest.approx(fun(x), rel=1e-12)
    oracle = richardson_grad(fun, x)
    assert np.linalg.norm(grad - oracle) <= 1e-4 * np.linalg.norm(oracle)


@st.composite
def gradient_cases(draw):
    """Ragged and one-row groups, k in {1, 2, 3}, one column at a special point."""
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
    elif kind == "varsigma_zero":
        varsigma[i] = 0.0
    elif kind == "rho_below":
        beta[col] = 0.5 * SMALL_RHO * varsigma[i]
    elif kind == "rho_above":
        beta[col] = 2.0 * SMALL_RHO * varsigma[i]
    return data, spec, Parameters(beta=beta, varsigma=varsigma, sigma=params.sigma)


class TestExactGradient:
    @settings(max_examples=60, deadline=None)
    @given(case=gradient_cases(), restricted=st.booleans())
    def test_pls_prls_match_richardson(self, case, restricted):
        data, spec, params = case
        design = BlockDesign(data, spec)
        p, k = data.p, spec.k
        value_only = prls_objective if restricted else pls_objective

        def fun(x):
            point = Parameters(beta=x[:p], varsigma=np.abs(x[p:p + k]),
                               sigma=math.exp(x[-1]))
            return value_only(point, design, spec)

        x = np.concatenate([params.beta, params.varsigma, [math.log(params.sigma)]])
        assert_matches_oracle(
            fun, lambda z: objective_and_gradient(design, spec, z, restricted), x)

    @settings(max_examples=40, deadline=None)
    @given(case=gradient_cases(), criterion=st.sampled_from(("ML", "REML")))
    def test_ml_reml_match_richardson(self, case, criterion):
        data, spec, params = case
        spec = ModelSpec(alpha=spec.alpha, constrained=False)
        design = BlockDesign(data, spec)
        loglik = profile_loglik if criterion == "ML" else reml_loglik

        def fun(x):
            return -loglik(Theta(np.abs(x[:-1]), math.exp(x[-1])), design, spec)

        x = np.concatenate([params.varsigma, [math.log(params.sigma)]])
        assert_matches_oracle(
            fun, lambda z: criterion_and_gradient(z, design, criterion), x)

    def test_unconstrained_negative_coefficient(self, rng):
        # |beta| and |varsigma| enter the variances: the chain rule carries their signs
        data = make_dataset(rng, g=4, p=3)
        spec = ModelSpec(alpha=(0, 1), constrained=False)
        design = BlockDesign(data, spec)
        x = np.array([-0.7, -1.1, 0.4, 0.4, -0.9, -0.2])

        def fun(z):
            point = Parameters(beta=z[:3], varsigma=np.abs(z[3:5]), sigma=math.exp(z[-1]))
            return pls_objective(point, design, spec)

        assert_matches_oracle(fun, lambda z: objective_and_gradient(design, spec, z, False), x)
