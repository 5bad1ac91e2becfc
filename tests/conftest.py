import re

import numpy as np
import pytest

from cslme.model import Dataset, GroupData, ModelSpec, Parameters


def make_dataset(rng, g=3, sizes=None, p=3, intercept=True):
    """Small random grouped dataset with Gamma(2,1) columns."""
    if sizes is None:
        sizes = rng.integers(4, 9, size=g)
    groups = []
    for ell in range(g):
        n_ell = int(sizes[ell])
        cols = rng.gamma(2.0, 1.0, size=(n_ell, p - (1 if intercept else 0)))
        X = np.column_stack([np.ones(n_ell), cols]) if intercept else cols
        y = rng.normal(size=n_ell)
        groups.append(GroupData(group_id=f"g{ell}", y=y, X=X))
    return Dataset(tuple(groups))


def assert_rejects(call, kind, fragment, *args):
    """`call(*args)` raises exactly `kind`, with `fragment` in its message: one
    row of a module's table of boundary rejections."""
    with pytest.raises(kind, match=re.escape(fragment)) as info:
        call(*args)
    assert type(info.value) is kind


def random_params(rng, p, alpha, nonneg=True):
    beta = rng.gamma(2.0, 0.5, size=p)
    if not nonneg:
        beta = beta - 1.0
    varsigma = rng.gamma(2.0, 0.3, size=len(alpha))
    sigma = float(rng.gamma(2.0, 0.5)) + 0.2
    return Parameters(beta=beta, varsigma=varsigma, sigma=sigma)


@pytest.fixture
def rng():
    return np.random.default_rng(20240517)


@pytest.fixture
def small_problem(rng):
    """Dataset, spec and feasible parameters for oracle comparisons."""
    dataset = make_dataset(rng, g=3, p=3)
    spec = ModelSpec(alpha=(0, 2), constrained=True)
    params = random_params(rng, p=3, alpha=spec.alpha)
    return dataset, spec, params
