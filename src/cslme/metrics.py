"""Fit-quality and simulation-accuracy metrics.

The variance-explained summaries extend the usual R^2 to mixed models:
marginal uses the fixed-effect predictions alone, conditional adds the
random-effect variance to the numerator, and both share the denominator
fixed + random + residual variance. The variance-components term uses the
raw scales varsigma_i^2 as printed in the defining formulas; an alternate
"effective" mode substitutes the truncation-deflated variances for
sensitivity analysis (not part of the reference definition).

A PLS/PRLS fit can end with a scale at the uniform limit varsigma_i -> inf
(`FitResult.at_limit`). The raw random variance is then infinite, and the
raw pair is its limit (0, 1): marginal 0 and conditional 1, exactly. The
effective variance stays finite there, beta_{alpha_i}^2 / 3.
"""

import math

import numpy as np

from .model import Dataset, ModelSpec, Parameters, sdtn_variances


def rmse(estimates, truth, subset=None) -> float:
    """Root mean squared error over a labeled parameter subset.

    `estimates` and `truth` map labels to values; `subset` defaults to the
    truth's labels. Missing labels raise KeyError.
    """
    if subset is None:
        subset = list(truth)
    missing = [s for s in subset if s not in estimates or s not in truth]
    if missing:
        raise KeyError(f"labels missing from estimates/truth: {missing}")
    sq = [(float(estimates[s]) - float(truth[s])) ** 2 for s in subset]
    if not sq:
        raise ValueError("empty parameter subset")
    return math.sqrt(sum(sq) / len(sq))


def r_squared(params: Parameters, dataset: Dataset, spec: ModelSpec,
              effective: bool = False, at_limit=()):
    """Marginal and conditional variance-explained at fitted parameters.

    Predictions use fixed effects only; their variance is taken around
    their own mean so a constant prediction contributes exactly zero.
    `at_limit` flags the random columns whose scale is at the uniform
    limit (`FitResult.at_limit`); with any flagged, the raw pair is (0.0,
    1.0), whatever finite stand-in params.varsigma holds.
    """
    spec.validate_against(dataset)
    y_hat = np.concatenate([gd.X @ params.beta for gd in dataset.groups])
    var_fixed = float(np.mean((y_hat - np.mean(y_hat)) ** 2))
    if effective:
        var_random = float(np.sum(sdtn_variances(params, spec)))
    elif any(at_limit):
        return 0.0, 1.0
    else:
        var_random = float(np.sum(params.varsigma ** 2))
    total = var_fixed + var_random + params.sigma * params.sigma
    if total <= 0.0:
        raise ValueError("total model variance is zero")
    marginal = var_fixed / total
    conditional = (var_fixed + var_random) / total
    return marginal, conditional
