"""Exact SDTN marginal likelihood of one group: the test oracle of the PIT
baseline's quadrature (one random-effect column, k = 1).

A group's rows are y = X beta + z gamma + eps, eps ~ N(0, sigma^2 I), with
one deviation gamma ~ SDTN(0, varsigma^2, rho) on [-b, b], b = rho varsigma.
The product of the normal densities and the untruncated N(0, varsigma^2)
density is N(r; 0, V) N(gamma; m, v), r = y - X beta, V = sigma^2 I +
varsigma^2 z z', so the marginal likelihood is the normal marginal times
the ratio of Phi-differences

    N(r; 0, V) * P(|N(m, v)| <= b) / P(|N(0, varsigma^2)| <= b),

with v = varsigma^2 sigma^2 / (sigma^2 + varsigma^2 z'z) and m = v z'r / sigma^2.
"""

import math

from scipy.special import erf, ndtr


def _normal_mass(lo: float, hi: float) -> float:
    """Phi(hi) - Phi(lo), from the tail nearer the interval to avoid cancellation."""
    if lo > 0.0:
        return float(ndtr(-lo) - ndtr(-hi))
    return float(ndtr(hi) - ndtr(lo))


def sdtn_group_loglik(r, z, varsigma: float, b: float, sigma: float) -> float:
    """Log marginal likelihood of one group's residuals r = y - X beta, whose
    deviation column is z, under gamma ~ SDTN(0, varsigma^2, b / varsigma)."""
    n = r.size
    s2, t2 = sigma * sigma, varsigma * varsigma
    zz, zr, rr = float(z @ z), float(z @ r), float(r @ r)
    denom = s2 + t2 * zz
    log_det = n * math.log(s2) + math.log1p(t2 * zz / s2)
    quad = (rr - t2 * zr * zr / denom) / s2
    normal = -0.5 * (n * math.log(2.0 * math.pi) + log_det + quad)
    v = t2 * s2 / denom
    m = v * zr / s2
    sd = math.sqrt(v)
    post = _normal_mass((-b - m) / sd, (b - m) / sd)
    prior = float(erf(b / varsigma / math.sqrt(2.0)))
    return normal + math.log(post) - math.log(prior)
