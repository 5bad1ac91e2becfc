"""SDTN distribution kernel.

Density, distribution and quantile functions, the variance factor,
inverse-CDF sampling, linear transforms and standardized sums for the
symmetric doubly truncated normal (SDTN) family: a normal with location mu
and scale eta truncated to [mu - rho*eta, mu + rho*eta]. The truncation
half-width is expressed in units of the scale, so a single positive ratio
rho controls how far the law is from the untruncated normal (rho -> inf)
and from the degenerate point-mass limit (rho -> 0).

All functions are pure; samplers take an explicit seed and own their
generator state.
"""

from dataclasses import dataclass
import functools
import math

import numpy as np
from scipy.special import erf, ndtri

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_2 = math.sqrt(2.0)

# Below this ratio the variance factor over rho^2 is its two-term series
# 1/3 - 2 rho^2/45 to rounding (the next term is below 1e-14 of it).
SMALL_RHO = 1e-3
# Below this ratio the variance factor is a ratio of power series: the
# closed form's relative error there reaches 1e-11 at 0.1 and 3e-16/rho^2 below.
SERIES_RHO = 0.1


@dataclass(frozen=True)
class SdtnParams:
    """SDTN law: truncated normal on [mu - rho*eta, mu + rho*eta]; rho may be +inf."""

    mu: float
    eta: float
    rho: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and math.isfinite(self.eta) and self.eta > 0):
            raise ValueError(f"need a finite mu and a finite eta > 0, got {self.mu}, {self.eta}")
        if not self.rho > 0:
            raise ValueError(f"truncation ratio rho must be positive, got {self.rho}")

    @property
    def lower(self) -> float:
        return self.mu - self.rho * self.eta

    @property
    def upper(self) -> float:
        return self.mu + self.rho * self.eta


def std_normal_pdf(x):
    """Standard normal density, vectorized."""
    x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x * x) / _SQRT_2PI
    return out if out.ndim else float(out)


def std_normal_cdf(x):
    """Standard normal CDF via the error function, vectorized."""
    x = np.asarray(x, dtype=float)
    out = 0.5 * (1.0 + erf(x / _SQRT_2))
    return out if out.ndim else float(out)


def _central_mass(rho: float) -> float:
    """P(|N(0,1)| <= rho) = 2*Phi(rho) - 1, computed as erf(rho/sqrt(2)).

    The erf form stays accurate for small rho where the subtraction of two
    CDF values near 1/2 would cancel.
    """
    return float(erf(rho / _SQRT_2))


def sdtn_pdf(x, p: SdtnParams):
    """SDTN density: phi(xi) / (eta * (2*Phi(rho) - 1)) on the support."""
    mass = _central_mass(p.rho)
    x = np.asarray(x, dtype=float)
    xi = (x - p.mu) / p.eta
    dens = std_normal_pdf(xi) / (p.eta * mass)
    out = np.where((x >= p.lower) & (x <= p.upper), dens, 0.0)
    return out if out.ndim else float(out)


def sdtn_cdf(x, p: SdtnParams):
    """SDTN distribution function, clamped to [0, 1] outside the support."""
    x = np.asarray(x, dtype=float)
    xi = (x - p.mu) / p.eta
    mass = _central_mass(p.rho)
    raw = (std_normal_cdf(xi) - std_normal_cdf(-p.rho)) / mass
    out = np.clip(raw, 0.0, 1.0)
    out = np.where(x < p.lower, 0.0, out)
    out = np.where(x > p.upper, 1.0, out)
    return out if out.ndim else float(out)


def sdtn_quantile(q, mu, eta, rho):
    """SDTN quantiles at levels q of the laws (mu, eta, rho), unchecked.

    Every argument is a float or an array, and they broadcast: levels
    (Q,) against laws (R, 1) give an (R, Q) array. Each quantile is
    clipped to its law's support, [mu - rho*eta, mu + rho*eta] as in
    `SdtnParams.lower/upper`.
    """
    z = ndtri(std_normal_cdf(-rho) + q * erf(rho / _SQRT_2))
    return np.clip(mu + eta * z, mu - rho * eta, mu + rho * eta)


def sdtn_ppf(q, p: SdtnParams):
    """SDTN quantile function (inverse CDF) for q in [0, 1]; a NaN level is rejected."""
    q = np.asarray(q, dtype=float)
    if not np.all((q >= 0.0) & (q <= 1.0)):
        raise ValueError("quantile levels must lie in [0, 1]")
    out = sdtn_quantile(q, p.mu, p.eta, p.rho)
    return out if out.ndim else float(out)


@functools.cache  # one wrapper per f, so per_entry(math.log)(x) in a hot loop stays cheap
def per_entry(f):
    """f(float) -> float made to take a float, or an array of any shape (f at
    each entry, in that shape, bit-equal to its scalar call): numpy's exp, log
    and erf can be an ulp away from `math`'s, so `math` values reach arrays here."""

    @functools.wraps(f)
    def each(x):
        if isinstance(x, (float, int)):
            return f(float(x))
        a = np.asarray(x, dtype=float)
        return np.array([f(v) for v in a.ravel().tolist()]).reshape(a.shape)

    return each


@per_entry
def variance_factor(rho):
    """Variance deflation of an SDTN relative to eta^2, at each rho (`per_entry`).

    Closed form 1 - 2*rho*phi(rho)/(2*Phi(rho)-1). Near rho = 0 that is 1
    minus a number close to 1, which leaves a relative error of about
    3e-16/rho^2, so below SERIES_RHO the factor is the ratio of two power
    series instead (`_variance_factor_series`), which stays accurate through
    the rho -> 0 limit. Where exp(-rho^2/2) underflows (rho = inf included)
    the factor is its limit 1.

    The factor lies in [0, 1], vanishes as rho -> 0 and increases to 1 as
    the truncation widens.
    """
    if not rho > 0:
        raise ValueError(f"truncation ratio rho must be positive, got {rho}")
    if rho < SERIES_RHO:
        return _variance_factor_series(rho)
    tail = math.exp(-0.5 * rho * rho)
    if tail == 0.0:
        return 1.0
    return 1.0 - 2.0 * rho * tail / (_SQRT_2PI * math.erf(rho / _SQRT_2))


def _variance_factor_series(rho: float) -> float:
    """`variance_factor` for rho < SERIES_RHO, free of cancellation.

    With x^2 = rho^2/2 and t_n = (-x^2)^n / n!, erf(x) = 2x/sqrt(pi) * sum_n
    t_n/(2n+1) and 2x/sqrt(pi) * exp(-x^2) = 2x/sqrt(pi) * sum_n t_n, so
    the factor is sum_{n>=1} -t_n 2n/(2n+1) over sum_{n>=0} t_n/(2n+1).
    Below SERIES_RHO, x^2 < 0.005 and eight terms leave a truncation error
    below 1e-20 of the value.
    """
    x2 = 0.5 * rho * rho
    t, num, den = 1.0, 0.0, 1.0
    for n in range(1, 9):
        t *= -x2 / n
        num -= t * (2 * n) / (2 * n + 1)
        den += t / (2 * n + 1)
    return num / den


def sdtn_variance(p: SdtnParams) -> float:
    """Variance of an SDTN law: eta^2 * variance_factor(rho)."""
    return p.eta ** 2 * variance_factor(p.rho)


def sdtn_sample(p: SdtnParams, count: int, seed) -> np.ndarray:
    """Draw `count` i.i.d. SDTN variates by inverse-CDF transform.

    Deterministic given the seed; every draw lies inside the support.
    `seed` may be an int, a SeedSequence or a Generator.
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    rng = np.random.default_rng(seed)
    u = rng.random(count)
    return sdtn_ppf(u, p)


def sdtn_linear_transform(p: SdtnParams, k0: float, k1: float) -> SdtnParams:
    """Law of k0 + k1 * x for x ~ SDTN(mu, eta^2, rho).

    The ratio rho is preserved; location and scale map affinely. k1 = 0
    would collapse the law to a point mass and is rejected.
    """
    if k1 == 0:
        raise ValueError("k1 must be nonzero")
    return SdtnParams(k0 + k1 * p.mu, abs(k1) * p.eta, p.rho)


def standardized_sum(laws, samples, weights=None) -> np.ndarray:
    """Centered, scaled (weighted) row sums of per-law draws.

    `samples` has one column per law, one row per draw. Each row is mapped
    to sum_i w_i*(x_i - mu_i) / t_n with t_n^2 = sum_i w_i^2 * Var[x_i];
    for heterogeneous SDTN laws the output converges in distribution to
    N(0, 1) as the number of laws grows.
    """
    laws = list(laws)
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if samples.shape[1] != len(laws):
        raise ValueError(
            f"sample columns ({samples.shape[1]}) != number of laws ({len(laws)})"
        )
    if weights is None:
        w = np.ones(len(laws))
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (len(laws),):
            raise ValueError("one weight per law required")
    mus = np.array([p.mu for p in laws])
    variances = np.array([p.eta ** 2 for p in laws]) * variance_factor([p.rho for p in laws])
    t_n = math.sqrt(float(np.sum(w ** 2 * variances)))
    if t_n == 0.0:
        raise ValueError("all laws are degenerate: zero total variance")
    return (samples - mus) @ w / t_n
