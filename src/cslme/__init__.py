"""Sign-constrained linear mixed-effects models.

Fits grouped linear models whose overall coefficients (fixed effect plus
group deviation) must stay nonnegative. Group deviations follow a
symmetric doubly truncated normal law whose support is tied to the fixed
effect, and estimation minimizes a normal-approximation penalized
least-squares criterion under box constraints. Unconstrained ML/REML and a
Gauss-Hermite quadrature estimator are included as baselines, plus a
seeded Monte-Carlo harness and a CLI.
"""

__version__ = "0.1.0"

from .baseline import (
    BaselineFit,
    QuadratureUnderflowError,
    Theta,
    fit_pit,
    fit_unconstrained,
    profile_beta,
    profile_loglik,
    reml_loglik,
)
from .estimate import (
    FitConfig,
    FitResult,
    approx_loglik,
    fit,
    pls_objective,
    prls_objective,
)
from .metrics import r_squared, rmse
from .model import (
    Dataset,
    GroupData,
    ModelSpec,
    NumericalError,
    Parameters,
    RandomEffects,
    sdtn_variances,
)
from .optim import ConvergenceError
from .ranef import GroupQp, solve_all, solve_group
from .sdtn import (
    SdtnParams,
    sdtn_linear_transform,
    sdtn_pdf,
    sdtn_sample,
    standardized_sum,
    std_normal_cdf,
    std_normal_pdf,
    variance_factor,
)
from .sim import ContourRequest, Scenario, contour_grid, gen_design, gen_response, run_scenario

__all__ = [
    "BaselineFit",
    "ContourRequest",
    "ConvergenceError",
    "Dataset",
    "FitConfig",
    "FitResult",
    "GroupData",
    "GroupQp",
    "ModelSpec",
    "NumericalError",
    "Parameters",
    "QuadratureUnderflowError",
    "RandomEffects",
    "Scenario",
    "SdtnParams",
    "Theta",
    "approx_loglik",
    "contour_grid",
    "fit",
    "fit_pit",
    "fit_unconstrained",
    "gen_design",
    "gen_response",
    "pls_objective",
    "prls_objective",
    "profile_beta",
    "profile_loglik",
    "r_squared",
    "reml_loglik",
    "rmse",
    "run_scenario",
    "sdtn_linear_transform",
    "sdtn_pdf",
    "sdtn_sample",
    "sdtn_variances",
    "solve_all",
    "solve_group",
    "standardized_sum",
    "std_normal_cdf",
    "std_normal_pdf",
    "variance_factor",
]
