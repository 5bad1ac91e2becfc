"""Monte-Carlo harness: data generation, scenario grids, contour grids.

Design columns are drawn i.i.d. Gamma(2,1) (shape-scale convention, mean
2); group-level deviations follow the zero-mean SDTN law tied to its fixed
effect, so every generated overall coefficient is nonnegative by
construction; errors are centered normal.

Replications are independent: replication r of a scenario derives its
data and fit seed from SeedSequence([scenario.seed, r]) (`replication_data`),
so results do not depend on execution order or worker count (CSLME_THREADS
caps process workers). The CLI and the scripts write the reports built
here: `ScenarioResult.table_rows`, `contour_rows` and `level_rows`.

Contour grids and labeled-parameter searches name the entries of the
search point by `model.parameter_labels` and check the labels the same
way; a search keeps to the box of `model.search_bounds`.
"""

from contextlib import suppress
from dataclasses import dataclass
from itertools import repeat
import math
import os

import numpy as np

from .baseline import check_pit_k, fit_pit, fit_unconstrained, gh_nodes
from .estimate import METHODS, FitConfig, fit
from .metrics import r_squared, rmse
from .model import (
    NUMERICAL_FAILURES,
    BlockDesign,
    Dataset,
    GroupData,
    ModelSpec,
    Parameters,
    RandomEffects,
    check_sizes,
    parameter_labels,
    re_variances,
    search_bounds,
)
from .optim import BoxResult, minimize_starts, with_central_diff
from .sdtn import SdtnParams, per_entry, sdtn_ppf, variance_factor

ALL_METHODS = ("PLS", "PRLS", "ML", "REML", "PIT")
NORMAL_METHODS = ("ML", "REML")  # unconstrained, with normal deviations


@dataclass(frozen=True)
class Scenario:
    """One simulation cell: sizes, structure, generating truth."""

    n: int
    p: int
    g: int
    alpha: tuple
    truth: Parameters
    replications: int = 200
    seed: int = 0
    intercept: bool = True

    def __post_init__(self):
        if self.n < self.g or self.g < 2:
            raise ValueError("need n >= g and at least two groups")
        if self.replications < 1:
            raise ValueError("replications must be positive")
        spec = ModelSpec(alpha=self.alpha)
        spec.check_columns(self.p)
        check_sizes(self.truth, self.p, spec.k, "truth")
        object.__setattr__(self, "alpha", spec.alpha)

    def model_spec(self) -> ModelSpec:
        return ModelSpec(alpha=self.alpha)


@dataclass(frozen=True)
class ContourRequest:
    """Grid request: objective over two parameter labels, rest fixed."""

    objective: str
    vary: tuple
    ranges: tuple
    fixed: Parameters

    def __post_init__(self):
        if len(self.vary) != 2 or len(self.ranges) != 2:
            raise ValueError("exactly two varied parameters are required")
        if self.vary[0] == self.vary[1]:
            raise ValueError(f"the two varied parameters must differ, got {self.vary}")
        ranges = []
        for lo, hi, steps in self.ranges:
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"range ends must be finite, got {lo}, {hi}")
            if not float(steps).is_integer():
                raise ValueError(f"step count must be a whole number, got {steps}")
            if steps < 2 and not (steps == 1 and lo == hi):
                raise ValueError("each range needs steps >= 2 (or 1 with lo == hi)")
            ranges.append((float(lo), float(hi), int(steps)))
        object.__setattr__(self, "ranges", tuple(ranges))


def group_sizes(n: int, g: int) -> list:
    """Split n rows as evenly as possible; remainder goes to earliest groups."""
    base, rem = divmod(n, g)
    return [base + (1 if ell < rem else 0) for ell in range(g)]


def gen_design(scenario: Scenario, seed=None) -> tuple:
    """The per-group design matrices, a tuple of g arrays in group order:
    Gamma(2,1) columns, with a leading intercept column if the scenario has one."""
    rng = np.random.default_rng(scenario.seed if seed is None else seed)
    n_random_cols = scenario.p - (1 if scenario.intercept else 0)
    designs = []
    for n_ell in group_sizes(scenario.n, scenario.g):
        cols = rng.gamma(shape=2.0, scale=1.0, size=(n_ell, n_random_cols))
        designs.append(np.column_stack([np.ones(n_ell), cols]) if scenario.intercept else cols)
    return tuple(designs)


def gen_response(designs, truth: Parameters, spec: ModelSpec, seed):
    """Draw SDTN random effects and normal errors for the per-group design
    matrices of `gen_design`.

    Returns (dataset, per-group deviation truth); the dataset's groups are
    numbered 1..g in the order of `designs`. Every generated overall
    coefficient beta_i + gamma_{l,i} is nonnegative because the deviation
    support is [-beta_i, beta_i].
    """
    if np.any(truth.beta[list(spec.alpha)] < 0):
        raise ValueError("generating fixed effects on random columns must be >= 0")
    rng = np.random.default_rng(seed)
    g, k = len(designs), spec.k
    gamma = np.zeros((g, k))
    for i, col in enumerate(spec.alpha):
        s = float(truth.varsigma[i])
        b = float(truth.beta[col])
        if s == 0.0 or b == 0.0:
            continue
        law = SdtnParams(0.0, s, b / s)
        gamma[:, i] = sdtn_ppf(rng.random(g), law)
    groups = []
    for ell, X in enumerate(designs):
        mean = X @ truth.beta + X[:, list(spec.alpha)] @ gamma[ell]
        y = mean + rng.normal(0.0, truth.sigma, size=X.shape[0])
        groups.append(GroupData(group_id=ell + 1, y=y, X=X))
    return Dataset(tuple(groups)), RandomEffects(gamma)


def replication_data(scenario: Scenario, rep: int):
    """(dataset, deviation truth, fit seed) of replication `rep`, drawn in that
    order by the children of SeedSequence([scenario.seed, rep])."""
    design_seed, response_seed, fit_entropy = np.random.SeedSequence(
        [scenario.seed, rep]).spawn(3)
    design = gen_design(scenario, seed=design_seed)
    data, gamma = gen_response(design, scenario.truth, scenario.model_spec(), response_seed)
    return data, gamma, int(fit_entropy.generate_state(1)[0])


def deviation_sd(method, beta_i: float, varsigma_i: float) -> float:
    """Standard deviation of one deviation: |varsigma_i| for NORMAL_METHODS;
    for other methods and the truth (None), that of the SDTN law tied to
    beta_i. As in `re_variances`, it is 0 at a zero scale or coefficient and
    NaN where |beta_i| / varsigma_i underflows to 0."""
    s, b = abs(float(varsigma_i)), abs(float(beta_i))
    if method in NORMAL_METHODS:
        return s
    if s == 0.0 or b == 0.0:
        return 0.0
    rho = b / s
    return s * math.sqrt(variance_factor(rho)) if rho > 0.0 else math.nan


def table_values(params: Parameters, gamma, spec: ModelSpec, method=None) -> dict:
    """Map the table labels to values for one parameter point and its
    deviations; s_gamma is `deviation_sd` under `method`."""
    beta = params.beta
    gamma = np.atleast_2d(gamma)
    out = {}
    for i, col in enumerate(spec.alpha):
        for ell in range(gamma.shape[0]):
            out[f"overall_g{ell + 1}_b{col}"] = float(beta[col] + gamma[ell, i])
    for col in range(len(beta)):
        if col not in spec.alpha:
            out[f"beta{col}"] = float(beta[col])
    for i, col in enumerate(spec.alpha):
        out[f"s_gamma{col}"] = deviation_sd(method, beta[col], params.varsigma[i])
    out["sigma"] = float(params.sigma)
    return out


def fit_method(method: str, dataset: Dataset, spec: ModelSpec, seed: int = 0,
               n_starts: int = 5, pit_q: int = 2):
    """Fit `dataset` with one of ALL_METHODS; the result has `.params` and `.gamma`.

    PLS/PRLS and PIT fit under `spec` as given; NORMAL_METHODS are
    unconstrained and do not read `spec.constrained`. `seed` picks the
    multi-start jitter of PLS/PRLS/ML/REML, `n_starts` the PLS/PRLS start
    count and `pit_q` the PIT quadrature order.
    """
    method = method.upper()
    if method in METHODS:
        return fit(dataset, spec, FitConfig(method=method, n_starts=n_starts, seed=seed))
    if method in NORMAL_METHODS:
        return fit_unconstrained(dataset, spec, criterion=method, seed=seed)
    if method == "PIT":
        return fit_pit(dataset, spec, q=pit_q)
    raise ValueError(f"unknown method {method!r}; choose from {ALL_METHODS}")


def _replication(scenario: Scenario, methods, rep: int, pit_q: int, n_starts: int):
    """Run one replication; returns its per-method record or error string."""
    data, gamma_truth, rep_seed = replication_data(scenario, rep)
    spec = scenario.model_spec()
    truth_vals = table_values(scenario.truth, gamma_truth.gamma, spec)
    labels = list(truth_vals)
    no_spread = [s for s in labels if not s.startswith("s_gamma")]
    out = {}
    for method in methods:
        try:
            res = fit_method(method, data, spec, seed=rep_seed, n_starts=n_starts,
                             pit_q=pit_q)
            est = table_values(res.params, res.gamma.gamma, spec, method)
            r2m, r2c = r_squared(res.params, data, spec, at_limit=res.at_limit)
            out[method] = {
                "estimates": est,
                "truth": truth_vals,
                "rmse": rmse(est, truth_vals, labels),
                "rmse_core": rmse(est, truth_vals, no_spread),
                "r2_marginal": r2m,
                "r2_conditional": r2c,
                "at_limit": any(res.at_limit),
            }
        except NUMERICAL_FAILURES as exc:
            out[method] = {"error": f"{type(exc).__name__}: {exc}"}
    return out


def worker_count() -> int:
    raw = os.environ.get("CSLME_THREADS", "1")
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"CSLME_THREADS must be an integer, got {raw!r}") from exc
    return max(1, value)


@dataclass
class ScenarioResult:
    scenario: Scenario
    methods: tuple
    records: dict        # method -> list of per-rep dicts (successes)
    failures: dict       # method -> list of (rep, message)

    def summary(self, method: str) -> dict:
        recs = self.records[method]
        if not recs:
            return {"method": method, "n_ok": 0,
                    "n_failed": len(self.failures[method])}
        return {
            "method": method,
            "n_ok": len(recs),
            "n_failed": len(self.failures[method]),
            "rmse_median": float(np.median([r["rmse"] for r in recs])),
            "rmse_mean": float(np.mean([r["rmse"] for r in recs])),
            "rmse_core_median": float(np.median([r["rmse_core"] for r in recs])),
            "r2_marginal_mean": float(np.mean([r["r2_marginal"] for r in recs])),
            "r2_conditional_mean": float(np.mean([r["r2_conditional"] for r in recs])),
            "n_at_limit": sum(r["at_limit"] for r in recs),
        }

    def table_rows(self) -> list:
        """The scenario summary CSV: per method x parameter the mean truth and
        the mean and median estimate, then per method its `summary` figures."""
        rows = [("method", "parameter", "true_mean", "estimate_mean", "estimate_median")]
        for method in self.methods:
            recs = self.records[method]
            for label in recs[0]["estimates"] if recs else ():
                est = np.array([r["estimates"][label] for r in recs])
                tru = np.array([r["truth"][label] for r in recs])
                rows.append((method, label, fmt_float(np.mean(tru)), fmt_float(np.mean(est)),
                             fmt_float(np.median(est))))
        for method in self.methods:
            s = self.summary(method)
            for key in ("rmse_median", "rmse_mean", "rmse_core_median",
                        "r2_marginal_mean", "r2_conditional_mean"):
                if key in s:
                    rows.append((method, key, "", fmt_float(s[key]), ""))
            rows.append((method, "n_failed", "", str(s["n_failed"]), ""))
            if "n_at_limit" in s:
                rows.append((method, "n_at_limit", "", str(s["n_at_limit"]), ""))
        return rows


def run_scenario(scenario: Scenario, methods=("PLS", "PRLS", "REML"),
                 pit_q: int = 2, n_starts: int = 5) -> ScenarioResult:
    """Fit each method on each replication and aggregate.

    A fit that raises one of `model.NUMERICAL_FAILURES` is recorded as
    its replication's failure and excluded from the aggregates, with
    counts reported. An unknown method, or a setting a method cannot run
    with (PIT: k and `gh_nodes`' orders; PLS/PRLS: `FitConfig`'s start
    count), raises ValueError before any replication runs.
    """
    methods = tuple(m.upper() for m in methods)
    if not methods:
        raise ValueError("at least one method is required")
    for m in methods:
        if m not in ALL_METHODS:
            raise ValueError(f"unknown method {m!r}; choose from {ALL_METHODS}")
    if "PIT" in methods:
        check_pit_k(len(scenario.alpha))
        gh_nodes(pit_q)
    if any(m in METHODS for m in methods):
        FitConfig(n_starts=n_starts)
    reps = range(scenario.replications)
    workers = worker_count()
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_replication, repeat(scenario), repeat(methods), reps,
                                    repeat(pit_q), repeat(n_starts)))
    else:
        results = [_replication(scenario, methods, rep, pit_q, n_starts)
                   for rep in reps]
    records = {m: [] for m in methods}
    failures = {m: [] for m in methods}
    for rep, out in enumerate(results):
        for m in methods:
            if "error" in out[m]:
                failures[m].append((rep, out[m]["error"]))
            else:
                records[m].append(out[m])
    return ScenarioResult(scenario=scenario, methods=methods,
                          records=records, failures=failures)


# ---------------------------------------------------------------------------
# Parameter labels, contour grids, constrained-vs-free profile minimization
# ---------------------------------------------------------------------------


def _restricted(objective: str) -> bool:
    """Whether `objective`, one of `estimate.METHODS`, is PRLS."""
    if objective.upper() not in METHODS:
        raise ValueError(f"unknown method {objective!r}; choose from {METHODS}")
    return objective.upper() == "PRLS"


def _labeled_point(fixed: Parameters, labels, spec: ModelSpec, p: int):
    """The flat point (beta, varsigma, sigma) of `fixed` and the index of each label.

    Raises ValueError for a label outside `parameter_labels(spec, p)`, a
    label given twice, or a fixed point whose beta or varsigma length does
    not match the model.
    """
    valid = parameter_labels(spec, p)
    for label in labels:
        if label not in valid:
            raise ValueError(f"unknown parameter {label!r}; valid labels: {valid}")
    if len(set(labels)) != len(labels):
        raise ValueError(f"parameter labels must be distinct, got {list(labels)}")
    check_sizes(fixed, p, spec.k, "fixed point")
    point = np.concatenate([fixed.beta, fixed.varsigma, [fixed.sigma]])
    return point, [valid.index(label) for label in labels]


# Cells per batched evaluation are CONTOUR_CHUNK // (g k (k + p + 1)), so the
# largest per-cell arrays of one evaluation, the (cells, g, k, k + p + 1)
# products with the capacitance factors, stay near 2^16 doubles (512 kB).
CONTOUR_CHUNK = 1 << 16


def contour_grid(request: ContourRequest, dataset: Dataset, spec: ModelSpec) -> np.ndarray:
    """Objective values on the Cartesian grid; failed cells become NaN.

    Returns an array of (value1, value2, objective) rows, row-major in the
    first varied parameter. The request is checked against
    `parameter_labels(spec, p)` and the fixed point's beta (p) and varsigma
    (k) lengths; a bad request raises ValueError before any cell is
    evaluated. The grid is then held as (cells, p) beta, (cells, k)
    varsigma and (cells,) sigma arrays and evaluated in chunks of
    CONTOUR_CHUNK // (g k (k + p + 1)) cells, one batched `BlockSolve` each,
    so a chunk's size does not depend on n; the (cells, k)
    random-effect variances come from one `re_variances` call over the grid.
    A chunk that raises is evaluated again one cell at a time. A cell is NaN
    exactly where the per-point `pls_objective`/`prls_objective` is NaN or
    raises: sigma <= 0, sigma^2 or |beta| / varsigma underflowing to 0, a
    negative varsigma, a capacitance matrix that does not factor, or (PRLS)
    a singular X^T V^{-1} X; every other cell equals it bit for bit.
    """
    restricted = _restricted(request.objective)
    p, k = dataset.p, spec.k
    point, idx = _labeled_point(request.fixed, request.vary, spec, p)
    design = BlockDesign(dataset, spec)
    (lo1, hi1, s1), (lo2, hi2, s2) = request.ranges
    axes = np.meshgrid(np.linspace(lo1, hi1, s1), np.linspace(lo2, hi2, s2), indexing="ij")
    cells = s1 * s2
    # one row per cell: beta, then varsigma, then sigma, as in parameter_labels
    points = np.tile(point, (cells, 1))
    for i, values in zip(idx, axes):
        points[:, i] = values.ravel()
    beta, varsigma, sigma = points[:, :p], points[:, p:p + k], points[:, -1]
    out = np.full(cells, np.nan)
    chunk = max(1, CONTOUR_CHUNK // design.ZtA.size)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        d = re_variances(beta, varsigma, spec.alpha)  # a NaN variance gives a NaN cell
        live = np.flatnonzero((sigma > 0) & (sigma * sigma > 0)
                              & ~(varsigma < 0).any(axis=1) & ~np.isnan(d).any(axis=1))
        for start in range(0, live.size, chunk):
            i = live[start:start + chunk]
            try:
                out[i] = design.solve(d[i], sigma[i]).criterion(beta[i], restricted)
            except NUMERICAL_FAILURES:  # one cell at a time; a cell that raises stays NaN
                for cell in ([j] for j in i):
                    with suppress(*NUMERICAL_FAILURES):
                        out[cell] = design.solve(d[cell], sigma[cell]).criterion(
                            beta[cell], restricted)
    return np.column_stack([axes[0].ravel(), axes[1].ravel(), out])


def fmt_float(x) -> str:
    """A number as a CSV cell that reads back to the same float: repr(float(x))."""
    return repr(float(x))


def contour_rows(grid: np.ndarray, vary) -> list:
    """The CSV of a `contour_grid` result, one row per cell."""
    return [(vary[0], vary[1], "objective")] + [
        (fmt_float(a), fmt_float(b), fmt_float(v)) for a, b, v in grid]


def level_rows(grid: np.ndarray, vary, levels, tol: float) -> list:
    """The level-band CSV: per level, every finite cell of `grid` within `tol` of it."""
    rows = [("level", vary[0], vary[1], "objective")]
    for level in levels:
        for a, b, v in grid:
            if np.isfinite(v) and abs(v - level) <= tol:
                rows.append((fmt_float(level), fmt_float(a), fmt_float(b), fmt_float(v)))
    return rows


def minimize_labels(dataset: Dataset, spec: ModelSpec, fixed: Parameters,
                    labels, method: str = "PLS", x0=None):
    """Minimize the chosen objective over a subset of labeled parameters.

    All parameters outside `labels` stay at their `fixed` values. The
    search runs over the labeled entries of x = (beta, varsigma, log sigma)
    in the box of `model.search_bounds`: beta is kept nonnegative as `spec`
    sets out (free with `spec.constrained` unset, as by `replace(spec,
    constrained=False)`); varsigma is always nonnegative and log sigma above
    the fits' floor. `x0`, one entry
    per label, is a point of that search layout (log sigma for a `sigma`
    label); it defaults to the labeled entries of `fixed`. Labels are
    checked as by `contour_grid`, and an `x0` of another length than
    `labels` raises ValueError. Each central-difference step evaluates
    its 1 + 2m probes in one batched `BlockSolve`. Returns (values dict,
    objective value), sigma on its natural scale.
    """
    restricted = _restricted(method)
    design = BlockDesign(dataset, spec)
    p, k = design.p, spec.k
    labels = list(labels)
    point, idx = _labeled_point(fixed, labels, spec, p)
    log_sigma = point.size - 1 in idx  # sigma is searched on the log scale
    bounds = search_bounds(design, spec)

    def objective(P):
        points = np.tile(point, (len(P), 1))
        points[:, idx] = P
        if log_sigma:
            points[:, -1] = per_entry(math.exp)(points[:, -1])
        beta = points[:, :p]
        d = re_variances(beta, points[:, p:p + k], spec.alpha)
        return design.solve(d, points[:, -1]).criterion(beta, restricted)

    if x0 is None:
        x0 = np.append(point[:-1], math.log(fixed.sigma))[idx]
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (len(labels),):
        raise ValueError(f"x0 needs one entry per label: got {x0.size} for {len(labels)} labels")
    (res,) = minimize_starts(with_central_diff(objective), [x0], [bounds[i] for i in idx])
    if not isinstance(res, BoxResult):
        raise res
    values = {lbl: (math.exp(v) if lbl == "sigma" else float(v))
              for lbl, v in zip(labels, res.x)}
    return values, float(res.fun)


# ---------------------------------------------------------------------------
# Built-in scenario truths (reporting-grid presets)
# ---------------------------------------------------------------------------


def _scenario(n, p, alpha, beta, varsigma, sigma=1.0, replications=200, seed=20240501):
    return Scenario(
        n=n, p=p, g=2, alpha=tuple(alpha),
        truth=Parameters(beta=np.asarray(beta, dtype=float),
                         varsigma=np.asarray(varsigma, dtype=float),
                         sigma=sigma),
        replications=replications, seed=seed,
    )


def builtin_scenarios() -> dict:
    """Named scenario grid with near-boundary and interior truths."""
    out = {}
    for n in (300, 500, 1000):
        out[f"intercept-p3-n{n}"] = _scenario(
            n, 3, (0,), beta=(0.072, 1.0, 1.0), varsigma=(0.058,))
    for n in (500, 1000, 2000):
        out[f"full-p3-n{n}"] = _scenario(
            n, 3, (0, 1, 2), beta=(0.63, 0.51, 1.02),
            varsigma=(0.54, 0.54, 0.54))
    for n in (1000, 2000, 4000):
        out[f"intercept-p7-n{n}"] = _scenario(
            n, 7, (0,), beta=(1.05, 1, 1, 1, 1, 1, 1), varsigma=(0.54,))
    out["merit-n30"] = _scenario(
        30, 3, (0,), beta=(0.072, 0.001, 0.001), varsigma=(0.058,),
        replications=200)
    return out
