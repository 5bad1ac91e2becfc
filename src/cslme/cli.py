"""Command-line surface: ingest CSVs, fit, simulate, contour, ranef.

Subcommands
-----------
fit       fit one model to a long-format CSV, write a JSON/CSV result doc
simulate  run a scenario config through the Monte-Carlo harness
contour   evaluate a PLS/PRLS objective on a 2-d parameter grid
ranef     recompute per-group deviations from a saved fit document, as its
          method does (box QP; closed-form shrinkage at the document's
          `relative_variances` for ML/REML)

Exit codes: 0 success, 1 input/config error, 2 numerical failure: a fit
that did not converge or raised one of `model.NUMERICAL_FAILURES` (`fit`
still writes its result document, with diagnostics). A PLS/PRLS fit has
converged when its winning start is certified: projected Newton
(`optim.minimize_newton`) ended it at a projected gradient of at most
`optim.TOL_GRAD`. ML, REML and PIT report L-BFGS-B's own stopping test
(`optim.minimize_starts`).

Config files are flat `key = value` text; `#` starts a comment. All JSON
numbers round-trip losslessly; stdout summaries are rounded to 3 decimals.
"""

import argparse
import csv
import hashlib
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .baseline import shrinkage_gamma
from .estimate import METHODS
from .metrics import r_squared
from .model import (NUMERICAL_FAILURES, Dataset, GroupData, ModelSpec, Parameters,
                    RandomEffects, check_sizes)
from .optim import ConvergenceError
from .ranef import solve_all
from .sim import (
    ALL_METHODS,
    NORMAL_METHODS,
    ContourRequest,
    Scenario,
    builtin_scenarios,
    contour_grid,
    contour_rows,
    deviation_sd,
    fit_method,
    fmt_float,
    level_rows,
    replication_data,
    run_scenario,
)


class SchemaError(ValueError):
    """Malformed input file or configuration."""


@dataclass(frozen=True)
class InputSchema:
    """Column roles for long-format CSV ingestion.

    `random_effect_columns` may include the literal token "intercept"
    (when the intercept flag is set) in addition to feature names.
    """

    group_column: str
    response_column: str
    feature_columns: tuple
    random_effect_columns: tuple = field(default_factory=tuple)
    intercept: bool = True

    def __post_init__(self):
        object.__setattr__(self, "feature_columns", tuple(self.feature_columns))
        object.__setattr__(self, "random_effect_columns",
                           tuple(self.random_effect_columns))
        roles = {}
        for role, col in (("group", self.group_column), ("response", self.response_column),
                          *(("feature", c) for c in self.feature_columns)):
            if col in roles:
                raise SchemaError(f"{role} column {col!r} is listed twice" if roles[col] == role
                                  else f"column {col!r} is both the {roles[col]} and a {role}")
            roles[col] = role
        for i, col in enumerate(self.random_effect_columns):
            if col in self.random_effect_columns[:i]:
                raise SchemaError(f"random-effect column {col!r} is listed twice")
        for col in self.random_effect_columns:
            if col == "intercept":
                if not self.intercept:
                    raise SchemaError(
                        "random-effect token 'intercept' requires the intercept flag"
                    )
            elif col not in self.feature_columns:
                raise SchemaError(
                    f"random-effect column {col!r} is not a feature column"
                )

    @property
    def model_columns(self) -> tuple:
        head = ("intercept",) if self.intercept else ()
        return head + self.feature_columns

    def alpha(self) -> tuple:
        cols = self.model_columns
        return tuple(sorted(cols.index(c) for c in self.random_effect_columns))


def ingest(path, schema: InputSchema):
    """Parse a long-format CSV into (Dataset, ModelSpec).

    Groups are ordered by first appearance; rows keep file order. Raises
    SchemaError with the offending row/column on any malformed cell, and
    `ModelSpec`'s ValueError for a schema without a random-effect column.
    """
    try:
        return _ingest(path, schema)
    except (csv.Error, UnicodeDecodeError) as exc:
        raise SchemaError(f"{path}: not a readable CSV file ({exc})") from None


def _ingest(path, schema: InputSchema):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file, header row required") from None
        if len(set(header)) != len(header):
            dupes = sorted({h for h in header if header.count(h) > 1})
            raise SchemaError(f"{path}: duplicate header columns {dupes}")
        needed = [schema.group_column, schema.response_column, *schema.feature_columns]
        for col in needed:
            if col not in header:
                raise SchemaError(f"{path}: column {col!r} not found in header {header}")
        idx = {col: header.index(col) for col in needed}

        order: list = []
        rows_by_group: dict = {}
        for row_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise SchemaError(
                    f"{path}: row {row_no} has {len(row)} cells, header has {len(header)}"
                )
            gid = row[idx[schema.group_column]].strip()
            if not gid:
                raise SchemaError(f"{path}: row {row_no}: empty group label")
            values = []
            for col in (schema.response_column, *schema.feature_columns):
                cell = row[idx[col]].strip()
                if not cell:
                    raise SchemaError(f"{path}: row {row_no}: missing value in {col!r}")
                try:
                    value = float(cell)
                except ValueError:
                    raise SchemaError(
                        f"{path}: row {row_no}: non-numeric cell {cell!r} in {col!r}"
                    ) from None
                if not math.isfinite(value):
                    raise SchemaError(
                        f"{path}: row {row_no}: non-finite value {cell!r} in {col!r}"
                    )
                values.append(value)
            if gid not in rows_by_group:
                order.append(gid)
                rows_by_group[gid] = []
            rows_by_group[gid].append(values)

    if not order:
        raise SchemaError(f"{path}: no data rows")
    if len(order) < 2:
        raise SchemaError(
            f"{path}: found a single group {order[0]!r}; at least 2 groups required"
        )
    groups = []
    for gid in order:
        block = np.asarray(rows_by_group[gid], dtype=float)
        y = block[:, 0]
        feats = block[:, 1:]
        X = np.column_stack([np.ones(len(y)), feats]) if schema.intercept else feats
        groups.append(GroupData(group_id=gid, y=y, X=X))
    dataset = Dataset(tuple(groups))
    spec = ModelSpec(alpha=schema.alpha())
    return dataset, spec


# ---------------------------------------------------------------------------
# key = value config files
# ---------------------------------------------------------------------------


def read_config(path) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SchemaError(f"{path}:{line_no}: expected 'key = value', got {raw!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _words(raw: str) -> list:
    return raw.replace(",", " ").split()


# How each config value is read: (parse, what a value must be). A parse
# failure raises ValueError or KeyError.
_INT = (int, "an integer")
_FLOAT = (float, "a number")
_INTS = (lambda raw: [int(v) for v in _words(raw)], "a list of integers")
_FLOATS = (lambda raw: [float(v) for v in _words(raw)], "a list of numbers")
_BOOL = (lambda raw: {"true": True, "yes": True, "1": True,
                      "false": False, "no": False, "0": False}[raw.lower()],
         "one of true/false/yes/no/1/0")
_NAMES = (lambda raw: [v.strip() for v in raw.split(",")], "a list of names")


def _methods(raw: str) -> tuple:
    methods = tuple(m.strip().upper() for m in raw.split(","))
    if not set(methods) <= set(ALL_METHODS):
        raise ValueError(raw)
    return methods


_METHODS = (_methods, f"a list of methods from {', '.join(ALL_METHODS)}")
_OBJECTIVE = (lambda raw: {m: m for m in METHODS}[raw.upper()], f"one of {', '.join(METHODS)}")

# the parameter point (beta, varsigma, sigma): a scenario's truth or a contour's fixed point
_POINT_KEYS = ("beta", "varsigma", "sigma")
# the keys that describe a scenario: a built-in's name, or the model itself
_BUILTIN_KEYS = ("scenario", "seed")
_EXPLICIT_KEYS = ("n", "p", "g", "alpha", *_POINT_KEYS, "intercept", "seed")


@dataclass(frozen=True)
class Config:
    """A config file's `key = value` entries, read by key.

    A key the command does not use (`check_keys`), a missing required key
    and a value that does not parse (`get`) raise SchemaError naming the
    file, the key and the raw value.
    """

    path: str
    entries: dict

    @classmethod
    def read(cls, path) -> "Config":
        return cls(str(path), read_config(path))

    def __contains__(self, key) -> bool:
        return key in self.entries

    def scenario_keys(self) -> tuple:
        return _BUILTIN_KEYS if "scenario" in self else _EXPLICIT_KEYS

    def check_keys(self, command: str, used):
        used = tuple(dict.fromkeys(used))
        for key, raw in self.entries.items():
            if key not in used:
                raise SchemaError(f"{self.path}: key {key!r} (= {raw!r}) is not used by "
                                  f"{command} here; it reads {', '.join(used)}")

    def get(self, key, reader, default=None, required=False):
        if key not in self.entries:
            if required:
                raise SchemaError(f"{self.path}: missing key {key!r}")
            return default
        raw = self.entries[key]
        parse, kind = reader
        try:
            return parse(raw)
        except (ValueError, KeyError):
            raise SchemaError(f"{self.path}: {key} = {raw!r} is not {kind}") from None

    def parameters(self) -> Parameters:
        """The point (beta, varsigma, sigma) that the config's keys name."""
        beta, varsigma = (np.asarray(self.get(key, _FLOATS, required=True))
                          for key in ("beta", "varsigma"))
        sigma = self.get("sigma", _FLOAT, required=True)
        try:
            return Parameters(beta=beta, varsigma=varsigma, sigma=sigma)
        except ValueError as exc:
            raise SchemaError(f"{self.path}: {exc}") from None


def _scenario_from_config(cfg: Config) -> Scenario:
    if "scenario" in cfg:
        name = cfg.entries["scenario"]
        registry = builtin_scenarios()
        if name not in registry:
            raise SchemaError(
                f"{cfg.path}: unknown built-in scenario {name!r}; available: {sorted(registry)}"
            )
        base, fields = registry[name], {}
    else:
        base, fields = None, dict(
            n=cfg.get("n", _INT, required=True), p=cfg.get("p", _INT, required=True),
            g=cfg.get("g", _INT, required=True),
            alpha=tuple(cfg.get("alpha", _INTS, required=True)),
            truth=cfg.parameters(), intercept=cfg.get("intercept", _BOOL, True))
    for key in ("replications", "seed"):
        if key in cfg:
            fields[key] = cfg.get(key, _INT)
    try:
        return Scenario(**fields) if base is None else replace(base, **fields)
    except ValueError as exc:
        raise SchemaError(f"{cfg.path}: invalid scenario config: {exc}") from None


# ---------------------------------------------------------------------------
# result documents
# ---------------------------------------------------------------------------


def _config_hash(payload: dict) -> str:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _fit_document(method, schema, spec, dataset, params, gamma, at_limit, diagnostics,
                  objective, loglik, seed, run_config):
    r2m, r2c = r_squared(params, dataset, spec, at_limit=at_limit)
    cols = list(schema.model_columns)
    alpha = list(spec.alpha)
    overall = [
        [float(params.beta[col] + gamma.gamma[ell, i]) for i, col in enumerate(alpha)]
        for ell in range(dataset.g)
    ]
    s_gamma = [deviation_sd(method, params.beta[col], params.varsigma[i])
               for i, col in enumerate(alpha)]
    at_bound = gamma.at_bound if gamma.at_bound is not None else np.zeros_like(
        gamma.gamma, dtype=bool)
    return {
        "spec": {
            "method": method,
            "columns": cols,
            "alpha": alpha,
            "random_effect_columns": [cols[i] for i in alpha],
            "intercept": schema.intercept,
            "constrained": spec.constrained and method not in NORMAL_METHODS,
            "n_groups": dataset.g,
            "n_rows": dataset.n,
        },
        "parameters": {
            "beta": [float(b) for b in params.beta],
            "varsigma": [float(v) for v in params.varsigma],
            # true where varsigma is a finite stand-in for its minimizer +inf
            "varsigma_at_limit": [bool(v) for v in at_limit],
            "sigma": float(params.sigma),
        },
        "random_effects": {
            "group_ids": [str(g) for g in dataset.group_ids],
            "gamma": [[float(v) for v in row] for row in gamma.gamma],
            "overall": overall,
            "at_bound": [[bool(v) for v in row] for row in at_bound],
        },
        "metrics": {
            "r2_marginal": r2m,
            "r2_conditional": r2c,
            "objective": objective,
            "loglik": loglik,
            "s_gamma": s_gamma,
        },
        "diagnostics": diagnostics,
        "provenance": {
            "seed": seed,
            "version": __version__,
            "config_hash": _config_hash(run_config),
        },
    }


def _write_document(doc: dict, out, fmt: str):
    if fmt == "json":
        with _output(out) as fh:
            fh.write(json.dumps(doc, indent=2) + "\n")
        return
    rows = [("section", "key", "value")]

    def flatten(prefix, obj):
        if isinstance(obj, dict):
            for k, v in obj.items():
                flatten(f"{prefix}.{k}" if prefix else k, v)
        elif isinstance(obj, list):
            flatten(prefix, {str(i): v for i, v in enumerate(obj)})
        else:
            section, _, key = prefix.partition(".")
            rows.append((section, key, repr(obj) if isinstance(obj, float) else str(obj)))

    flatten("", doc)
    write_csv(out, rows)


@contextmanager
def _output(out):
    """The file `out`, opened for writing, or stdout when `out` is None or "-"."""
    if out in (None, "-"):
        yield sys.stdout
    else:
        with open(out, "w", newline="", encoding="utf-8") as fh:
            yield fh


def write_csv(out, rows):
    """Write `rows` as CSV, lines ending in a bare newline, to the file `out`
    or to stdout when `out` is None or "-"."""
    with _output(out) as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _schema_from_args(args) -> InputSchema:
    features = tuple(c.strip() for c in args.features.split(",") if c.strip())
    raneff = tuple(c.strip() for c in (args.random_effects or "").split(",") if c.strip())
    return InputSchema(
        group_column=args.group_col,
        response_column=args.response_col,
        feature_columns=features,
        random_effect_columns=raneff,
        intercept=args.intercept,
    )


def cmd_fit(args) -> int:
    schema = _schema_from_args(args)
    dataset, spec = ingest(args.data, schema)
    method = args.method.upper()
    run_config = {
        "method": method, "seed": args.seed, "starts": args.starts,
        "pit_q": args.pit_q, "schema": {
            "group": schema.group_column, "response": schema.response_column,
            "features": list(schema.feature_columns),
            "random_effects": list(schema.random_effect_columns),
            "intercept": schema.intercept,
        },
    }
    try:
        return _run_fit_method(args, method, schema, dataset, spec, run_config)
    except NUMERICAL_FAILURES as exc:
        diagnostics = {"converged": False, "error": f"{type(exc).__name__}: {exc}"}
        if isinstance(exc, ConvergenceError):
            diagnostics["failed_starts"] = [{"start": i, "error": e}
                                            for i, e in exc.diagnostics]
        doc = {
            "spec": {"method": method},
            "diagnostics": diagnostics,
            "provenance": {"seed": args.seed, "version": __version__,
                           "config_hash": _config_hash(run_config)},
        }
        _write_document(doc, args.out, args.format)
        raise  # main reports it and exits 2


def _run_fit_method(args, method, schema, dataset, spec, run_config) -> int:
    res = fit_method(method, dataset, spec, seed=args.seed, n_starts=args.starts,
                     pit_q=args.pit_q)
    diagnostics = {"converged": res.converged, "n_iter": res.n_iter, "n_eval": res.n_eval}
    if method in METHODS:
        objective, loglik = res.objective, None
        diagnostics.update(
            start_index=res.start_index,
            start_objectives=[
                {"start": i, "objective": f, "converged": c}
                for i, f, c in res.start_objectives
            ],
            objective_trace=[float(v) for v in res.objective_trace],
        )
    else:
        objective, loglik = None, res.loglik
        if method == "PIT":
            diagnostics["quadrature_order"] = args.pit_q

    doc = _fit_document(method, schema, spec, dataset, res.params, res.gamma, res.at_limit,
                        diagnostics, objective, loglik, args.seed, run_config)
    if method in NORMAL_METHODS:  # the v = (varsigma / sigma)^2 `cslme ranef` reads
        doc["parameters"]["relative_variances"] = [float(v) for v in res.relative_variances]
    _write_document(doc, args.out, args.format)
    if args.out not in (None, "-"):
        _print_fit_summary(doc)
    return 0 if res.converged else 2


def _print_fit_summary(doc):
    cols = doc["spec"]["columns"]
    beta = doc["parameters"]["beta"]
    print(f"method: {doc['spec']['method']}")
    for name, b in zip(cols, beta):
        print(f"  {name:>14s}  {b:10.3f}")
    for name, s in zip(doc["spec"]["random_effect_columns"], doc["metrics"]["s_gamma"]):
        print(f"  {'sd(' + name + ')':>14s}  {s:10.3f}")
    print(f"  {'sd(resid)':>14s}  {doc['parameters']['sigma']:10.3f}")
    print(f"  marginal R2 {doc['metrics']['r2_marginal']:.3f}   "
          f"conditional R2 {doc['metrics']['r2_conditional']:.3f}")
    at_limit = [name for name, flag in zip(doc["spec"]["random_effect_columns"],
                                           doc["parameters"]["varsigma_at_limit"]) if flag]
    if at_limit:
        print(f"  uniform limit (varsigma -> inf): {', '.join(at_limit)}")


def cmd_simulate(args) -> int:
    cfg = Config.read(args.config)
    cfg.check_keys("simulate", cfg.scenario_keys() + ("replications", "methods", "pit_q",
                                                      "starts"))
    scenario = _scenario_from_config(cfg)
    methods = cfg.get("methods", _METHODS, ("PLS", "PRLS", "REML"))
    pit_q = cfg.get("pit_q", _INT, 2)
    n_starts = cfg.get("starts", _INT, 5)
    resolved = {
        "n": scenario.n, "p": scenario.p, "g": scenario.g,
        "alpha": list(scenario.alpha), "intercept": scenario.intercept,
        "beta": [float(b) for b in scenario.truth.beta],
        "varsigma": [float(v) for v in scenario.truth.varsigma],
        "sigma": float(scenario.truth.sigma),
        "replications": scenario.replications, "seed": scenario.seed,
        "methods": list(methods), "pit_q": pit_q, "starts": n_starts,
        "replication_seeds": "SeedSequence([seed, rep])",
    }
    print("resolved config: " + json.dumps(resolved, sort_keys=True))
    result = run_scenario(scenario, methods=methods, pit_q=pit_q, n_starts=n_starts)
    write_csv(args.out, result.table_rows())
    return 0


def cmd_contour(args) -> int:
    cfg = Config.read(args.config)
    cfg.check_keys("contour", ("objective", "vary", "range1", "range2", "levels", "level_tol")
                   + _POINT_KEYS + (() if args.data else cfg.scenario_keys() + ("data_rep",)))
    objective = cfg.get("objective", _OBJECTIVE, required=True)
    vary = tuple(cfg.get("vary", _NAMES, required=True))
    ranges = []
    for key in ("range1", "range2"):
        parts = cfg.get(key, _FLOATS, required=True)
        if len(parts) != 3:
            raise SchemaError(f"{cfg.path}: {key} = {cfg.entries[key]!r} is not "
                              "'lo, hi, steps'")
        ranges.append(tuple(parts))  # ContourRequest checks the step count
    fixed = cfg.parameters()
    levels = cfg.get("levels", _FLOATS)
    level_tol = cfg.get("level_tol", _FLOAT, 0.01)

    if args.data:
        if not (args.group_col and args.response_col and args.features):
            raise SchemaError(
                "--data requires --group-col, --response-col and --features")
        schema = _schema_from_args(args)
        dataset, spec = ingest(args.data, schema)
    else:
        scenario = _scenario_from_config(cfg)
        spec = scenario.model_spec()
        dataset, _, _ = replication_data(scenario, cfg.get("data_rep", _INT, 0))

    request = ContourRequest(objective=objective, vary=vary, ranges=tuple(ranges), fixed=fixed)
    grid = contour_grid(request, dataset, spec)
    write_csv(args.out, contour_rows(grid, vary))

    if levels is not None:
        side_rows = level_rows(grid, vary, levels, level_tol)
        side_out = None
        if args.out not in (None, "-"):
            side_out = str(args.out) + ".levels.csv"
        write_csv(side_out, side_rows)
    return 0


def _relative_variances(parameters: dict, params: Parameters, method: str, path) -> np.ndarray:
    """An ML/REML fit document's `parameters.relative_variances`: k finite
    values v >= 0, from which its deviations were formed, that agree with
    its varsigma and sigma: (varsigma / sigma)^2 is v to 1e-12 relative,
    and varsigma is exactly 0 where v is 0."""
    k = params.varsigma.size
    try:
        v = np.asarray(parameters["relative_variances"], dtype=float)
    except KeyError:
        raise SchemaError(f"fit document {path}: an {method} fit needs "
                          "parameters.relative_variances") from None
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"fit document {path}: parameters.relative_variances: {exc}") from None
    if v.shape != (k,) or not (np.isfinite(v) & (v >= 0.0)).all():
        raise SchemaError(f"fit document {path}: parameters.relative_variances must be "
                          f"{k} finite values >= 0, got {parameters['relative_variances']!r}")
    with np.errstate(over="ignore", under="ignore"):
        implied = (params.varsigma / params.sigma) ** 2
    if not np.where(v == 0.0, params.varsigma == 0.0, np.abs(implied - v) <= 1e-12 * v).all():
        raise SchemaError(f"fit document {path}: (varsigma / sigma)^2 = {implied.tolist()} does "
                          f"not match parameters.relative_variances = {v.tolist()}")
    return v


def cmd_ranef(args) -> int:
    schema = _schema_from_args(args)
    dataset, spec = ingest(args.data, schema)
    try:
        with open(args.params, encoding="utf-8") as fh:
            doc = json.load(fh)
        parameters = doc["parameters"]
        beta = np.asarray(parameters["beta"], dtype=float)
        varsigma = np.asarray(parameters["varsigma"], dtype=float)
        sigma = float(parameters["sigma"])
        doc_alpha = tuple(doc["spec"]["alpha"])
        method = doc["spec"]["method"]
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise SchemaError(f"cannot read fit document {args.params}: {exc}") from None
    if method not in ALL_METHODS:
        raise SchemaError(f"fit document {args.params}: unknown method {method!r}, "
                          f"expected one of {', '.join(ALL_METHODS)}")
    if doc_alpha != spec.alpha:
        raise SchemaError(f"fit document alpha={doc_alpha} does not match the requested "
                          f"model's alpha={spec.alpha}")
    params = Parameters(beta=beta, varsigma=varsigma, sigma=sigma)
    check_sizes(params, dataset.p, spec.k, f"fit document {args.params}")
    if method in NORMAL_METHODS:  # the fit's shrinkage estimate, never at a bound
        gamma = shrinkage_gamma(_relative_variances(parameters, params, method, args.params),
                                dataset, spec, beta).gamma
        effects = RandomEffects(gamma, at_bound=np.zeros_like(gamma, dtype=bool))
    else:
        effects = solve_all(dataset, params, spec)
    cols = list(schema.model_columns)
    header = ["group"]
    for i in spec.alpha:
        header += [f"gamma_{cols[i]}", f"overall_{cols[i]}", f"at_bound_{cols[i]}"]
    rows = [tuple(header)]
    for ell, gid in enumerate(dataset.group_ids):
        row = [str(gid)]
        for i, col in enumerate(spec.alpha):
            row += [
                fmt_float(effects.gamma[ell, i]),
                fmt_float(params.beta[col] + effects.gamma[ell, i]),
                str(bool(effects.at_bound[ell, i])),
            ]
        rows.append(tuple(row))
    write_csv(args.out, rows)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_schema_args(sub, required=True):
    sub.add_argument("--group-col", required=required)
    sub.add_argument("--response-col", required=required)
    sub.add_argument("--features", required=required,
                     help="comma-separated feature column names (model order)")
    sub.add_argument("--random-effects", default="",
                     help="comma-separated subset of features, plus optional 'intercept'")
    sub.add_argument("--intercept", dest="intercept", action="store_true", default=True)
    sub.add_argument("--no-intercept", dest="intercept", action="store_false")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cslme",
        description="Sign-constrained linear mixed-effects fitting and simulation",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p_fit = subs.add_parser("fit", help="fit one model to a CSV file")
    p_fit.add_argument("data")
    _add_schema_args(p_fit)
    p_fit.add_argument("--method", default="PLS",
                       choices=[*ALL_METHODS, *[m.lower() for m in ALL_METHODS]])
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--starts", type=int, default=5)
    p_fit.add_argument("--pit-q", type=int, default=2, choices=(2, 4))
    p_fit.add_argument("--out", default=None)
    p_fit.add_argument("--format", default="json", choices=("json", "csv"))
    p_fit.set_defaults(func=cmd_fit)

    p_sim = subs.add_parser("simulate", help="run a simulation scenario config")
    p_sim.add_argument("config")
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_con = subs.add_parser("contour", help="objective values on a parameter grid")
    p_con.add_argument("config")
    p_con.add_argument("--data", default=None)
    _add_schema_args(p_con, required=False)
    p_con.add_argument("--out", default=None)
    p_con.set_defaults(func=cmd_contour)

    p_ran = subs.add_parser("ranef", help="per-group deviations from a saved fit")
    p_ran.add_argument("data")
    _add_schema_args(p_ran)
    p_ran.add_argument("--params", required=True, help="JSON document from `cslme fit`")
    p_ran.add_argument("--out", default=None)
    p_ran.set_defaults(func=cmd_ranef)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NUMERICAL_FAILURES as exc:  # before ValueError: LinAlgError is one
        detail = getattr(exc, "diagnostics", "")  # ConvergenceError's per-start list
        print(f"numerical failure: {exc} {detail}".rstrip(), file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:  # SchemaError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
