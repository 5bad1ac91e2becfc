"""Spans around the public entry points of each ``cslme`` module.

The package is not modified. ``Tracer.install`` replaces each listed
function or method with a wrapper in every ``cslme`` module namespace that
holds it (``minimize_box`` lives in ``optim``, ``estimate``, ``baseline``
and ``sim``), and ``uninstall`` puts the originals back. A wrapper records
one span per call: name, start, end, parent span, operation id, an
optional tag (the fit method) and up to two numbers taken from the call
(groups solved, cells computed, objective evaluations, ...). Spans stay in
memory in flat typed arrays and are written out once, by ``save``.

A listed name the package no longer defines is reported as absent, never
as an error, so a later change may remove a wrapped function.
"""

from array import array
from dataclasses import dataclass
import functools
import sys
import time

import numpy as np


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``module.attr`` or ``module.Class.method``."""

    module: str
    attr: str
    annotate: object = None  # (args, kwargs, result, extra) -> (tag, v1, v2)
    count_fun: bool = False   # wrap the first argument to count its calls

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}".replace("__init__", "init")


def _fit_tag(args, kwargs, result, extra):
    config = kwargs.get("config", args[2] if len(args) > 2 else None)
    method = "PLS" if config is None else config.method
    starts = 5 if config is None else config.n_starts
    return method, float(starts - len(result.start_objectives)), 0.0


def _unconstrained_tag(args, kwargs, result, extra):
    crit = kwargs.get("criterion", args[2] if len(args) > 2 else "REML")
    return str(crit).upper(), 0.0, 0.0


def _solve_all_tag(args, kwargs, result, extra):
    return None, float(result.gamma.shape[0]), float(np.count_nonzero(result.at_bound))


def _contour_tag(args, kwargs, result, extra):
    return None, float(len(result)), 0.0


def _minimize_tag(args, kwargs, result, extra):
    tag = "converged" if result.converged else "stopped"
    return tag, float(extra), float(result.n_iter)


# Every public entry point the benchmark traces, by module.
LAYERS = {
    "sdtn": [Target("sdtn", "variance_factor"), Target("sdtn", "sdtn_ppf")],
    "model": [
        Target("model", "re_variances"),
        Target("model", "BlockDesign.__init__"),
        Target("model", "BlockDesign.solve"),
        Target("model", "BlockSolve.quad_form_resid"),
        Target("model", "BlockSolve.xt_vinv_x"),
        Target("model", "BlockSolve.xt_vinv_y"),
        Target("model", "BlockSolve.zt_vinv_resid"),
    ],
    "estimate": [Target("estimate", "fit", _fit_tag), Target("estimate", "logdet_psd")],
    "optim": [
        Target("optim", "minimize_box", _minimize_tag, count_fun=True),
        Target("optim", "central_diff_grad"),
    ],
    "ranef": [Target("ranef", "solve_all", _solve_all_tag), Target("ranef", "solve_group")],
    "baseline": [
        Target("baseline", "fit_unconstrained", _unconstrained_tag),
        Target("baseline", "profile_loglik"),
        Target("baseline", "reml_loglik"),
        Target("baseline", "fit_pit"),
        Target("baseline", "pit_objective"),
    ],
    "metrics": [Target("metrics", "r_squared")],
    "sim": [
        Target("sim", "gen_design"),
        Target("sim", "gen_response"),
        Target("sim", "run_scenario"),
        Target("sim", "contour_grid", _contour_tag),
    ],
    "cli": [Target("cli", "ingest")],
}

ALL_TARGETS = [t for targets in LAYERS.values() for t in targets]

# The untraced run times only the calls its end-to-end metrics are made of.
ENTRY_POINTS = [t for t in ALL_TARGETS if t.name in (
    "estimate.fit", "baseline.fit_unconstrained", "ranef.solve_all",
    "sim.contour_grid", "sim.run_scenario",
)]


class Tracer:
    """In-memory span recorder; one instance per benchmark run."""

    def __init__(self, targets):
        self.targets = list(targets)
        self.names = [t.name for t in self.targets]
        self.absent: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        # one entry per span, in call order (a parent precedes its children)
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.ops = array("i")
        self.tag = array("i")
        self.v1 = array("d")
        self.v2 = array("d")
        self.error = array("i")
        self.tags: list[str] = []
        self.errors: list[str] = []

    # -- installation -------------------------------------------------------

    def install(self):
        for idx, target in enumerate(self.targets):
            mod = sys.modules.get(f"cslme.{target.module}")
            owner, attr = mod, target.attr
            if mod is not None and "." in attr:
                cls_name, attr = attr.split(".", 1)
                owner = getattr(mod, cls_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(target.name)
                continue
            wrapper = self._wrap(idx, target, original)
            if owner is not mod:  # a method: patch the class once
                self._set(owner, attr, original, wrapper)
                continue
            for name, other in list(sys.modules.items()):
                if (name == "cslme" or name.startswith("cslme.")) and other is not None:
                    for key, value in list(vars(other).items()):
                        if value is original:
                            self._set(other, key, original, wrapper)

    def _set(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _tag_id(self, tag) -> int:
        if tag is None:
            return -1
        if tag not in self.tags:
            self.tags.append(tag)
        return self.tags.index(tag)

    def _wrap(self, idx, target, original):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = len(tracer.name)
            tracer.name.append(idx)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.ops.append(tracer.op)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer.tag.append(-1)
            tracer.v1.append(0.0)
            tracer.v2.append(0.0)
            tracer.error.append(-1)
            if target.count_fun:
                fun = args[0]
                calls = [0]

                def counted(x):
                    calls[0] += 1
                    return fun(x)

                args = (counted,) + args[1:]
            tracer._stack.append(span)
            tracer.start[span] = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                tracer.end[span] = clock()
                kind = type(exc).__name__
                if kind not in tracer.errors:
                    tracer.errors.append(kind)
                tracer.error[span] = tracer.errors.index(kind)
                raise
            finally:
                tracer._stack.pop()
            tracer.end[span] = clock()
            if target.annotate is not None:
                extra = calls[0] if target.count_fun else 0
                tag, a, b = target.annotate(args, kwargs, result, extra)
                tracer.tag[span] = tracer._tag_id(tag)
                tracer.v1[span] = a
                tracer.v2[span] = b
            return result

        return wrapper

    # -- queries ------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=float),
            "end": np.frombuffer(self.end, dtype=float),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "op": np.frombuffer(self.ops, dtype=np.int32),
            "tag": np.frombuffer(self.tag, dtype=np.int32),
            "v1": np.frombuffer(self.v1, dtype=float),
            "v2": np.frombuffer(self.v2, dtype=float),
            "error": np.frombuffer(self.error, dtype=np.int32),
        }

    def save(self, path):
        """Write every span and the name/tag/error tables to one ``.npz``."""
        np.savez_compressed(
            path, names=np.asarray(self.names), tags=np.asarray(self.tags, dtype=str),
            errors=np.asarray(self.errors, dtype=str), **self.arrays(),
        )


def self_times(a: dict) -> np.ndarray:
    """Each span's duration minus the time its direct child spans cover.

    Calls are nested and single-threaded, so children never overlap and
    their durations add up.
    """
    dur = a["end"] - a["start"]
    child = np.zeros_like(dur)
    has_parent = a["parent"] >= 0
    np.add.at(child, a["parent"][has_parent], dur[has_parent])
    return dur - child


def outer_calls(a: dict, idx: int) -> np.ndarray:
    """Mask of the spans named ``idx`` whose parent has another name, so a
    call nested in a call of the same name is not counted twice."""
    parent_name = np.where(a["parent"] >= 0, a["name"][a["parent"].clip(0)], -1)
    return (a["name"] == idx) & (parent_name != idx)


def layer_table(tracer: Tracer) -> dict:
    """``{name: {"calls", "total_s", "self_s"}}``; absent names map to None."""
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    own = self_times(a)
    out = {}
    for idx, name in enumerate(tracer.names):
        if name in tracer.absent:
            out[name] = None
            continue
        mask = a["name"] == idx
        out[name] = {
            "calls": int(np.count_nonzero(mask)),
            "total_s": float(dur[outer_calls(a, idx)].sum()),
            "self_s": float(own[mask].sum()),
        }
    return out


def descendants_count(a: dict, roots: np.ndarray, name_idx: int) -> np.ndarray:
    """For each root span, the number of spans named ``name_idx`` nested in it.

    Spans are stored in call order, so the spans nested in span r are
    exactly r + 1 .. k - 1, where k is the first span that starts after r ends.
    """
    ends = np.searchsorted(a["start"], a["end"][roots])
    hits = np.concatenate([[0], np.cumsum(a["name"] == name_idx)])
    return hits[ends] - hits[roots + 1]
