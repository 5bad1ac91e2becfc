"""cslme benchmark: one workload, one seed, a closed loop with one client.

    python3 perfbench/run.py --workload sleepstudy --seed 0 --seconds 40 --trace 0

Run from the repository root; the package is imported from ``src/``. The
loop repeats the workload's cycle of steps until ``--seconds`` have passed,
then finishes the cycle, checks every step's output and prints each
metric by name with its unit. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics. Only the five public entry
points the metrics are made of (fit, fit_unconstrained, solve_all,
contour_grid, run_scenario) are timed, with one clock read on each side.
``--trace 1`` wraps every public entry point of every module (see
``tracer.LAYERS``), reports the per-layer metrics and writes all spans to
``.perfbench/``. Its tracing overhead is measured by running each step of
the first cycles again twice, untraced and traced.

A step that raises counts as one failed operation, recorded by exception
type; so does a step whose output check fails, a replication that records
an error and a contour grid with a NaN cell. The run never aborts on one.

Times are reported in reference seconds. On a shared host the speed of
identical work drifts by 10-30 % within a run and between runs, on every
time scale from a second to minutes. So a timer interrupts the loop every
PROBE_EVERY_S and times a fixed NumPy kernel that runs no package code
(``Probe``). The probes' own time is taken out of every timestamp, and each
step is converted to reference seconds with the mean probe time over that
step: a long fit is corrected by the probes that ran during it. Set-up
time is converted with kernel samples taken right after set-up.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from array import array  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
from pathlib import Path  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

PINNED = {"CSLME_THREADS": "1", "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "BLIS_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
          "NUMEXPR_NUM_THREADS": "1"}
os.environ.update(PINNED)  # before numpy is imported

import numpy as np  # noqa: E402

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5     # this process plus four fresh interpreters
OVERHEAD_MIN_S = 3.0  # the overhead comparison covers at least this much step time
KERNEL_ITERS = 250    # about 2 ms of reference kernel per probe
PROBE_EVERY_S = 0.1   # about 2 % of the loop
PROBE_WINDOW = 10     # fewest probes a step's speed is averaged over
SETUP_PROBES = 20     # kernel samples that convert one set-up time
REFERENCE_KERNEL_S = 0.002  # a fixed scale: about the mean probe on the baseline host

END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MB", "ok_share": "share",
    "fit_pls_p50_s": "s", "fit_prls_p50_s": "s", "fit_ml_p50_s": "s",
    "fit_reml_p50_s": "s", "reps_per_s": "reps/s", "rep_p50_s": "s",
    "rep_p90_s": "s", "contour_cells_per_s": "cells/s",
    "ranef_groups_per_s": "groups/s",
}

# Per-layer statistics reported for each wrapped name. Times are reported
# only for layers every workload runs; the others report their call count.
PER_LAYER = {
    "sdtn.variance_factor": ("calls", "self_s"),
    "sdtn.sdtn_ppf": ("calls",),
    "model.re_variances": ("calls", "self_s"),
    "model.BlockDesign.init": ("calls", "self_s"),
    "model.BlockDesign.solve": ("calls", "self_s"),
    "model.BlockSolve.quad_form_resid": ("calls", "self_s"),
    "model.BlockSolve.xt_vinv_x": ("calls", "self_s"),
    "model.BlockSolve.xt_vinv_y": ("calls", "self_s"),
    "model.BlockSolve.zt_vinv_resid": ("calls", "self_s"),
    "estimate.fit": ("calls", "total_s", "self_s"),
    "estimate.logdet_psd": ("calls", "self_s"),
    "optim.minimize_box": ("calls", "total_s", "self_s"),
    "optim.central_diff_grad": ("calls", "self_s"),
    "ranef.solve_all": ("calls", "total_s", "self_s"),
    "ranef.solve_group": ("calls", "self_s"),
    "baseline.fit_unconstrained": ("calls", "total_s", "self_s"),
    "baseline.profile_loglik": ("calls",),
    "baseline.reml_loglik": ("calls",),
    "baseline.fit_pit": ("calls",),
    "baseline.pit_objective": ("calls",),
    "metrics.r_squared": ("calls", "self_s"),
    "sim.gen_design": ("calls",),
    "sim.gen_response": ("calls",),
    "sim.run_scenario": ("calls",),
    "sim.contour_grid": ("calls", "total_s", "self_s"),
    "cli.ingest": ("calls",),
}

# Per-layer metrics derived from span annotations: (name, unit, better).
DERIVED = [
    ("optim.nfev", "count", "lower"),
    ("optim.nit", "count", "lower"),
    ("optim.nfev_per_fit", "count", "lower"),
    ("optim.converged_share", "share", "higher"),
    ("estimate.failed_starts", "count", "lower"),
    ("ranef.at_bound_share", "share", "lower"),
    ("baseline.underflow_errors", "count", "lower"),
    *[(f"model.BlockDesign.solve.first_{m}_fit", "count", "lower")
      for m in ("pls", "prls", "ml", "reml")],
    ("trace.spans", "count", "lower"),
    ("trace.overhead_share", "share", "lower"),
]


def per_layer_metrics() -> list:
    """Every per-layer metric the traced run reports, as (name, unit, better)."""
    return [(f"{name}.{stat}", "count" if stat == "calls" else "s", "lower")
            for name, stats in PER_LAYER.items() for stat in stats] + DERIVED


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time imports and set-up, print the reference seconds, exit")
    return ap.parse_args(argv)


def import_benchmark():
    """Put ``src/`` and this directory on the path; fail without a checkout."""
    src = ROOT / "src"
    if not (src / "cslme" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {src / 'cslme'}; "
                 "run from the root of a cslme checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import tracer
    import workloads
    return tracer, workloads


def set_up(workloads, args) -> tuple:
    """The workload, ready, and the seconds since the interpreter started,
    in reference seconds: converted with SETUP_PROBES kernel samples taken
    right after."""
    workload = workloads.WORKLOADS[args.workload]()
    workload.setup(args.seed)
    workload.warm_up()
    seconds = time.perf_counter() - T_START
    kernel = statistics.fmean(reference_kernel() for _ in range(SETUP_PROBES))
    return workload, seconds * REFERENCE_KERNEL_S / kernel


def setup_seconds(args, first: float) -> float:
    """Median of this process's set-up time and that of fresh interpreters."""
    samples = [first]
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def reference_kernel() -> float:
    """Seconds one pass of a fixed loop takes: 2x2 Cholesky factors, small
    products and Python float arithmetic, the mix of work in the package's
    per-group loops. It runs no package code, so only the machine moves it.
    """
    A, v, acc = np.array([[2.0, 0.3], [0.3, 1.0]]), np.array([1.0, 2.0]), 0.0
    t0 = time.perf_counter()
    for i in range(KERNEL_ITERS):
        acc += float(v @ np.linalg.cholesky(A) @ v) + 0.5 * i
    return time.perf_counter() - t0


class Probe:
    """Machine speed, sampled throughout the timed loop.

    While entered, SIGALRM fires every PROBE_EVERY_S and its handler runs
    the reference kernel once. Python runs the handler in the main thread
    between bytecodes, so a probe lands inside whatever step is running.
    After ``__exit__``, ``net`` removes the probes' time from timestamps
    and ``speed`` gives reference seconds per second over an interval.
    """

    def __init__(self):
        self.starts, self.ends = [], []

    def _probe(self, signum, frame):
        t0 = time.perf_counter()
        reference_kernel()
        self.starts.append(t0)
        self.ends.append(time.perf_counter())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        ends = np.asarray(self.ends)
        self.kernel = ends - np.asarray(self.starts)
        self._ends = ends
        self._paused = np.concatenate([[0.0], np.cumsum(self.kernel)])
        self.at = ends - self._paused[1:]  # each probe's net timestamp
        return False

    def net(self, t):
        """Timestamps with the time of every probe that ended before them removed."""
        t = np.asarray(t, dtype=float)
        return t - self._paused[np.searchsorted(self._ends, t, side="right")]

    def speed(self, start, end) -> np.ndarray:
        """Reference seconds per second over each net interval [start, end]:
        the reference duration over the mean probe time inside it, widened
        around its middle to at least PROBE_WINDOW probes.
        """
        n = self.kernel.size
        width = min(PROBE_WINDOW, n)
        i0 = np.searchsorted(self.at, start)
        i1 = np.searchsorted(self.at, end)
        narrow = i1 - i0 < width
        lo = np.clip((i0 + i1) // 2 - width // 2, 0, n - width)
        i0, i1 = np.where(narrow, lo, i0), np.where(narrow, lo + width, i1)
        return REFERENCE_KERNEL_S * (i1 - i0) / (self._paused[i1] - self._paused[i0])

    def overall(self) -> float:
        """Reference seconds per second over the whole loop."""
        return REFERENCE_KERNEL_S / float(self.kernel.mean())


@dataclass
class Loop:
    log: list = field(default_factory=list)    # (cycle, kind, output, error type)
    steps: list = field(default_factory=list)  # (cycle, start, end), net timestamps
    cycles: int = 0


def run_loop(workload, spans, seconds) -> tuple:
    """Run whole cycles until `seconds` pass and the workload's min_cycles
    are done, with the speed probe running. Returns the loop's log and its
    probe; step and span timestamps are made net of probe time.
    """
    clock = time.perf_counter
    loop, raw = Loop(), []
    with Probe() as probe:
        deadline = clock() + seconds
        while True:
            for kind, call in workload.steps(loop.cycles):
                spans.op += 1
                t0 = clock()
                try:
                    loop.log.append((loop.cycles, kind, call(), None))
                except Exception as exc:  # a failed operation never aborts the run
                    loop.log.append((loop.cycles, kind, None, type(exc).__name__))
                raw.append((loop.cycles, t0, clock()))
            loop.cycles += 1
            if loop.cycles >= workload.min_cycles and clock() >= deadline:
                break
    if probe.kernel.size == 0:
        raise RuntimeError("the speed probe never ran")
    cycle, start, end = (np.array(c) for c in zip(*raw))
    loop.steps = list(zip(cycle, probe.net(start), probe.net(end)))
    spans.start = array("d", probe.net(np.asarray(spans.start)))
    spans.end = array("d", probe.net(np.asarray(spans.end)))
    return loop, probe


def check_outputs(workload, log):
    """Failure counts by type, and every wrong-output message."""
    failures, wrong_all = {}, []
    for _, kind, out, error in log:
        if error is None:
            errors, wrong = workload.check(kind, out)
            if wrong:
                error = "wrong output"
            elif errors:
                error = errors[0].split(":")[0]
            wrong_all.extend(wrong)
        if error is not None:
            failures[error] = failures.get(error, 0) + 1
    return failures, wrong_all


def end_to_end(tracing, spans, loop, probe, ok_share) -> dict:
    """Timings in reference seconds: each step's or call's net duration times
    the probe speed over it.

    A replication is one cycle. Its latency counts only cycles in which no
    step raised; the rate counts cycles discounted by the failed share.
    """
    a = spans.arrays()
    dur = (a["end"] - a["start"]) * probe.speed(a["start"], a["end"])
    ok = (a["error"] < 0) & (a["op"] >= 0)  # timed loop only, completed calls

    def select(name, tag=None):
        mask = ok & tracing.outer_calls(a, spans.names.index(name))
        if tag is not None:
            mask &= a["tag"] == (spans.tags.index(tag) if tag in spans.tags else -2)
        return mask

    def p50(mask):
        return float(np.median(dur[mask])) if mask.any() else math.nan

    def rate(mask):  # items per reference second inside the calls
        return float(a["v1"][mask].sum() / dur[mask].sum()) if mask.any() else math.nan

    cycle, start, end = (np.array(c) for c in zip(*loop.steps))
    step_s = np.bincount(cycle, (end - start) * probe.speed(start, end))
    failed = np.zeros(loop.cycles, dtype=bool)
    failed[[c for c, _, _, error in loop.log if error is not None]] = True
    good = list(step_s[~failed])
    return {
        "fit_pls_p50_s": p50(select("estimate.fit", "PLS")),
        "fit_prls_p50_s": p50(select("estimate.fit", "PRLS")),
        "fit_ml_p50_s": p50(select("baseline.fit_unconstrained", "ML")),
        "fit_reml_p50_s": p50(select("baseline.fit_unconstrained", "REML")),
        "reps_per_s": ok_share * loop.cycles / float(step_s.sum()),
        "rep_p50_s": statistics.median(good) if good else math.nan,
        "rep_p90_s": (statistics.quantiles(good, n=10, method="inclusive")[-1]
                      if len(good) > 1 else good[0] if good else math.nan),
        "contour_cells_per_s": rate(select("sim.contour_grid")),
        "ranef_groups_per_s": rate(select("ranef.solve_all")),
    }


def tracing_overhead(tracing, workload) -> tuple:
    """Seconds of the first cycles' steps fully traced and untraced.

    Each step runs twice in a row, once timing only the entry points and
    once with every target traced, so machine drift between the two cancels.
    Failures were counted in the timed loop and are ignored here.
    """
    seconds = {False: 0.0, True: 0.0}
    cycle = 0
    while seconds[False] < OVERHEAD_MIN_S:
        for _, call in workload.steps(cycle):
            for traced in (False, True):
                spans = tracing.Tracer(tracing.ALL_TARGETS if traced else tracing.ENTRY_POINTS)
                spans.install()
                t0 = time.perf_counter()
                try:
                    call()
                except Exception:
                    pass
                finally:
                    seconds[traced] += time.perf_counter() - t0
                    spans.uninstall()
        cycle += 1
    return seconds[True], seconds[False]


def per_layer(tracing, spans, workload, probe, args) -> dict:
    """Per-layer metrics of the traced run, plus the tracing overhead.

    Times are in reference seconds, converted with the probe speed over the
    whole loop.
    """
    speed = probe.overall()
    table = tracing.layer_table(spans)
    print(f"{'layer (measured seconds)':36s} {'calls':>9s} {'total_s':>10s} {'self_s':>10s}")
    for name, row in table.items():
        if row is None:
            print(f"{name:36s} absent")
        else:
            print(f"{name:36s} {row['calls']:9d} {row['total_s']:10.4f} {row['self_s']:10.4f}")

    traced_s, untraced_s = tracing_overhead(tracing, workload)
    print(f"tracing overhead: traced {traced_s:.4f} s, untraced {untraced_s:.4f} s")

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{args.workload}-{args.seed}.npz"
    spans.save(path)
    print(f"{len(spans.name)} spans written to {path.relative_to(ROOT)}")

    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": float(value), "unit": unit}

    for name, stats in PER_LAYER.items():
        row = table.get(name)
        for stat in stats:
            value = 0.0 if row is None else row[stat]
            put(f"{name}.{stat}", value if stat == "calls" else speed * value,
                "count" if stat == "calls" else "s")

    a = spans.arrays()
    idx = spans.names.index
    done = a["error"] < 0

    def tag_id(tag, table):
        return table.index(tag) if tag in table else -2

    box = done & (a["name"] == idx("optim.minimize_box"))
    fits = done & np.isin(a["name"], [idx("estimate.fit"), idx("baseline.fit_unconstrained"),
                                      idx("baseline.fit_pit")])
    put("optim.nfev", a["v1"][box].sum(), "count")
    put("optim.nit", a["v2"][box].sum(), "count")
    put("optim.nfev_per_fit", a["v1"][box].sum() / max(1, int(fits.sum())), "count")
    put("optim.converged_share",
        np.count_nonzero(a["tag"][box] == tag_id("converged", spans.tags)) / max(1, box.sum()),
        "share")
    est = done & (a["name"] == idx("estimate.fit"))
    put("estimate.failed_starts", a["v1"][est].sum(), "count")
    solved = done & (a["name"] == idx("ranef.solve_all"))
    put("ranef.at_bound_share",
        a["v2"][solved].sum() / max(1.0, a["v1"][solved].sum() * workload.spec.k), "share")
    put("baseline.underflow_errors", np.count_nonzero(
        (a["name"] == idx("baseline.fit_pit"))
        & (a["error"] == tag_id("QuadratureUnderflowError", spans.errors))), "count")
    # objective-evaluation cross-check: solve calls inside the first fit of each method
    for method, fn in (("PLS", "estimate.fit"), ("PRLS", "estimate.fit"),
                       ("ML", "baseline.fit_unconstrained"),
                       ("REML", "baseline.fit_unconstrained")):
        first = np.flatnonzero(done & (a["op"] >= 0) & (a["name"] == idx(fn))
                               & (a["tag"] == tag_id(method, spans.tags)))[:1]
        count = (tracing.descendants_count(a, first, idx("model.BlockDesign.solve"))[0]
                 if first.size else 0)
        put(f"model.BlockDesign.solve.first_{method.lower()}_fit", count, "count")
    put("trace.spans", len(spans.name), "count")
    put("trace.overhead_share", traced_s / untraced_s - 1.0, "share")
    declared = [(name, unit) for name, unit, _ in per_layer_metrics()]
    if [(k, m["unit"]) for k, m in metrics.items()] != declared:
        raise RuntimeError("per-layer metrics differ from per_layer_metrics()")
    return metrics


def environment() -> dict:
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "machine": platform.machine(), "threads": PINNED}


def main(argv=None) -> int:
    args = parse_args(argv)
    tracing, workloads = import_benchmark()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    if args.setup_only:
        print(set_up(workloads, args)[1])
        return 0

    # installed before set-up, so a traced run also sees ingest and data generation
    spans = tracing.Tracer(tracing.ALL_TARGETS if args.trace else tracing.ENTRY_POINTS)
    spans.install()
    workload, first_setup = set_up(workloads, args)
    if not args.trace:
        setup_s = setup_seconds(args, first_setup)

    t0 = time.perf_counter()
    loop, probe = run_loop(workload, spans, args.seconds)
    elapsed = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    spans.uninstall()

    failures, wrong = check_outputs(workload, loop.log)
    attempted, failed = len(loop.log), sum(failures.values())
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"cycles {loop.cycles}  steps {attempted}  loop {elapsed:.3f} s")
    print(f"machine speed {probe.overall():.4f} reference seconds per second "
          f"(mean of {probe.kernel.size} probes, {probe.kernel.sum():.3f} s)")
    print("environment " + json.dumps(environment()))
    for name, count in sorted(failures.items()):
        print(f"failed {name}: {count} of {attempted}")
    for msg in wrong:
        print(f"wrong output: {msg}")

    if args.trace:
        metrics = per_layer(tracing, spans, workload, probe, args)
    else:
        ok_share = (attempted - failed) / attempted
        values = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
                  "ok_share": ok_share, **end_to_end(tracing, spans, loop, probe, ok_share)}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    missing = [k for k, m in metrics.items() if not math.isfinite(m["value"])]
    if missing:
        sys.exit(f"perfbench: no measurement for {missing}")
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
