"""qlasso benchmark: Monte Carlo error-curve workloads, timed end to end and traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload uniform-sparse --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 15 --trace 0   # every workload
    python3 perfbench/run.py --record-reference                             # rewrite reference.json

The benchmark writes a JSON config from --seed and hands it to a fresh
process that runs the program as its user would: the `qlasso` console entry
point (`qlasso.cli:main`) for the sparse workloads, the library's
`run_curve` for the low-rank one, whose config the CLI schema cannot express.
The program is imported from `src/` of the checkout; nothing is installed.

A run first starts the program SETUP_PROBES times and stops each at its first
`run_curve` call (set-up only), then repeats the whole workload until
--seconds have passed, and reports medians over those invocations:

  wall_s        process start to exit of one invocation, what the user waits for
  setup_s       interpreter start, `import qlasso` and config resolution, up to the
                first run_curve call; median over probes and invocations
  trials_per_s  (trial, estimator) solves per second between the first run_curve
                call and the return of the last one
  peak_rss_mb   peak resident memory of the largest process of an invocation,
                pool workers included (wait4 reports the maximum over the child
                and the descendants it reaped)

failed_frac (failed invocations / invocations attempted) is printed too; it is
0 on a working program, so it is reported through `failed` and `attempted`
rather than as a gated metric.

With --trace 1 the run also starts the workload once with `--jobs 1` and every
public layer function wrapped (see child.py), and reports per-layer counts and
self times, the tracing overhead (traced minus untraced `--jobs 1` wall time),
a layer-share table and the span tree. Pool workers import the package afresh
and would lose their spans, hence `--jobs 1` for the traced invocation.

BLAS is pinned to one thread in every process the benchmark starts. On a
2-core machine an unpinned `run-uniform --jobs 2` took 12.6 s, 33.8 s and
27.7 s on three runs (pinned: 2.9-3.3 s) because every pool worker starts its
own BLAS thread pool; unpinned `--jobs 1` took 5.9-7.4 s (pinned: 4.8-5.4 s).
Times that swing by 3x cannot be gated, so the pin is part of the benchmark.

Every invocation's outputs are checked (see `check_outputs`); an invocation
fails if it exits non-zero or fails a check, and the run is correct only if
none failed.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
OUT_DIR = ".perfbench_out"

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 5
RUN_DEADLINE_S = 170.0  # a run must end within 180 s

SPARSE = {"n": 100, "s": 25, "norm": 8.0, "R": 10.0, "ensemble": "rademacher"}
UNIFORM_GRID = [200, 400, 700, 1000, 1400, 2000]
ONEBIT_GRID = [500, 1000, 2000, 4000, 8000]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "cli" (console entry point) or "lowrank" (library run_curve)
    command: str  # CLI subcommand; empty for lowrank
    config: dict  # everything but the seed
    jobs: int
    outputs: tuple  # CSV files holding the error curves, checked after each invocation
    checks: tuple = ()  # names of statistical checks, see STAT_CHECKS

    @property
    def estimators(self):
        return self.config["estimators"]

    @property
    def solves(self):
        return len(self.config["m_grid"]) * self.config["trials"] * len(self.estimators)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "uniform-sparse",
            "bound by PGD iterations (m=200 needs ~110): l1 projection, Lipschitz "
            "estimate and the loop body dominate; projection and step-size changes show here",
            "cli",
            "run-uniform",
            dict(SPARSE, quantizer="uniform", delta=3.0, m_grid=UNIFORM_GRID, trials=200,
                 estimators=["glasso"]),
            jobs=1,
            outputs=("uniform_glasso.csv",),
            checks=("uniform_slope",),
        ),
        Workload(
            "onebit-largem",
            "bound by sampling and the O(m n^2) Gram product with 9-26 iterations; the only "
            "workload that runs the process pool; a projection change should show nothing",
            "cli",
            "run-onebit",
            dict(SPARSE, quantizer="one_bit", m_grid=ONEBIT_GRID, trials=200,
                 estimators=["glasso"]),
            jobs=2,
            outputs=("onebit_glasso.csv",),
        ),
        Workload(
            "compare-paired",
            "redraws (x0, A, y) for each of glasso, pbp and dm, so sampling dominates the "
            "one-shot estimators; a shared-draw change shows here and not on uniform-sparse",
            "cli",
            "compare",
            dict(SPARSE, quantizer="uniform", delta=3.0, m_grid=UNIFORM_GRID, trials=200,
                 estimators=["glasso", "pbp", "dm"]),
            jobs=1,
            outputs=("compare.csv",),
            checks=("winrate_m1000",),
        ),
        Workload(
            "lowrank-nuclear",
            "the only path through project_nuclear_ball (one SVD per PGD iteration); "
            "without it the nuclear projection goes unmeasured",
            "lowrank",
            "",
            {"n": 256, "d": 16, "r": 2, "norm": 8.0, "R": 10.0, "ensemble": "gaussian",
             "quantizer": "uniform", "delta": 1.0, "m_grid": [400, 800, 1600], "trials": 100,
             "estimators": ["glasso"]},
            jobs=1,
            outputs=("lowrank_glasso.csv",),
            checks=("decreasing",),
        ),
    )
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "trials_per_s": "1/s", "peak_rss_mb": "MB"}

LAYERS = ("streams", "ensemble", "quantizer", "geometry", "solver", "experiment", "output", "cli")

# Per-layer metric -> (unit, the end-to-end metric it should move, on which workload).
PER_LAYER = {
    "geometry.project_l1_ball.calls": ("count", "trials_per_s on uniform-sparse, compare-paired; ~none on onebit-largem"),
    "geometry.project_l1_ball.self_s": ("s", "trials_per_s on uniform-sparse, compare-paired; ~none on onebit-largem"),
    "geometry.project_l1_ball.us_per_call": ("us", "trials_per_s on uniform-sparse, compare-paired"),
    "geometry.project_nuclear_ball.calls": ("count", "trials_per_s on lowrank-nuclear only"),
    "geometry.project_nuclear_ball.self_s": ("s", "trials_per_s on lowrank-nuclear only (excludes nested l1)"),
    "geometry.project_nuclear_ball.us_per_call": ("us", "trials_per_s on lowrank-nuclear only"),
    "solver.estimate_lipschitz.calls": ("count", "trials_per_s on all, most onebit-largem, uniform-sparse"),
    "solver.estimate_lipschitz.self_s": ("s", "trials_per_s on all, most onebit-largem, uniform-sparse"),
    "solver.glasso_solve.calls": ("count", "trials_per_s on onebit-largem, lowrank-nuclear"),
    "solver.glasso_solve.self_s": ("s", "trials_per_s on onebit-largem, lowrank-nuclear (Gram, matvecs, loop)"),
    "solver.gram_gflop": ("Gflop", "onebit-largem, lowrank-nuclear; m*n^2 per Gram, 2 Grams per solve"),
    "solver.iters_p50": ("count", "trials_per_s on uniform-sparse"),
    "solver.iters_p99": ("count", "trials_per_s on uniform-sparse"),
    "solver.iters_max": ("count", "trials_per_s on uniform-sparse"),
    "solver.iters_p50.m_min": ("count", "trials_per_s on uniform-sparse (m=200: ~110)"),
    "solver.iters_p50.m_max": ("count", "trials_per_s on uniform-sparse"),
    "solver.nonconverged": ("count", "correctness: solves that hit max_iters"),
    "solver.per_iter_us": ("us", "trials_per_s on uniform-sparse, lowrank-nuclear"),
    "solver.pbp_estimate.calls": ("count", "trials_per_s on compare-paired"),
    "solver.pbp_estimate.self_s": ("s", "trials_per_s on compare-paired"),
    "solver.dm_estimate.calls": ("count", "trials_per_s on compare-paired"),
    "solver.dm_estimate.self_s": ("s", "trials_per_s on compare-paired"),
    "ensemble.sample_measurements.calls": ("count", "trials_per_s on onebit-largem, compare-paired"),
    "ensemble.sample_measurements.self_s": ("s", "trials_per_s on onebit-largem, compare-paired"),
    "ensemble.sample_measurements.bytes": ("B", "peak_rss_mb, trials_per_s on onebit-largem"),
    "ensemble.gen_signal.self_s": ("s", "trials_per_s on compare-paired"),
    "quantizer.measure.calls": ("count", "small everywhere"),
    "quantizer.measure.self_s": ("s", "small everywhere"),
    "streams.substream.calls": ("count", "trials_per_s on compare-paired"),
    "streams.substream.self_s": ("s", "trials_per_s on compare-paired"),
    "experiment.run_trial.self_s": ("s", "trials_per_s on all"),
    "experiment.trial_ms_p50": ("ms", "trials_per_s on all"),
    "experiment.trial_ms_p99": ("ms", "trials_per_s on all"),
    "experiment.draws_per_trial": ("ratio", "trials_per_s on compare-paired (3.0 today, 1.0 is useful work)"),
    "experiment.parallel_efficiency": ("ratio", "wall_s on onebit-largem; untraced --jobs 1 solve time / (jobs x --jobs N solve time)"),
    "output.write_error_curves_csv.self_s": ("s", "wall_s (small)"),
    "output.write_svg_lineplot.self_s": ("s", "wall_s (small)"),
    "output.bytes": ("B", "wall_s (small)"),
    **{f"layer.{layer}.self_share": ("ratio", "share of traced self time") for layer in LAYERS},
    "trace.overhead_s": ("s", "traced minus untraced --jobs 1 wall time"),
    "trace.overhead_frac": ("ratio", "tracing overhead over untraced --jobs 1 wall time"),
    "trace.spans": ("count", "spans recorded by the traced invocation"),
}

LAYER_NOTES = {
    "streams": "trials_per_s on compare-paired",
    "ensemble": "trials_per_s on onebit-largem, compare-paired",
    "quantizer": "small everywhere",
    "geometry": "trials_per_s on uniform-sparse, compare-paired, lowrank-nuclear",
    "solver": "trials_per_s on all four",
    "experiment": "trials_per_s on all four",
    "output": "wall_s (small)",
    "cli": "setup_s, wall_s (small)",
    "bench": "the benchmark's own low-rank script",
}


# --- running one invocation ---------------------------------------------------

@dataclass
class Invocation:
    label: str
    mode: str  # plain | probe | trace
    jobs: int
    out: Path
    code: int = -1
    wall_s: float = math.nan
    setup_s: float = math.nan
    solve_s: float = math.nan
    rss_mb: float = math.nan
    problems: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.problems


class Runner:
    """Starts workload invocations in fresh processes under one deadline."""

    def __init__(self, wl, root, seed, wdir):
        self.wl, self.root, self.wdir = wl, root, wdir
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.config = wdir / "config.json"
        with open(self.config, "w") as fh:
            json.dump(dict(wl.config, seed=seed), fh, indent=1)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), **BLAS_ENV)
        self.env.pop("QLASSO_SEED", None)

    def argv(self, jobs, out):
        if self.wl.kind == "lowrank":
            return ["lowrank", str(self.config), str(out)]
        return ["cli", self.wl.command, "--config", str(self.config), "--out", str(out),
                "--jobs", str(jobs)]

    def invoke(self, label, mode, jobs):
        d = self.wdir / label
        d.mkdir()
        inv = Invocation(label, mode, jobs, d / "out")
        result = d / "result.json"
        cmd = [sys.executable, str(HERE / "child.py"), str(result), mode] + self.argv(jobs, inv.out)
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            inv.problems.append("run deadline passed before start")
            return inv
        with open(d / "log.txt", "w") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT, start_new_session=True)
            killer = threading.Timer(timeout, _kill_group, (proc.pid,))
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            t1 = time.monotonic()
        proc.returncode = inv.code = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)  # anything the child left behind in its session
        inv.wall_s = t1 - t0
        inv.rss_mb = usage.ru_maxrss / 1024.0
        if inv.code != 0:
            inv.problems.append(f"exit code {inv.code}; see {d / 'log.txt'}")
            return inv
        try:
            with open(result) as fh:
                stamps = json.load(fh)
            inv.setup_s = stamps["first_run_curve"] - t0
            if mode != "probe":
                inv.solve_s = stamps["last_run_curve_end"] - stamps["first_run_curve"]
        except (OSError, ValueError, KeyError) as exc:
            inv.problems.append(f"no timing stamps: {exc!r}")
        return inv


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


# --- output checks ------------------------------------------------------------

def read_csv_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def curve_values(wl, out):
    """{(estimator, m): mean_err} and {(column, m): value} of every numeric CSV cell."""
    means, cells = {}, {}
    for name in wl.outputs:
        for row in read_csv_rows(out / name):
            m = int(row["m"])
            if "estimator" in row:  # estimator,m,mean_err,std_err,trials,seed_hash
                means[(row["estimator"], m)] = float(row["mean_err"])
                for col in ("mean_err", "std_err"):
                    cells[(f"{row['estimator']}.{col}", m)] = float(row[col])
            else:  # compare.csv: m,<est>_mean_err...,winrate_glasso_vs_<est>...
                for col, val in row.items():
                    if col != "m":
                        cells[(col, m)] = float(val)
                for est in wl.estimators:
                    means[(est, m)] = float(row[f"{est}_mean_err"])
    return means, cells


def loglog_slope(ms, errs):
    xs = [math.log(m) for m in ms]
    ys = [math.log(e) for e in errs]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def check_uniform_slope(wl, means, cells):
    # Acceptance test_03 band, fitted past m >= 4 * w^2 with the sparse width
    # bound w = sqrt(2 s ln(n/s) + 1.5 s) of the l1 tangent cone.
    n, s = wl.config["n"], wl.config["s"]
    thresh = 4.0 * (2.0 * s * math.log(n / s) + 1.5 * s)
    ms = [m for m in wl.config["m_grid"] if m >= thresh]
    slope = loglog_slope(ms, [means[("glasso", m)] for m in ms])
    if not -0.6 <= slope <= -0.4:
        return f"log-log slope {slope:.3f} on m >= {thresh:.0f} outside [-0.6, -0.4]"


def check_winrate_m1000(wl, means, cells):
    # Acceptance test_04 band: paired glasso beats pbp in >= 95% of trials.
    rate = cells[("winrate_glasso_vs_pbp", 1000)]
    if rate < 0.95:
        return f"glasso-vs-pbp win rate {rate:.3f} at m=1000 below 0.95"


def check_decreasing(wl, means, cells):
    errs = [means[("glasso", m)] for m in wl.config["m_grid"]]
    if any(b >= a for a, b in zip(errs, errs[1:])):
        return f"mean_err not decreasing in m: {errs}"


STAT_CHECKS = {
    "uniform_slope": check_uniform_slope,
    "winrate_m1000": check_winrate_m1000,
    "decreasing": check_decreasing,
}

# Tolerances against the reference recorded at seed 0: a solver change may
# move each mean error within its convergence tolerance, and a win rate by a
# couple of the 200 paired trials.
REF_REL_TOL = 1e-3
REF_WINRATE_ABS_TOL = 0.01


def check_reference(wl, cells, reference):
    ref = reference.get(wl.name)
    if ref is None:
        return [f"no reference recorded for {wl.name}"]
    problems = []
    got = {f"{col}@{m}": v for (col, m), v in cells.items()}
    if set(got) != set(ref):
        return [f"reference cells differ: {sorted(set(got) ^ set(ref))}"]
    for key, want in ref.items():
        if key.startswith("winrate"):
            ok = abs(got[key] - want) <= REF_WINRATE_ABS_TOL
        else:
            ok = math.isclose(got[key], want, rel_tol=REF_REL_TOL)
        if not ok:
            problems.append(f"{key} = {got[key]!r}, reference {want!r}")
    return problems


def check_outputs(wl, inv, seed, first, reference):
    """Append to inv.problems whatever its outputs get wrong.

    Rows: every (estimator, m) present with finite, positive mean_err.
    Statistics: the workload's checks, which hold for any seed at full size.
    Determinism: every output file is byte-identical to the first invocation's,
    across repetitions, --jobs values and tracing.
    Reference: at seed 0 the CSV values match reference.json.
    """
    try:
        means, cells = curve_values(wl, inv.out)
    except (OSError, KeyError, ValueError) as exc:
        inv.problems.append(f"unreadable output: {exc!r}")
        return
    want = {(e, m) for e in wl.estimators for m in wl.config["m_grid"]}
    if set(means) != want:
        inv.problems.append(f"rows differ from the grid: {sorted(set(means) ^ want)}")
        return
    bad = {k: v for k, v in means.items() if not (math.isfinite(v) and v > 0)}
    if bad:
        inv.problems.append(f"non-finite or non-positive mean_err: {bad}")
        return
    for name in wl.checks:
        problem = STAT_CHECKS[name](wl, means, cells)
        if problem:
            inv.problems.append(problem)
    if first is not None and first is not inv:
        mine, theirs = _file_bytes(inv.out), _file_bytes(first.out)
        if mine != theirs:
            inv.problems.append(f"outputs differ from {first.label}: "
                                f"{sorted(k for k in mine.keys() | theirs.keys() if mine.get(k) != theirs.get(k))}")
    if seed == 0 and reference is not None:
        inv.problems.extend(check_reference(wl, cells, reference))


def _file_bytes(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


# --- traced run: spans to per-layer metrics -----------------------------------

def _pct(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def analyse_spans(path):
    """Spans by id with their self time, plus calls/total/self aggregated by name and by tree path."""
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    spans = {}
    child_s = {}
    for r in rows:
        sid, parent = int(r["id"]), int(r["parent"])
        dur = (int(r["end_ns"]) - int(r["start_ns"])) * 1e-9
        path_ = (spans[parent]["path"] if parent in spans else "") + "/" + r["name"]
        spans[sid] = dict(r, id=sid, parent=parent, dur=dur, path=path_)
        child_s[parent] = child_s.get(parent, 0.0) + dur
    by_name, tree = {}, {}
    for s in spans.values():
        s["self"] = s["dur"] - child_s.get(s["id"], 0.0)
        for key, table in ((s["name"], by_name), (s["path"], tree)):
            agg = table.setdefault(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += s["dur"]
            agg["self_s"] += s["self"]
    return spans, by_name, tree


def per_layer_metrics(wl, spans, by_name, traced, untraced_j1_wall, untraced_j1_solve, untraced_solve,
                      out_bytes):
    def agg(name, key):
        return by_name.get(name, {}).get(key, 0)

    metrics = {}
    for name in ("geometry.project_l1_ball", "geometry.project_nuclear_ball",
                 "solver.estimate_lipschitz", "solver.glasso_solve", "solver.pbp_estimate",
                 "solver.dm_estimate", "ensemble.sample_measurements", "quantizer.measure",
                 "streams.substream"):
        metrics[f"{name}.calls"] = agg(name, "calls")
        metrics[f"{name}.self_s"] = agg(name, "self_s")
    for name in ("geometry.project_l1_ball", "geometry.project_nuclear_ball"):
        calls = agg(name, "calls")
        metrics[f"{name}.us_per_call"] = 1e6 * agg(name, "self_s") / calls if calls else 0.0
    for name in ("ensemble.gen_signal", "experiment.run_trial", "output.write_error_curves_csv",
                 "output.write_svg_lineplot"):
        metrics[f"{name}.self_s"] = agg(name, "self_s")

    solves = [s for s in spans.values() if s["name"] == "solver.glasso_solve"]
    lips = [s for s in spans.values() if s["name"] == "solver.estimate_lipschitz"]
    metrics["solver.gram_gflop"] = sum(int(s["m"]) * int(s["n"]) ** 2 for s in solves + lips) / 1e9
    iters = [int(s["iters"]) for s in solves]
    per_m = {}
    for s in solves:
        per_m.setdefault(int(s["m"]), []).append(int(s["iters"]))
    metrics["solver.iters_p50"] = _pct(iters, 50)
    metrics["solver.iters_p99"] = _pct(iters, 99)
    metrics["solver.iters_max"] = max(iters, default=0)
    metrics["solver.iters_p50.m_min"] = _pct(per_m[min(per_m)], 50) if per_m else 0.0
    metrics["solver.iters_p50.m_max"] = _pct(per_m[max(per_m)], 50) if per_m else 0.0
    metrics["solver.nonconverged"] = sum(1 for s in solves if s["converged"] == "0")
    solve_ids = {s["id"] for s in solves}
    proj_in_solve = sum(s["dur"] for s in spans.values()
                        if s["parent"] in solve_ids and s["name"].startswith("geometry.project"))
    glasso_self = sum(s["self"] for s in solves)
    metrics["solver.per_iter_us"] = 1e6 * (glasso_self + proj_in_solve) / sum(iters) if iters else 0.0

    draws = [s for s in spans.values() if s["name"] == "ensemble.sample_measurements"]
    metrics["ensemble.sample_measurements.bytes"] = sum(int(s["m"]) * int(s["n"]) * 8 for s in draws)
    trials = [s for s in spans.values() if s["name"] == "experiment.run_trial"]
    trial_ms = [1e3 * s["dur"] for s in trials]
    metrics["experiment.trial_ms_p50"] = _pct(trial_ms, 50)
    metrics["experiment.trial_ms_p99"] = _pct(trial_ms, 99)
    pairs = {s["trial"] for s in trials}
    metrics["experiment.draws_per_trial"] = len(draws) / len(pairs) if pairs else 0.0
    metrics["experiment.parallel_efficiency"] = untraced_j1_solve / (wl.jobs * untraced_solve)
    metrics["output.bytes"] = out_bytes

    total_self = sum(s["self"] for s in spans.values())
    layer_self = {}
    for s in spans.values():
        layer = s["name"].split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + s["self"]
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_share"] = layer_self.get(layer, 0.0) / total_self if total_self else 0.0
    metrics["trace.overhead_s"] = traced.wall_s - untraced_j1_wall
    metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / untraced_j1_wall
    metrics["trace.spans"] = len(spans)
    return metrics, layer_self, per_m


# --- environment --------------------------------------------------------------

_ENV_PROBE = """
import json, platform, numpy, scipy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}))
"""


def environment(root, env, wl, seed):
    info = {"nproc": os.cpu_count(), "cpu": _cpu_model(), "machine": platform.machine()}
    probe = subprocess.run([sys.executable, "-c", _ENV_PROBE], env=env, cwd=root,
                           capture_output=True, text=True, timeout=60)
    if probe.returncode == 0:
        info.update(json.loads(probe.stdout))
    info.update({k: env[k] for k in BLAS_ENV})
    info["jobs"] = wl.jobs
    info["seed"] = seed
    info["commit"] = _git_commit(root)
    info["source_sha256"] = _source_hash(root)
    return info


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


def _source_hash(root):
    h = hashlib.sha256()
    for p in sorted((root / "src").rglob("*.py")):
        h.update(str(p.relative_to(root)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


# --- one run ------------------------------------------------------------------

def run_workload(wl, root, seed, seconds, trace, out_root, reference):
    """Run one workload for `seconds` (plus a traced invocation if `trace`); return the result."""
    wdir = out_root / wl.name
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    runner = Runner(wl, root, seed, wdir)
    env_info = environment(root, runner.env, wl, seed)

    probes = [runner.invoke(f"probe{k}", "probe", wl.jobs) for k in range(SETUP_PROBES)]
    plain = []
    start = time.monotonic()
    while True:
        inv = runner.invoke(f"run{len(plain)}", "plain", wl.jobs)
        plain.append(inv)
        if not inv.ok or time.monotonic() - start >= seconds:
            break
    extra = []
    if trace:
        j1 = plain
        if wl.jobs != 1:
            j1 = [runner.invoke("jobs1", "plain", 1)]
            extra += j1
        traced = runner.invoke("traced", "trace", 1)
        extra.append(traced)

    first = plain[0] if plain[0].ok else None
    for inv in plain + extra:
        if inv.ok:
            check_outputs(wl, inv, seed, first, reference)
    invocations = probes + plain + extra
    failed = sum(1 for inv in invocations if not inv.ok)

    ok_plain = [inv for inv in plain if inv.ok]
    summary = {
        "wall_s": [inv.wall_s for inv in ok_plain],
        "setup_s": [inv.setup_s for inv in probes + ok_plain if inv.ok],
        "trials_per_s": [wl.solves / inv.solve_s for inv in ok_plain],
        "peak_rss_mb": [inv.rss_mb for inv in ok_plain],
    }
    result = {
        "workload": wl.name,
        "env": env_info,
        "attempted": len(invocations),
        "failed": failed,
        "invocations": [
            {k: getattr(inv, k) for k in ("label", "mode", "jobs", "code", "wall_s", "setup_s",
                                          "solve_s", "rss_mb", "problems")}
            for inv in invocations
        ],
    }
    if failed == 0:
        if trace:
            spans, by_name, tree = analyse_spans(traced.out.parent / "spans.csv")
            out_bytes = sum(p.stat().st_size for p in traced.out.iterdir())
            metrics, layer_self, per_m = per_layer_metrics(
                wl, spans, by_name, traced,
                statistics.median(inv.wall_s for inv in j1),
                statistics.median(inv.solve_s for inv in j1),
                statistics.median(inv.solve_s for inv in plain),
                out_bytes)
            result["metrics"] = {k: {"value": metrics[k], "unit": PER_LAYER[k][0]} for k in PER_LAYER}
            result["span_tree"] = tree
            result["iters_by_m"] = {m: {"p50": _pct(v, 50), "p99": _pct(v, 99), "max": max(v)}
                                    for m, v in sorted(per_m.items())}
            result["layer_self_s"] = layer_self
        else:
            result["metrics"] = {k: {"value": statistics.median(v), "unit": END_TO_END[k]}
                                 for k, v in summary.items()}
        result["samples"] = {k: len(v) for k, v in summary.items()}
    with open(wdir / f"result-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(result, fh, indent=1, default=str)
    return result


# --- printing -----------------------------------------------------------------

def print_result(wl, result, trace):
    env = result["env"]
    print(f"== {wl.name}: {wl.why}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for inv in result["invocations"]:
        for problem in inv["problems"]:
            print(f"FAILED {inv['label']}: {problem}")
    attempted, failed = result["attempted"], result["failed"]
    metrics = result.get("metrics")
    if metrics and not trace:
        for name, m in metrics.items():
            print(f"  {name:<14} {m['value']:12.5g} {m['unit']:<4} (median of {result['samples'][name]})")
    print(f"  {'failed_frac':<14} {failed / attempted:12.5g}      ({failed} of {attempted} invocations)")
    if metrics and trace:
        print_trace(result)


def print_trace(result):
    metrics = result["metrics"]
    layer_self = result["layer_self_s"]
    total = sum(layer_self.values())
    print(f"  layer shares of traced self time ({total:.3f} s); tracing overhead "
          f"{metrics['trace.overhead_s']['value']:.3f} s "
          f"({100 * metrics['trace.overhead_frac']['value']:.1f}% of untraced --jobs 1 wall time)")
    print(f"    {'layer':<11} {'self_s':>9} {'share':>7}  should move")
    for layer, secs in sorted(layer_self.items(), key=lambda kv: -kv[1]):
        print(f"    {layer:<11} {secs:9.3f} {100 * secs / total:6.1f}%  {LAYER_NOTES.get(layer, '')}")
    print("  solver iterations by m: " + ", ".join(
        f"m={m}: p50 {v['p50']:g} p99 {v['p99']:g} max {v['max']}"
        for m, v in result["iters_by_m"].items()))
    print(f"    {'per-layer metric':<44} {'value':>12} {'unit':<6} should move")
    for name, (unit, note) in PER_LAYER.items():
        print(f"    {name:<44} {metrics[name]['value']:12.5g} {unit:<6} {note}")
    print("  span tree (calls, total_s, self_s):")
    for path, agg in sorted(result["span_tree"].items()):
        depth = path.count("/") - 1
        name = path.rsplit("/", 1)[1]
        print(f"    {'  ' * depth}{name:<{44 - 2 * depth}} {agg['calls']:>8} "
              f"{agg['total_s']:10.3f} {agg['self_s']:10.3f}")


def final_line(results, prefix_names):
    metrics = {}
    for wl_name, result in results:
        for name, m in result.get("metrics", {}).items():
            metrics[f"{wl_name}.{name}" if prefix_names else name] = m
    attempted = sum(r["attempted"] for _, r in results)
    failed = sum(r["failed"] for _, r in results)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


# --- entry point ----------------------------------------------------------------

def record_reference(root, out_root):
    """Run each workload once at seed 0 and store its CSV values in reference.json."""
    reference = {}
    for wl in WORKLOADS.values():
        wdir = out_root / wl.name
        shutil.rmtree(wdir, ignore_errors=True)
        wdir.mkdir(parents=True)
        inv = Runner(wl, root, 0, wdir).invoke("reference", "plain", wl.jobs)
        if not inv.ok:
            raise SystemExit(f"{wl.name}: {inv.problems}")
        _, cells = curve_values(wl, inv.out)
        reference[wl.name] = {f"{col}@{m}": v for (col, m), v in sorted(cells.items())}
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    print(f"wrote {REFERENCE}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "qlasso" / "__init__.py").is_file():
        print(f"error: {root} holds no qlasso source tree (src/qlasso); run from the repository root",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    out_root = root / OUT_DIR
    if args.record_reference:
        record_reference(root, out_root)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    reference = json.loads(REFERENCE.read_text())
    results = []
    for name in names:
        wl = WORKLOADS[name]
        result = run_workload(wl, root, args.seed, args.seconds, bool(args.trace), out_root, reference)
        print_result(wl, result, bool(args.trace))
        results.append((name, result))
    line = final_line(results, prefix_names=len(names) > 1)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
