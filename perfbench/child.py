"""Process launched by perfbench/run.py for one invocation of a workload.

    python3 child.py RESULT_JSON MODE cli ARGV...      # as the `qlasso` entry point
    python3 child.py RESULT_JSON MODE lowrank CONFIG OUT_DIR   # through the library API

MODE is one of
  plain  run untraced; only the first entry into and the last exit from
         `run_curve` are time-stamped, which gives set-up and solve time;
  probe  stop at the first `run_curve` call, so the process measures set-up only;
  trace  wrap the package's public functions and record one span per call.

Wrapping rebinds the module attribute every caller looks up, so no program
code changes. Spans stay in memory and are written to spans.csv next to
RESULT_JSON when the process ends. Timestamps are CLOCK_MONOTONIC, which is
shared by all processes on the machine, so the parent can subtract its own
spawn time.
"""

import csv
import json
import os
import sys
import time

# Functions wrapped in trace mode, by the module where they are defined.
TRACED = {
    "qlasso.cli": ("main",),
    "qlasso.experiment": ("run_curve", "run_trial"),
    "qlasso.ensemble": ("gen_signal", "sample_measurements"),
    "qlasso.quantizer": ("measure",),
    "qlasso.streams": ("substream",),
    "qlasso.solver": ("glasso_solve", "pbp_estimate", "dm_estimate", "estimate_lipschitz"),
    "qlasso.geometry": ("project_l1_ball", "project_nuclear_ball"),
    "qlasso.output": ("write_error_curves_csv", "write_svg_lineplot"),
}

SPAN_FIELDS = ("id", "name", "start_ns", "end_ns", "parent", "trial", "m", "n", "iters", "converged")


class SetupDone(BaseException):
    """Raised in probe mode at the first run_curve call."""


def _rebind(orig, wrapper):
    """Replace `orig` by `wrapper` in every loaded qlasso module that names it."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "qlasso" or name.startswith("qlasso.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapper)


def _shape(A):
    return getattr(A, "entries", A).shape


def _attrs(name, args, out):
    """(m, n, iters, converged) recorded for spans whose shapes feed per-layer counts."""
    if name == "solver.glasso_solve":
        m, n = _shape(args[0].A)
        return m, n, out.iterations, int(out.converged)
    if name == "solver.estimate_lipschitz":
        m, n = _shape(args[0])
        return m, n, "", ""
    if name == "ensemble.sample_measurements":
        return args[1], args[2], "", ""
    return "", "", "", ""


class Tracer:
    """In-memory span recorder: one row per wrapped call."""

    def __init__(self):
        self.spans = []
        self.stack = []
        # Trial id "m/trial_id" of the running trial, shared by the estimators
        # of a paired comparison; empty outside trials.
        self.trial = ""

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.monotonic_ns
        is_trial = name == "experiment.run_trial"

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            if is_trial:  # run_trial(cfg, m, trial_id, estimator)
                self.trial = f"{args[1]}/{args[2]}"
            trial = self.trial
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if is_trial:
                    self.trial = ""
            spans[sid] = (sid, name, t0, t1, parent, trial) + _attrs(name, args, out)
            return out

        return wrapper

    def install(self):
        import importlib

        for modname, names in TRACED.items():
            mod = importlib.import_module(modname)
            for fname in names:
                orig = getattr(mod, fname)
                _rebind(orig, self.wrap(f"{modname[len('qlasso.'):]}.{fname}", orig))

    def write(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(SPAN_FIELDS)
            w.writerows(s for s in self.spans if s is not None)


def _mark_run_curve(stamps, probe):
    """Time-stamp the first entry into and the last exit from run_curve."""
    import qlasso.experiment

    orig = qlasso.experiment.run_curve

    def wrapper(*args, **kwargs):
        if "first_run_curve" not in stamps:
            stamps["first_run_curve"] = time.monotonic()
            if probe:
                raise SetupDone
        out = orig(*args, **kwargs)
        stamps["last_run_curve_end"] = time.monotonic()
        return out

    _rebind(orig, wrapper)


def _lowrank_main(argv):
    """Low-rank recovery as a library user runs it: config -> run_curve -> CSV + SVG."""
    import qlasso
    import qlasso.output

    config_path, out_dir = argv
    with open(config_path) as fh:
        c = json.load(fh)
    cfg = qlasso.ExperimentConfig(
        n=c["n"],
        structure=qlasso.LowRank(c["d"], c["r"]),
        norm_target=c["norm"],
        R=c["R"],
        ensemble=c["ensemble"],
        quantizer=c["quantizer"],
        delta=c["delta"],
        m_grid=tuple(c["m_grid"]),
        trials=c["trials"],
        master_seed=c["seed"],
        estimators=tuple(c["estimators"]),
    )
    chash = qlasso.output.config_hash(c)
    os.makedirs(out_dir, exist_ok=True)
    for est in cfg.estimators:
        curve = qlasso.run_curve(cfg, est)
        qlasso.output.write_error_curves_csv(
            os.path.join(out_dir, f"lowrank_{est}.csv"), [curve], chash
        )
        qlasso.output.write_svg_lineplot(
            os.path.join(out_dir, f"lowrank_{est}.svg"),
            [(est, list(curve.m_grid), list(curve.mean_err))],
            title=f"low-rank recovery error vs m ({est})",
            xlabel="m",
            ylabel="l2 error",
        )
    return 0


def main(argv):
    result_path, mode, kind, arg = argv[0], argv[1], argv[2], argv[3:]
    if kind == "lowrank":
        import qlasso  # noqa: F401  (a library user's import)
    else:
        import qlasso.cli  # the console entry point's import
    tracer = Tracer() if mode == "trace" else None
    if tracer is not None:
        tracer.install()
    if kind == "lowrank":
        run = _lowrank_main
        if tracer is not None:
            run = tracer.wrap("bench.lowrank", run)
    else:
        run = sys.modules["qlasso.cli"].main
    stamps = {}
    _mark_run_curve(stamps, probe=mode == "probe")
    try:
        code = run(arg)
    except SetupDone:
        code = 0
    stamps["main_end"] = time.monotonic()
    if tracer is not None:
        tracer.write(os.path.join(os.path.dirname(result_path), "spans.csv"))
    with open(result_path, "w") as fh:
        json.dump(stamps, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
