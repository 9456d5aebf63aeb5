"""Command-line front end: experiment runs, sweeps, verification, and tables.

The table _COMMANDS holds the subcommands and the quantizer each one runs;
compare reads it from the config (default uniform) and verify ignores it.
Configuration is a flat JSON file whose keys, defaults and JSON types are the
table _SETTINGS; flags override config keys, which override defaults.
QLASSO_SEED is a fallback master seed. m_grid is a list of integers.
delta-sweep runs at one m and sweeps a list "delta" (six widths by default),
so a scalar delta or an m_grid of more than one value in its config is a
configuration error. Exit codes: 0 success, 1 verification failure, 2
configuration error (before any trial runs: among others, a value of the
wrong JSON type, a config "quantizer" contradicting the subcommand, an
estimator list with an unknown name, a repeat or, where no default fills it,
no name, a non-finite norm, R or delta, or an n, s, trials, seed or m_grid
entry that is not an integer), 3 runtime failure.

--jobs N > 1 runs every block in N workers forked from this process, which
waits for them; --jobs 1 runs them here and starts no worker. Every CLI
process runs BLAS on one thread, and the forked workers keep that setting,
so the outputs follow from the seed whatever --jobs and the environment
say: importing this module sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS to 1 before numpy loads. Where numpy is already loaded (a
library caller or a test importing this module), that could not take
effect, and the environment is left as it is.
"""

import argparse
import json
import math
import os
import sys

if "numpy" not in sys.modules:
    os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

# numpy loads below this line, through the package modules too
import numpy as np

from .ensemble import Sparse
from .experiment import ESTIMATORS, ExperimentConfig, fit_rate, run_curve
from .geometry import gw_bound_lowrank, gw_bound_sparse
from .output import (
    config_hash,
    inv_sqrt_guide,
    write_csv,
    write_error_curves_csv,
    write_svg_lineplot,
)
from .quantizer import uniform_quantize


class ConfigError(Exception):
    pass


class VerificationFailure(Exception):
    pass


# Config key: (default, allowed JSON types). The counts have none: _integer
# checks them where a subcommand reads them. A subcommand with a channel puts it
# in place of the default quantizer, and a null m_grid takes the quantizer's
# default grid.
_SETTINGS = {
    "n": (100, None),
    "s": (25, None),
    "norm": (8.0, (int, float)),
    "R": (10.0, (int, float)),
    "ensemble": ("rademacher", str),
    "quantizer": ("uniform", str),
    "delta": (3.0, (int, float, list)),
    "m_grid": (None, (list, type(None))),
    "trials": (200, None),
    "seed": (0, None),
    "estimators": (["glasso"], list),
    "out_dir": (".", str),
}

_DEFAULT_M_GRID = {
    "uniform": [200, 400, 700, 1000, 1400, 2000],
    "one_bit": [500, 1000, 2000, 4000, 8000],
}


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    for key in raw:
        if key not in _SETTINGS:
            raise ConfigError(f"unknown config field {key!r}")
    return raw


def _resolve(args):
    """Merge flag > config > env (seed only) > default into a settings dict; return it and the config's dict."""
    from_file = _load_config(args.config)
    channel = _COMMANDS[args.command][1]
    cfg = {key: default for key, (default, _) in _SETTINGS.items()}
    if channel != "any":
        cfg["quantizer"] = channel
    cfg.update(from_file)
    for key, (_, types) in _SETTINGS.items():
        if types and (not isinstance(cfg[key], types) or isinstance(cfg[key], bool)):
            raise ConfigError(f"{key} has the wrong JSON type: {cfg[key]!r}")
    if cfg["quantizer"] not in _DEFAULT_M_GRID:
        raise ConfigError(f"unknown quantizer {cfg['quantizer']!r}")
    # checked before compare and delta-sweep put their defaults in place of a short list
    if any(e not in ESTIMATORS for e in cfg["estimators"]):
        raise ConfigError(f"estimators must name some of {list(ESTIMATORS)}, got {cfg['estimators']!r}")
    if channel != "any" and cfg["quantizer"] != channel:
        raise ConfigError(f"{args.command} runs the {channel} quantizer, but the config sets {cfg['quantizer']!r}")
    if cfg["m_grid"] is None:
        cfg["m_grid"] = _DEFAULT_M_GRID[cfg["quantizer"]]
    env_seed = os.environ.get("QLASSO_SEED")
    if env_seed is not None and "seed" not in from_file:
        try:
            cfg["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(f"QLASSO_SEED is not an integer: {env_seed!r}")
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.out is not None:
        cfg["out_dir"] = args.out
    return cfg, from_file


def _integer(key, value):
    """`value` as an int; a bool, a string or a fractional number is a configuration error."""
    if type(value) not in (int, float) or not float(value).is_integer():
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _experiment_config(cfg):
    if cfg["quantizer"] == "uniform" and isinstance(cfg["delta"], list):
        raise ConfigError("this subcommand needs a scalar 'delta'; use delta-sweep for lists")
    try:
        return ExperimentConfig(
            n=_integer("n", cfg["n"]),
            structure=Sparse(_integer("s", cfg["s"])),
            norm_target=float(cfg["norm"]),
            R=float(cfg["R"]),
            ensemble=cfg["ensemble"],
            quantizer=cfg["quantizer"],
            delta=None if cfg["quantizer"] == "one_bit" else float(cfg["delta"]),
            m_grid=tuple(_integer("m_grid entry", m) for m in cfg["m_grid"]),
            trials=_integer("trials", cfg["trials"]),
            master_seed=_integer("seed", cfg["seed"]),
            estimators=tuple(cfg["estimators"]),
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def _output_dir(cfg):
    """Create the output directory; return it with the hash of every setting but out_dir."""
    out = cfg["out_dir"]
    os.makedirs(out, exist_ok=True)
    if not os.access(out, os.W_OK):
        raise OSError(f"output directory {out!r} is not writable")
    return out, config_hash({k: v for k, v in cfg.items() if k != "out_dir"})


def _run_curves(ecfg, jobs, label=""):
    """run_curve on every configured estimator; warns on stderr per m where solves hit max_iters."""
    curves = run_curve(ecfg, ecfg.estimators, jobs=jobs)
    for est, curve in curves.items():
        for m, flags in zip(curve.m_grid, curve.converged):
            if not flags.all():
                print(f"warning: {est}{label}: {flags.size - flags.sum()} of {flags.size} solves "
                      f"did not converge at m={m}", file=sys.stderr)
    return curves


def _cmd_run(args):
    cfg, _ = _resolve(args)
    ecfg = _experiment_config(cfg)
    if len(ecfg.m_grid) < 3:
        raise ConfigError(f"{args.command} fits rates and needs at least 3 m values, got {len(ecfg.m_grid)}")
    out, chash = _output_dir(cfg)
    tag = "uniform" if ecfg.quantizer == "uniform" else "onebit"
    rates = []
    for est, curve in _run_curves(ecfg, args.jobs).items():
        csv_path = os.path.join(out, f"{tag}_{est}.csv")
        write_error_curves_csv(csv_path, [curve], chash)
        write_svg_lineplot(
            os.path.join(out, f"{tag}_{est}.svg"),
            [(est, list(curve.m_grid), list(curve.mean_err))],
            title=f"{tag} quantization: recovery error vs m ({est})",
            xlabel="m",
            ylabel="l2 error",
            guide=inv_sqrt_guide(curve.m_grid, float(curve.mean_err[0])),
        )
        for model in ("inv_sqrt_m", "sqrtlog_m_over_sqrt_m"):
            fit = fit_rate(curve, model)
            rates.append((est, model, fit.coefficient, fit.loglog_slope, fit.residual_rms))
        print(f"wrote {csv_path}")
    rates_path = os.path.join(out, f"{tag}_rates.csv")
    header = ("estimator", "model", "coefficient", "loglog_slope", "residual_rms")
    write_csv(rates_path, ecfg.master_seed, chash, header, rates)
    print(f"wrote {rates_path}")
    return 0


def _cmd_compare(args):
    cfg, _ = _resolve(args)
    if len(cfg["estimators"]) < 2:
        cfg["estimators"] = ["glasso", "pbp", "dm"]
    ecfg = _experiment_config(cfg)
    if "glasso" not in ecfg.estimators:
        raise ConfigError(f"compare scores the estimators against glasso, got {list(ecfg.estimators)}")
    out, chash = _output_dir(cfg)
    curves = _run_curves(ecfg, args.jobs)
    others = [e for e in ecfg.estimators if e != "glasso"]
    header = ["m"] + [f"{e}_mean_err" for e in ecfg.estimators]
    header += [f"winrate_glasso_vs_{e}" for e in others]
    rows = [
        [m]
        + [curves[e].mean_err[i] for e in ecfg.estimators]
        + [np.mean(curves["glasso"].errors[i] < curves[e].errors[i]) for e in others]
        for i, m in enumerate(ecfg.m_grid)
    ]
    path = os.path.join(out, "compare.csv")
    write_csv(path, ecfg.master_seed, chash, header, rows)
    print(f"wrote {path}")
    return 0


def _cmd_sweep(args):
    cfg, from_file = _resolve(args)
    deltas = from_file.get("delta", [4.0, 2.0, 1.0, 0.5, 0.25, 0.125])
    if not isinstance(deltas, list) or not deltas or not all(type(d) in (int, float) and d > 0 for d in deltas):
        raise ConfigError(f"delta-sweep needs a nonempty list of positive 'delta' values, got {deltas!r}")
    if len(from_file.get("m_grid") or []) > 1:
        raise ConfigError(f"delta-sweep runs at one m, got m_grid {from_file['m_grid']}")
    # the config hash covers the grid and the deltas that the sweep runs
    cfg["m_grid"], cfg["delta"] = cfg["m_grid"][:1], deltas
    if len(cfg["estimators"]) < 2:
        cfg["estimators"] = ["glasso", "pbp"]
    # every per-delta config is checked before any trial runs
    ecfgs = [_experiment_config(dict(cfg, delta=d)) for d in deltas]
    out, chash = _output_dir(cfg)
    by_delta = [_run_curves(ecfg, args.jobs, f" (delta={ecfg.delta:g})") for ecfg in ecfgs]
    rows = [
        (est, ecfg.delta, curves[est].mean_err[0], curves[est].std_err[0], ecfg.trials)
        for est in cfg["estimators"]
        for ecfg, curves in zip(ecfgs, by_delta)
    ]
    path = os.path.join(out, "delta_sweep.csv")
    write_csv(path, ecfgs[0].master_seed, chash, ("estimator", "delta", "mean_err", "std_err", "trials"), rows)
    write_svg_lineplot(
        os.path.join(out, "delta_sweep.svg"),
        [(est, [c.delta for c in ecfgs], [curves[est].mean_err[0] for curves in by_delta])
         for est in cfg["estimators"]],
        title=f"recovery error vs resolution (m={ecfgs[0].m_grid[0]})",
        xlabel="delta",
        ylabel="l2 error",
    )
    print(f"wrote {path}")
    return 0


def _width_row(flag, text, bound):
    """Table row `a,b,width` for a `--sparse N:S` or `--lowrank D:R` argument."""
    parts = text.split(":")
    try:
        if len(parts) != 2:
            raise ValueError("expected two integers separated by ':'")
        a, b = int(parts[0]), int(parts[1])
        return f"{a},{b},{bound(a, b):.3f}"
    except ValueError as exc:
        raise ConfigError(f"{flag} {text}: {exc}") from exc


def _cmd_widths(args):
    rows = [_width_row("--sparse", text, gw_bound_sparse) for text in args.sparse or []]
    rows += [_width_row("--lowrank", text, gw_bound_lowrank) for text in args.lowrank or []]
    if not rows:
        raise ConfigError("widths needs at least one --sparse n:s or --lowrank d:r")
    print("n_or_d,s_or_r,width")
    for row in rows:
        print(row)
    return 0


def _cmd_quantize_demo(args):
    deltas = args.delta or [2.0]
    if not all(0 < d < math.inf for d in deltas):
        raise ConfigError(f"--delta must be finite and positive, got {deltas}")
    if not (args.step > 0):
        raise ConfigError(f"--step must be positive, got {args.step}")
    if not (math.isfinite(args.xmin) and math.isfinite(args.xmax) and args.xmin <= args.xmax):
        raise ConfigError(f"need finite --xmin <= --xmax, got {args.xmin} and {args.xmax}")
    xs = np.arange(args.xmin, args.xmax + 1e-12, args.step)
    header = "x," + ",".join(f"Q_delta_{d:g}" for d in deltas)
    print(header)
    for x in xs:
        vals = ",".join(f"{uniform_quantize(float(x), d):.6g}" for d in deltas)
        print(f"{x:.6g},{vals}")
    return 0


def _cmd_verify(args):
    from . import verify  # imported here so that other subcommands do not load the checks

    cfg, _ = _resolve(args)
    seed = _integer("seed", cfg["seed"])
    out, _ = _output_dir(cfg)
    lines = []
    all_ok = True
    for check in verify.CHECKS:
        name, ok, detail = check(seed, verify.QUICK_SIZE)
        all_ok &= ok
        line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
        lines.append(line)
        print(line)
    path = os.path.join(out, "verify.txt")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {path}")
    if not all_ok:
        raise VerificationFailure("one or more verification checks failed")
    return 0


# Subcommand: (handler, channel). The channel is the quantizer the subcommand
# runs, "any" where the config names it (compare; verify ignores it), or None
# where the subcommand reads no config.
_COMMANDS = {
    "run-uniform": (_cmd_run, "uniform"),
    "run-onebit": (_cmd_run, "one_bit"),
    "compare": (_cmd_compare, "any"),
    "delta-sweep": (_cmd_sweep, "uniform"),
    "verify": (_cmd_verify, "any"),
    "widths": (_cmd_widths, None),
    "quantize-demo": (_cmd_quantize_demo, None),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qlasso",
        description="Recovery from dithered quantized measurements via the Generalized Lasso.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {name: sub.add_parser(name) for name in _COMMANDS}
    for name, (_, channel) in _COMMANDS.items():
        if channel is None:
            continue
        p = parsers[name]
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="master seed (overrides config)")
        p.add_argument("--out", help="output directory (overrides config)")
        if name != "verify":
            p.add_argument("--jobs", type=int, default=1,
                           help="worker processes forked from this one, one BLAS thread each; 1 runs here")

    widths = parsers["widths"]
    widths.add_argument("--sparse", action="append", metavar="N:S")
    widths.add_argument("--lowrank", action="append", metavar="D:R")

    demo = parsers["quantize-demo"]
    demo.add_argument("--delta", type=float, action="append")
    demo.add_argument("--xmin", type=float, default=-5.0)
    demo.add_argument("--xmax", type=float, default=5.0)
    demo.add_argument("--step", type=float, default=0.5)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "jobs", 1) < 1:
            raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
        return _COMMANDS[args.command][0](args)
    except VerificationFailure as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
