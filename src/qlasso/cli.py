"""Command-line front end: experiment runs, sweeps, verification, and tables.

Subcommands: run-uniform, run-onebit, compare, delta-sweep, verify, widths,
quantize-demo. Configuration is a flat JSON file (keys: n, s, norm, R,
ensemble, quantizer, delta, m_grid, trials, seed, estimators, out_dir);
flags override config keys, which override defaults. QLASSO_SEED is a
fallback master seed. Exit codes: 0 success, 1 verification failure,
2 configuration error, 3 runtime failure.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from .ensemble import Sparse
from .experiment import ExperimentConfig, delta_sweep, fit_rate, run_curve
from .geometry import gw_bound_lowrank, gw_bound_sparse
from .output import (
    config_hash,
    inv_sqrt_guide,
    write_error_curves_csv,
    write_svg_lineplot,
)
from .quantizer import uniform_quantize


class ConfigError(Exception):
    pass


class VerificationFailure(Exception):
    pass


_CONFIG_KEYS = {
    "n", "s", "norm", "R", "ensemble", "quantizer", "delta",
    "m_grid", "trials", "seed", "estimators", "out_dir",
}

_DEFAULTS = {
    "n": 100,
    "s": 25,
    "norm": 8.0,
    "R": 10.0,
    "ensemble": "rademacher",
    "quantizer": "uniform",
    "delta": 3.0,
    "m_grid": None,  # filled per quantizer
    "trials": 200,
    "seed": 0,
    "estimators": ["glasso"],
    "out_dir": ".",
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
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config field {key!r}")
    return raw


def _resolve(args, quantizer):
    """Merge flag > config > env (seed only) > default into a settings dict."""
    cfg = dict(_DEFAULTS)
    cfg["quantizer"] = quantizer
    from_file = _load_config(getattr(args, "config", None))
    cfg.update(from_file)
    if cfg["m_grid"] is None:
        cfg["m_grid"] = _DEFAULT_M_GRID[cfg["quantizer"]]
    env_seed = os.environ.get("QLASSO_SEED")
    if env_seed is not None and "seed" not in from_file:
        try:
            cfg["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(f"QLASSO_SEED is not an integer: {env_seed!r}")
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    if getattr(args, "out", None) is not None:
        cfg["out_dir"] = args.out
    return cfg


def _experiment_config(cfg):
    try:
        return ExperimentConfig(
            n=int(cfg["n"]),
            structure=Sparse(int(cfg["s"])),
            norm_target=float(cfg["norm"]),
            R=float(cfg["R"]),
            ensemble=cfg["ensemble"],
            quantizer=cfg["quantizer"],
            delta=None if cfg["quantizer"] == "one_bit" else _single_delta(cfg["delta"]),
            m_grid=tuple(int(m) for m in cfg["m_grid"]),
            trials=int(cfg["trials"]),
            master_seed=int(cfg["seed"]),
            estimators=tuple(cfg["estimators"]),
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def _single_delta(delta):
    if isinstance(delta, (list, tuple)):
        raise ConfigError("this subcommand needs a scalar 'delta'; use delta-sweep for lists")
    return float(delta)


def _hashable(cfg):
    # out_dir does not affect the experiment, keep it out of the hash
    return {k: cfg[k] for k in sorted(_CONFIG_KEYS - {"out_dir"}) if k in cfg}


def _ensure_out(cfg):
    out = cfg["out_dir"]
    os.makedirs(out, exist_ok=True)
    if not os.access(out, os.W_OK):
        raise OSError(f"output directory {out!r} is not writable")
    return out


def _report_nonconverged(label, m_grid, converged):
    """One stderr line per m at which some solves stopped at max_iters."""
    for m, flags in zip(m_grid, np.asarray(converged)):
        if not flags.all():
            print(f"warning: {label}: {flags.size - flags.sum()} of {flags.size} solves "
                  f"did not converge at m={m}", file=sys.stderr)


def _cmd_run(args, quantizer):
    cfg = _resolve(args, quantizer)
    ecfg = _experiment_config(cfg)
    if len(ecfg.m_grid) < 3:
        raise ConfigError(f"{args.command} fits rates and needs at least 3 m values, got {len(ecfg.m_grid)}")
    out = _ensure_out(cfg)
    chash = config_hash(_hashable(cfg))
    tag = "uniform" if quantizer == "uniform" else "onebit"
    rate_lines = ["estimator,model,coefficient,loglog_slope,residual_rms"]
    curves = run_curve(ecfg, ecfg.estimators, jobs=args.jobs)
    for est, curve in curves.items():
        _report_nonconverged(est, curve.m_grid, curve.converged)
        csv_path = os.path.join(out, f"{tag}_{est}.csv")
        write_error_curves_csv(csv_path, [curve], chash)
        guide = inv_sqrt_guide(curve.m_grid, float(curve.mean_err[0]))
        write_svg_lineplot(
            os.path.join(out, f"{tag}_{est}.svg"),
            [(est, list(curve.m_grid), list(curve.mean_err))],
            title=f"{tag} quantization: recovery error vs m ({est})",
            xlabel="m",
            ylabel="l2 error",
            guide=guide,
        )
        for model in ("inv_sqrt_m", "sqrtlog_m_over_sqrt_m"):
            fit = fit_rate(curve, model)
            rate_lines.append(
                f"{est},{model},{fit.coefficient:.17g},{fit.loglog_slope:.17g},{fit.residual_rms:.17g}"
            )
        print(f"wrote {csv_path}")
    rates_path = os.path.join(out, f"{tag}_rates.csv")
    with open(rates_path, "w") as fh:
        fh.write(f"# master_seed={ecfg.master_seed} config_hash={chash}\n")
        fh.write("\n".join(rate_lines) + "\n")
    print(f"wrote {rates_path}")
    return 0


def _cmd_compare(args):
    cfg = _resolve(args, "uniform")
    if len(cfg["estimators"]) < 2:
        cfg["estimators"] = ["glasso", "pbp", "dm"]
    ecfg = _experiment_config(cfg)
    if "glasso" not in ecfg.estimators:
        raise ConfigError(f"compare scores the estimators against glasso, got {list(ecfg.estimators)}")
    out = _ensure_out(cfg)
    chash = config_hash(_hashable(cfg))
    curves = run_curve(ecfg, ecfg.estimators, jobs=args.jobs)
    for est, curve in curves.items():
        _report_nonconverged(est, curve.m_grid, curve.converged)
    others = [e for e in ecfg.estimators if e != "glasso"]
    header = ["m"] + [f"{e}_mean_err" for e in ecfg.estimators]
    header += [f"winrate_glasso_vs_{e}" for e in others]
    lines = [f"# master_seed={ecfg.master_seed} config_hash={chash}", ",".join(header)]
    for i, m in enumerate(ecfg.m_grid):
        row = [str(m)] + [f"{curves[e].mean_err[i]:.17g}" for e in ecfg.estimators]
        for e in others:
            wins = np.mean(curves["glasso"].errors[i] < curves[e].errors[i])
            row.append(f"{wins:.17g}")
        lines.append(",".join(row))
    path = os.path.join(out, "compare.csv")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {path}")
    return 0


def _cmd_delta_sweep(args):
    cfg = _resolve(args, "uniform")
    deltas = cfg["delta"]
    if not isinstance(deltas, (list, tuple)):
        deltas = [4.0, 2.0, 1.0, 0.5, 0.25, 0.125]
    if not deltas or not all(isinstance(d, (int, float)) and d > 0 for d in deltas):
        raise ConfigError(f"delta-sweep needs a nonempty list of positive 'delta' values, got {deltas}")
    grid = cfg["m_grid"] if isinstance(cfg["m_grid"], (list, tuple)) else [int(cfg["m_grid"])]
    if not grid:
        raise ConfigError("delta-sweep needs an m in 'm_grid'")
    cfg["m_grid"] = grid[:1]
    if len(cfg["estimators"]) < 2:
        cfg["estimators"] = ["glasso", "pbp"]
    ecfg = _experiment_config(dict(cfg, delta=float(deltas[0])))
    out = _ensure_out(cfg)
    chash = config_hash(_hashable(cfg))
    sweep = delta_sweep(ecfg, deltas, estimators=ecfg.estimators, jobs=args.jobs)
    lines = [
        f"# master_seed={ecfg.master_seed} config_hash={chash}",
        "estimator,delta,mean_err,std_err,trials",
    ]
    series = []
    for est, data in sweep.items():
        for d, converged in zip(data["deltas"], data["converged"]):
            _report_nonconverged(f"{est} (delta={d:g})", ecfg.m_grid, [converged])
        for d, mean, std in zip(data["deltas"], data["mean_err"], data["std_err"]):
            lines.append(f"{est},{d:.17g},{mean:.17g},{std:.17g},{ecfg.trials}")
        series.append((est, list(data["deltas"]), list(data["mean_err"])))
    path = os.path.join(out, "delta_sweep.csv")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    write_svg_lineplot(
        os.path.join(out, "delta_sweep.svg"),
        series,
        title=f"recovery error vs resolution (m={ecfg.m_grid[0]})",
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
    if not all(d > 0 for d in deltas):
        raise ConfigError(f"--delta must be positive, got {deltas}")
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

    cfg = _resolve(args, "uniform")
    out = _ensure_out(cfg)
    lines = []
    all_ok = True
    for check in verify.CHECKS:
        name, ok, detail = check(int(cfg["seed"]), verify.QUICK_SIZE)
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qlasso",
        description="Recovery from dithered quantized measurements via the Generalized Lasso.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("run-uniform", "run-onebit", "compare", "delta-sweep", "verify"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="master seed (overrides config)")
        p.add_argument("--out", help="output directory (overrides config)")
        if name != "verify":
            p.add_argument("--jobs", type=int, default=1,
                           help="worker processes for blocks of trials (one BLAS thread each)")

    widths = sub.add_parser("widths")
    widths.add_argument("--sparse", action="append", metavar="N:S")
    widths.add_argument("--lowrank", action="append", metavar="D:R")

    demo = sub.add_parser("quantize-demo")
    demo.add_argument("--delta", type=float, action="append")
    demo.add_argument("--xmin", type=float, default=-5.0)
    demo.add_argument("--xmax", type=float, default=5.0)
    demo.add_argument("--step", type=float, default=0.5)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "jobs", 1) < 1:
            raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
        if args.command == "run-uniform":
            return _cmd_run(args, "uniform")
        if args.command == "run-onebit":
            return _cmd_run(args, "one_bit")
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "delta-sweep":
            return _cmd_delta_sweep(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "widths":
            return _cmd_widths(args)
        if args.command == "quantize-demo":
            return _cmd_quantize_demo(args)
        parser.error(f"unknown command {args.command!r}")
    except VerificationFailure as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3
    return 0


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
