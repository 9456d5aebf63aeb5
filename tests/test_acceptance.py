"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line per criterion (visible under `pytest -s`
or in the captured output of a failing test) and then asserts, so the suite
doubles as a human-readable report. Tests 01, 02, 07, 08, 10, 12, 13 and 14 run the checks
of qlasso.verify, the code behind `qlasso verify`, at a larger sample size.
Tolerances are fixed here and in qlasso.verify on purpose; loosening them
would defeat the point of the suite.
"""

from dataclasses import replace

import numpy as np

from qlasso import (
    ErrorCurve,
    ExperimentConfig,
    SignalSpec,
    Sparse,
    UniformQuantizer,
    fit_rate,
    gen_signal,
    glasso_solve,
    gw_bound_lowrank,
    gw_bound_sparse,
    measure,
    project_l1_rows,
    run_curve,
    sample_measurements,
    substream,
    verify,
)

SEED = 20240901

# Sample size of the verification checks: 1e4 nonexpansiveness pairs and 1e5
# feasible candidates per ball, 20 solver instances, 1e6 Rademacher entries,
# 5 Rademacher Gram matrices, 100 l1-ball problems per ensemble for the stacked
# solver (see qlasso.verify).
N = 10**6


def _report(label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _check(check) -> None:
    _report(*check(SEED, N))


def test_01_uniform_dither_unbiased():
    _check(verify.uniform_dither)


def test_02_one_bit_bias_identity():
    _check(verify.one_bit_bias)


def _uniform_cfg(s, trials, m_grid=(200, 400, 700, 1000, 1400, 2000), delta=3.0):
    return ExperimentConfig(
        n=100,
        structure=Sparse(s),
        norm_target=8.0,
        R=10.0,
        ensemble="rademacher",
        quantizer="uniform",
        delta=delta,
        m_grid=tuple(m_grid),
        trials=trials,
        master_seed=SEED,
        estimators=("glasso", "pbp"),
    )


def test_03_uniform_error_rate_slope():
    # slope fitted on the post-threshold points m >= 4 * width_bound^2
    details = []
    ok = True
    for s in (25, 50, 100):
        cfg = _uniform_cfg(s, trials=200)
        curve = run_curve(cfg, "glasso")
        thresh = 4.0 * gw_bound_sparse(100, s) ** 2
        keep = [i for i, m in enumerate(curve.m_grid) if m >= thresh]
        sub = ErrorCurve(
            "glasso",
            tuple(curve.m_grid[i] for i in keep),
            curve.mean_err[keep],
            curve.std_err[keep],
            curve.trials,
            curve.master_seed,
        )
        slope = fit_rate(sub, "inv_sqrt_m").loglog_slope
        ok &= -0.6 <= slope <= -0.4
        details.append(f"s={s}: slope={slope:.3f}")
    _report(
        "uniform quantization error rate, slope in [-0.6, -0.4]",
        ok,
        "; ".join(details),
    )


def test_04_glasso_beats_pbp_paired():
    cfg = _uniform_cfg(25, trials=200, m_grid=(1000,))
    g = run_curve(cfg, "glasso").errors[0]
    p = run_curve(cfg, "pbp").errors[0]
    winrate = float(np.mean(g < p))
    _report(
        "constrained least squares beats projected back projection (200 pairs)",
        winrate >= 0.95,
        f"win rate {winrate:.3f} at m=1000, Delta=3, s=25",
    )


def test_05_resolution_floor():
    cfg = _uniform_cfg(25, trials=50, m_grid=(1000,))
    sweep = [run_curve(replace(cfg, delta=d), ("glasso", "pbp")) for d in (4.0, 2.0, 1.0, 0.5, 0.25, 0.125)]
    g = [curves["glasso"].mean_err[0] for curves in sweep]
    p = [curves["pbp"].mean_err[0] for curves in sweep]
    g_ratio = g[-1] / g[0]
    p_ratio = p[-1] / p[0]
    ok = g_ratio < 0.15 and p_ratio > 0.5
    _report(
        "resolution sweep: error linear in Delta vs floored baseline",
        ok,
        f"glasso err(0.125)/err(4) = {g_ratio:.3f} (< 0.15); "
        f"pbp ratio = {p_ratio:.3f} (> 0.5)",
    )


def test_06_one_bit_rate_model():
    details = []
    ok = True
    for ensemble in ("gaussian", "rademacher"):
        for s in (5, 10, 25):
            cfg = ExperimentConfig(
                n=100,
                structure=Sparse(s),
                norm_target=8.0,
                R=10.0,
                ensemble=ensemble,
                quantizer="one_bit",
                delta=None,
                m_grid=(500, 1000, 2000, 4000, 8000),
                trials=30,
                master_seed=SEED,
                estimators=("glasso",),
            )
            curve = run_curve(cfg, "glasso")
            decreasing = bool(np.all(np.diff(curve.mean_err) < 0))
            rms_log = fit_rate(curve, "sqrtlog_m_over_sqrt_m").residual_rms
            rms_inv = fit_rate(curve, "inv_sqrt_m").residual_rms
            fit_ok = rms_log <= 1.10 * rms_inv
            ok &= decreasing and fit_ok
            details.append(
                f"{ensemble[:4]}/s={s}: rms(sqrt(ln m/m))={rms_log:.4f} vs "
                f"rms(1/sqrt(m))={rms_inv:.4f}, decreasing={decreasing}"
            )
    _report(
        "one-bit rate follows sqrt(ln m / m) with decreasing error",
        ok,
        "; ".join(details),
    )


def test_07_solver_correctness():
    _check(verify.solver_correctness)


def test_08_projection_oracles():
    _check(verify.projections)


def test_09_noiseless_limit():
    delta = 1e-6
    hits = 0
    worst = 0.0
    for trial in range(100):
        rng_sig = substream(SEED, "acc9", trial, "sig")
        rng_mat = substream(SEED, "acc9", trial, "mat")
        rng_dith = substream(SEED, "acc9", trial, "dith")
        x0 = gen_signal(SignalSpec(100, Sparse(10), 8.0), rng_sig)
        A = sample_measurements("rademacher", 500, 100, rng_mat)
        y = measure(A @ x0, UniformQuantizer(delta), rng_dith)
        res = glasso_solve(A, y, 1.0, project_l1_rows, float(np.abs(x0).sum()))
        err = float(np.linalg.norm(res.x_hat - x0))
        worst = max(worst, err)
        hits += err < 1e-3
    _report(
        "near-zero quantization cells give near-exact recovery",
        hits >= 99,
        f"{hits}/100 trials below 1e-3 (worst error {worst:.2e})",
    )


def test_10_one_bit_moment_formulas():
    _check(verify.one_bit_moments)


def test_11_width_table():
    v1 = gw_bound_sparse(100, 25)
    v2 = gw_bound_lowrank(100, 5)
    ok = abs(v1 - 10.335) <= 0.001 and abs(v2 - 54.772) <= 0.001
    _report(
        "tangent-cone width bounds at reference points",
        ok,
        f"sparse(100,25)={v1:.4f} (10.335+-0.001), lowrank(100,5)={v2:.4f} (54.772+-0.001)",
    )


def test_12_rademacher_draw():
    _check(verify.rademacher_draw)


def test_13_rademacher_gram():
    _check(verify.rademacher_gram)


def test_14_stacked_solver():
    _check(verify.stacked_solver)
