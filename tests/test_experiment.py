import math

import numpy as np
import pytest

import qlasso.experiment
from qlasso import (
    ErrorCurve,
    ExperimentConfig,
    SignalSpec,
    Sparse,
    UniformQuantizer,
    block_size,
    fit_rate,
    gen_signal,
    glasso_solve,
    gram_stats,
    measure,
    onebit_dither_range,
    onebit_moment_check,
    pbp_estimate,
    pgd_rows,
    project_l1_rows,
    run_curve,
    run_trial,
    sample_measurements,
    substream,
)
from qlasso.experiment import (
    ESTIMATORS,
    onebit_eta2_formula,
    onebit_xi_mean_literal,
    onebit_xi_mean_norm_scaled,
    qfunc,
)


def _cfg(**kw):
    base = dict(
        n=50,
        structure=Sparse(10),
        norm_target=3.0,
        R=3.0,
        ensemble="gaussian",
        quantizer="uniform",
        delta=1.0,
        m_grid=(200, 400),
        trials=3,
        master_seed=7,
        estimators=("glasso", "pbp"),
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        _cfg(R=2.0)  # below norm target
    with pytest.raises(ValueError):
        _cfg(m_grid=(400, 200))
    with pytest.raises(ValueError):
        _cfg(m_grid=(200, 200))
    with pytest.raises(ValueError):
        _cfg(trials=0)
    with pytest.raises(ValueError):
        _cfg(quantizer="ternary")
    with pytest.raises(ValueError):
        _cfg(delta=None)
    with pytest.raises(ValueError):
        _cfg(estimators=("glasso", "mle"))
    with pytest.raises(ValueError):
        _cfg(estimators=())
    with pytest.raises(ValueError):
        _cfg(estimators=("glasso", "pbp", "pbp"))
    with pytest.raises(ValueError):
        _cfg(ensemble="cauchy")
    with pytest.raises(ValueError):
        _cfg(m_grid=())
    with pytest.raises(ValueError):
        _cfg(m_grid=(0, 200))
    with pytest.raises(ValueError):
        _cfg(structure=Sparse(0))
    _cfg(m_grid=(1, 200))  # the uniform channel is defined at m = 1
    with pytest.raises(ValueError):  # the one-bit dither range R sqrt(ln m) is 0 at m = 1
        _cfg(quantizer="one_bit", delta=None, m_grid=(1, 200))
    with pytest.raises(ValueError):  # the one-bit channel has no cell width
        _cfg(quantizer="one_bit", delta=1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            _cfg(norm_target=bad)
        with pytest.raises(ValueError):
            _cfg(R=bad)
        with pytest.raises(ValueError):
            _cfg(delta=bad)


def test_onebit_dither_range_value():
    assert onebit_dither_range(10.0, 1000) == pytest.approx(
        10.0 * math.sqrt(math.log(1000.0)), rel=1e-15
    )
    assert onebit_dither_range(10.0, 1000) == pytest.approx(26.28, abs=0.01)


def test_run_trial_deterministic():
    cfg = _cfg()
    a = run_trial(cfg, 200, 0, "glasso")
    b = run_trial(cfg, 200, 0, "glasso")
    assert a == b
    with pytest.raises(ValueError):
        run_trial(cfg, 300, 0, "glasso")


def test_run_trial_paired_across_estimators():
    # Every estimator of a trial sees the (x0, A, y) that the trial's signal,
    # matrix and dither substreams draw: rebuilt from them, the single-problem
    # estimators give the errors run_trial reports for pbp and glasso.
    cfg, m = _cfg(), 200
    spec = SignalSpec(cfg.n, cfg.structure, cfg.norm_target)
    for t in range(3):
        x0 = gen_signal(spec, substream(7, m, t, "signal"))
        A = sample_measurements(cfg.ensemble, m, cfg.n, substream(7, m, t, "matrix"))
        y = measure(A, x0, UniformQuantizer(cfg.delta), substream(7, m, t, "dither"))
        radius = float(np.abs(x0).sum())
        pbp = pbp_estimate(A, y, project_l1_rows, radius, 1.0)
        assert np.linalg.norm(pbp - x0) == run_trial(cfg, m, t, "pbp")
        ref = glasso_solve(A, y, 1.0, project_l1_rows, radius)
        assert np.linalg.norm(ref.x_hat - x0) == pytest.approx(run_trial(cfg, m, t, "glasso"), rel=1e-6)


def test_run_curve_shapes_and_determinism():
    cfg = _cfg()
    c1 = run_curve(cfg, "glasso")
    c2 = run_curve(cfg, "glasso")
    assert c1.m_grid == (200, 400)
    assert c1.errors.shape == (2, 3)
    np.testing.assert_array_equal(c1.errors, c2.errors)
    np.testing.assert_array_equal(c1.mean_err, c1.errors.mean(axis=1))


def test_block_size_bounds_gram_stack():
    assert block_size(100) == 13
    assert block_size(256) == 2
    assert block_size(2000) == 1
    for n in (30, 100, 256):
        assert block_size(n) * 8 * n * n <= 2**20


def test_curves_share_draws_across_blocks_and_estimators():
    # 15 trials at n=100 run as blocks of 13 and 2; every trial's error is
    # the one run_trial computes alone, and each estimator's curve is the
    # same whether it is computed alone or with the others.
    cfg = _cfg(n=100, structure=Sparse(10), m_grid=(150,), trials=15, estimators=ESTIMATORS)
    curves = run_curve(cfg, ESTIMATORS)
    assert set(curves) == set(ESTIMATORS)
    for est in ESTIMATORS:
        alone = run_curve(cfg, est)
        np.testing.assert_array_equal(alone.errors, curves[est].errors)
        for t in (0, 12, 13, 14):
            assert run_trial(cfg, 150, t, est) == curves[est].errors[0, t]
    np.testing.assert_array_equal(curves["pbp"].errors, curves["dm"].errors)
    assert curves["glasso"].converged.all()
    assert (curves["glasso"].iterations > 0).all()
    assert (curves["pbp"].iterations == 0).all() and curves["pbp"].converged.all()
    with pytest.raises(ValueError):
        run_curve(cfg, ("glasso", "mle"))


def test_block_draws_every_matrix_into_one_workspace(monkeypatch):
    # 15 trials at n=100 run as blocks of 13 and 2: each block hands one (m, n)
    # array to every trial's draw, and the next block at the same m hands the
    # same one. Each trial's Gram matrix, written by the draw, is bitwise that
    # of gram_stats on the trial's own float64 matrix, and a trial's error and
    # iteration count are those it gets alone in a block of one.
    cfg = _cfg(n=100, structure=Sparse(10), ensemble="rademacher", m_grid=(150, 230), trials=15)
    seen, draws, stacks = [], [], []

    def spy_draw(kind, m, n, rng, *, out=None, gram=None):
        seen.append((m, out))
        return sample_measurements(kind, m, n, rng, out=out, gram=gram)

    def spy_measure(A, x0, q, rng):
        y = measure(A, x0, q, rng)
        draws.append((A.copy(), y))
        return y

    def spy_pgd(G, *args, **kwargs):
        stacks.append(G.copy())
        return pgd_rows(G, *args, **kwargs)

    monkeypatch.setattr(qlasso.experiment, "sample_measurements", spy_draw)
    monkeypatch.setattr(qlasso.experiment, "measure", spy_measure)
    monkeypatch.setattr(qlasso.experiment, "pgd_rows", spy_pgd)
    curve = run_curve(cfg, "glasso")
    assert len(seen) == len(draws) == 30 and len(stacks) == 4
    blocks = ((0, 13), (13, 15), (15, 28), (28, 30))  # in call order
    for start, stop in blocks:
        (m, out), *rest = seen[start:stop]
        assert isinstance(out, np.ndarray) and out.shape == (m, cfg.n)
        assert all(cm == m and co is out for cm, co in rest)
    assert seen[13][1] is seen[0][1] and seen[28][1] is seen[15][1]
    for (start, stop), G in zip(blocks, stacks):
        m = seen[start][0]
        _, mu = qlasso.experiment._channel(cfg, m)
        assert G.shape == (stop - start, cfg.n, cfg.n)
        for G_i, (A, y) in zip(G, draws[start:stop]):
            assert G_i.tobytes() == gram_stats(A, y, mu)[0].tobytes()
    for i, m in enumerate(cfg.m_grid):
        for t in range(cfg.trials):
            errors, iterations, _ = qlasso.experiment._solve_block(cfg, m, range(t, t + 1), ("glasso",))["glasso"]
            assert curve.errors[i, t] == errors[0] == run_trial(cfg, m, t, "glasso")
            assert curve.iterations[i, t] == iterations[0]


def test_nonconverged_solves_are_counted(monkeypatch):
    monkeypatch.setattr(qlasso.experiment, "MAX_ITERS", 3)
    cfg = _cfg(trials=4)
    curves = run_curve(cfg, ("glasso", "pbp"))
    g = curves["glasso"]
    np.testing.assert_array_equal((~g.converged).sum(axis=1), [4, 4])
    np.testing.assert_array_equal(g.iterations, np.full((2, 4), 3))
    assert curves["pbp"].converged.all()


def test_fit_rate_exact_inverse_sqrt():
    ms = (100, 200, 400, 800, 1600)
    errs = np.array([5.0 / math.sqrt(m) for m in ms])
    curve = ErrorCurve("glasso", ms, errs, np.zeros(5), 1, 0)
    fit = fit_rate(curve, "inv_sqrt_m")
    assert fit.loglog_slope == pytest.approx(-0.5, abs=1e-9)
    assert fit.coefficient == pytest.approx(5.0, rel=1e-12)
    assert fit.residual_rms <= 1e-12


def test_fit_rate_exact_sqrtlog():
    ms = (500, 1000, 2000, 4000)
    errs = np.array([2.0 * math.sqrt(math.log(m) / m) for m in ms])
    curve = ErrorCurve("glasso", ms, errs, np.zeros(4), 1, 0)
    fit = fit_rate(curve, "sqrtlog_m_over_sqrt_m")
    assert fit.coefficient == pytest.approx(2.0, rel=1e-12)
    assert fit.residual_rms <= 1e-12


def test_fit_rate_validation():
    curve = ErrorCurve("glasso", (100, 200), np.array([1.0, 0.5]), np.zeros(2), 1, 0)
    with pytest.raises(ValueError):
        fit_rate(curve, "inv_sqrt_m")
    bad = ErrorCurve("glasso", (1, 2, 3), np.array([1.0, 0.0, 1.0]), np.zeros(3), 1, 0)
    with pytest.raises(ValueError):
        fit_rate(bad, "inv_sqrt_m")
    ok = ErrorCurve("glasso", (1, 2, 4), np.array([1.0, 0.8, 0.6]), np.zeros(3), 1, 0)
    with pytest.raises(ValueError):
        fit_rate(ok, "log_m")


def test_qfunc_values():
    assert qfunc(0.0) == pytest.approx(0.5, rel=1e-15)
    assert qfunc(1.959963984540054) == pytest.approx(0.025, rel=1e-9)


def test_eta2_formula_limits():
    # s = 0: eta = mu * sign(tau), so E[eta^2] = mu^2
    assert onebit_eta2_formula(0.0, 4.0, 4.0) == pytest.approx(16.0, rel=1e-12)
    # mu = T and T >> s: 1 - 2Q(T/s) -> 1, value -> T^2 - s^2
    val = onebit_eta2_formula(0.1, 50.0, 50.0)
    assert val == pytest.approx(50.0**2 - 0.1**2, rel=1e-6)


def test_xi_literal_vs_norm_scaled():
    # the two variants differ exactly by (||x0|| - 1) times the tail term
    s, T, mu = 2.0, 5.0, 5.0
    lit = onebit_xi_mean_literal(s, T, mu)
    scaled = onebit_xi_mean_norm_scaled(s, T, mu)
    gap = 2.0 * (mu / T) * (s - 1.0) * qfunc(T / s)
    assert scaled - lit == pytest.approx(-gap, rel=1e-12)


def test_moment_check_refuses_small_samples():
    with pytest.raises(ValueError):
        onebit_moment_check(1.0, 4.0, 4.0, 100, substream(1, "mom"))
