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


def _spy_engine(monkeypatch):
    """Record every panel the engine draws (its rows and `out`), every measurement vector and
    every (G, b) stack handed to pgd_rows, in call order."""
    panels, ys, stacks = [], [], []

    def spy_draw(kind, m, n, rng, *, out=None, gram=None):
        A = sample_measurements(kind, m, n, rng, out=out, gram=gram)
        panels.append((out, A.copy()))
        return A

    def spy_measure(A, x0, q, rng):
        y = measure(A, x0, q, rng)
        ys.append(y)
        return y

    def spy_pgd(G, b, *args, **kwargs):
        stacks.append((G.copy(), b.copy()))
        return pgd_rows(G, b, *args, **kwargs)

    monkeypatch.setattr(qlasso.experiment, "sample_measurements", spy_draw)
    monkeypatch.setattr(qlasso.experiment, "measure", spy_measure)
    monkeypatch.setattr(qlasso.experiment, "pgd_rows", spy_pgd)
    return panels, ys, stacks


def _whole_draw(cfg, m, t):
    """A trial's matrix and measurements drawn whole, with its mu."""
    q, mu = qlasso.experiment._channel(cfg, m)
    x0 = gen_signal(SignalSpec(cfg.n, cfg.structure, cfg.norm_target), substream(cfg.master_seed, m, t, "signal"))
    A = sample_measurements(cfg.ensemble, m, cfg.n, substream(cfg.master_seed, m, t, "matrix"))
    return A, measure(A, x0, q, substream(cfg.master_seed, m, t, "dither")), mu


def _trials_of(cfg, panels, ys, stacks):
    """(m, trial, its drawn panels, their measurements, its (G, b) rows), in call order."""
    rows = [row for G, b in stacks for row in zip(G, b)]
    height = qlasso.experiment.panel_rows(cfg.n)
    trials, j = [], 0
    for m in cfg.m_grid:
        count = -(-m // height)
        for t in range(cfg.trials):
            trials.append((m, t, panels[j:j + count], ys[j:j + count], rows[len(trials)]))
            j += count
    assert j == len(panels) == len(ys) and len(trials) == len(rows)
    return trials


def test_panel_rows():
    assert qlasso.experiment.panel_rows(100) == 1310 and qlasso.experiment.panel_rows(256) == 512
    assert qlasso.experiment.panel_rows(7) == 18724 and qlasso.experiment.panel_rows(10**6) == 2


PANEL_CASES = [(kind, quantizer, n) for kind in ("rademacher", "gaussian") for quantizer in ("uniform", "one_bit")
               for n in (7, 100)]


@pytest.mark.parametrize("kind,quantizer,n", PANEL_CASES)
def test_panel_draw_matches_the_whole_matrix(kind, quantizer, n, monkeypatch):
    # Panels of 128 rows: m below, equal to and just above one panel, last panels of
    # odd height (129, 131, 301, 385) and several panels. Each trial's panels are its
    # whole-matrix draw and their measurements those of one measure call, bitwise (no
    # row's A x0 + tau lies within an ulp of a cell edge here). Its Gram statistics are
    # gram_stats of the whole draw: bitwise for +-1 entries, whose panel sums are
    # integers (one-bit y is +-1, y of the cell width 2 an odd integer), and to
    # rounding for Gaussian entries.
    monkeypatch.setattr(qlasso.experiment, "PANEL_ENTRIES", 128 * n)
    one_bit = quantizer == "one_bit"
    cfg = _cfg(n=n, structure=Sparse(n), norm_target=3.0, R=3.0, ensemble=kind, quantizer=quantizer,
               delta=None if one_bit else 2.0, m_grid=(2 if one_bit else 1, 100, 128, 129, 131, 301, 385), trials=2)
    panels, ys, stacks = _spy_engine(monkeypatch)
    run_curve(cfg, "glasso")
    base = panels[0][0].base
    assert base.shape == (128, n) and all(out.base is base for out, _ in panels)
    for m, t, drawn, measured, (G, b) in _trials_of(cfg, panels, ys, stacks):
        A, y, mu = _whole_draw(cfg, m, t)
        assert np.concatenate([panel for _, panel in drawn]).tobytes() == A.tobytes()
        assert np.concatenate(measured).tobytes() == y.tobytes()
        G_ref, b_ref = gram_stats(A, y, mu)
        if kind == "rademacher":
            assert G.tobytes() == G_ref.tobytes() and b.tobytes() == b_ref.tobytes()
        else:
            np.testing.assert_allclose(G, G_ref, rtol=0, atol=1e-12 * np.abs(G_ref).max())
            np.testing.assert_allclose(b, b_ref, rtol=0, atol=1e-12 * np.abs(b_ref).max())
            if m <= 128:  # one panel: the whole-matrix products themselves
                assert G.tobytes() == G_ref.tobytes() and b.tobytes() == b_ref.tobytes()


def test_block_draws_every_matrix_into_one_workspace(monkeypatch):
    # 15 trials at n=100 run as blocks of 13 and 2 at each m; m=2700 draws panels of
    # 1310, 1310 and 80 rows. One (1310, 100) array takes every panel of every trial,
    # block and m. Each trial's Gram statistics are bitwise those of gram_stats on its
    # whole float64 draw, and its error and iteration count those it gets alone in a
    # block of one.
    cfg = _cfg(n=100, structure=Sparse(10), ensemble="rademacher", m_grid=(150, 230, 2700), trials=15)
    panels, ys, stacks = _spy_engine(monkeypatch)
    curve = run_curve(cfg, "glasso")
    assert len(stacks) == 6 and [len(G) for G, _ in stacks] == [13, 2] * 3
    assert len(panels) == 15 * (1 + 1 + 3)
    base = panels[0][0].base
    assert base.shape == (qlasso.experiment.panel_rows(cfg.n), cfg.n) == (1310, 100)
    assert all(out.base is base for out, _ in panels)
    for m, t, drawn, measured, (G, b) in _trials_of(cfg, panels, ys, stacks):
        A, y, mu = _whole_draw(cfg, m, t)
        assert np.concatenate([panel for _, panel in drawn]).tobytes() == A.tobytes()
        G_ref, b_ref = gram_stats(A, y, mu)
        assert G.tobytes() == G_ref.tobytes() and b.tobytes() == b_ref.tobytes()
    monkeypatch.undo()
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
