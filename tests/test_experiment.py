import math
import os
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qlasso.experiment
from qlasso import (
    ErrorCurve,
    ExperimentConfig,
    OneBitQuantizer,
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
    with pytest.raises(ValueError, match="unknown quantizer"):
        _cfg(quantizer="ternary")
    with pytest.raises(ValueError, match="delta must be finite and positive"):
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
    for counts in (dict(master_seed=1.5), dict(n=20.0), dict(trials=2.5), dict(trials=True),
                   dict(m_grid=(30.0, 40.0, 50.0))):
        with pytest.raises(ValueError, match="counts must be integers"):
            _cfg(**counts)
    _cfg(n=np.int64(50), trials=np.int32(3), m_grid=(np.int64(200), 400), master_seed=np.uint8(7))
    _cfg(m_grid=(1, 200))  # the uniform channel is defined at m = 1
    with pytest.raises(ValueError, match="m >= 2"):  # the one-bit dither range R sqrt(ln m) is 0 at m = 1
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
    for bad in (True, "3"):  # True built a bound of 1, "3" raised a bare TypeError
        with pytest.raises(ValueError, match="norm_target must be finite and positive"):
            _cfg(norm_target=bad, R=3.0)
        with pytest.raises(ValueError, match="R must be finite and positive"):
            _cfg(R=bad)


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


@pytest.mark.parametrize("trial_id", [-1, True, 1.5, 3])
def test_run_trial_rejects_a_trial_id_outside_the_config(trial_id):
    # -1 would key the substream of trial 2**64 - 1, True that of trial 1; cfg.trials is 3
    cfg = _cfg()
    with pytest.raises(ValueError):
        run_trial(cfg, 200, trial_id, "glasso")


@pytest.mark.parametrize("m", [200.0, np.float64(200)], ids=["float", "numpy-float"])
def test_run_trial_rejects_a_float_m(m):
    # 200.0 is in the grid, and used to fail in the engine with a bare TypeError
    with pytest.raises(ValueError, match="counts must be integers"):
        run_trial(_cfg(), m, 0, "glasso")


def test_run_trial_paired_across_estimators():
    # Every estimator of a trial sees the (x0, A, y) that the trial's signal,
    # matrix and dither substreams draw: rebuilt from them, the single-problem
    # estimators give the errors run_trial reports for pbp and glasso.
    cfg, m = _cfg(), 200
    spec = SignalSpec(cfg.n, cfg.structure, cfg.norm_target)
    for t in range(3):
        x0 = gen_signal(spec, substream(7, m, t, "signal"))
        A = sample_measurements(cfg.ensemble, m, cfg.n, substream(7, m, t, "matrix"))
        y = measure(A @ x0, UniformQuantizer(cfg.delta), substream(7, m, t, "dither"))
        radius = float(np.abs(x0).sum())
        pbp = pbp_estimate(A, y, project_l1_rows, radius, 1.0)
        assert np.linalg.norm(pbp - x0) == run_trial(cfg, m, t, "pbp")
        ref = glasso_solve(A, y, 1.0, project_l1_rows, radius)
        assert np.linalg.norm(ref.x_hat - x0) == pytest.approx(run_trial(cfg, m, t, "glasso"), rel=1e-6)


def test_run_curve_shapes_and_determinism():
    cfg = _cfg()
    c1 = run_curve(cfg, "glasso")
    c2 = run_curve(cfg, "glasso", jobs=np.int64(1))  # a numpy integer is a count like any other
    assert c1.m_grid == (200, 400)
    assert c1.errors.shape == (2, 3)
    np.testing.assert_array_equal(c1.errors, c2.errors)
    np.testing.assert_array_equal(c1.mean_err, c1.errors.mean(axis=1))


_BELOW_ONE, _NOT_AN_INTEGER = "jobs must be an int >= 1", r"counts must be integers, got \{'jobs'"


@pytest.mark.parametrize("jobs, error", [
    pytest.param(0, _BELOW_ONE, id="0"),
    pytest.param(-1, _BELOW_ONE, id="-1"),
    pytest.param(np.int64(0), _BELOW_ONE, id="np.int64(0)"),
    pytest.param(2.0, _NOT_AN_INTEGER, id="2.0"),
    pytest.param(True, _NOT_AN_INTEGER, id="True"),
    pytest.param("2", _NOT_AN_INTEGER, id="2"),
    pytest.param(None, _NOT_AN_INTEGER, id="None"),
])
def test_run_curve_rejects_bad_jobs(jobs, error):
    # jobs=0 and -1 used to run one process, and jobs=2.0 failed deep in the pool; jobs is checked
    # as every count is (check_integers), then for >= 1
    with pytest.raises(ValueError, match=error):
        run_curve(_cfg(), "glasso", jobs=jobs)


@pytest.mark.parametrize("jobs", [3, 8])
def test_more_workers_solve_every_block_once(jobs):
    # six tasks taken from the shared counter by three workers, or by six: each block is solved once
    # and comes back in task order. A subprocess, so that workers left waiting fail by the timeout.
    code = (
        "import numpy as np\n"
        "from qlasso import ExperimentConfig, Sparse, run_curve\n"
        "cfg = ExperimentConfig(n=100, structure=Sparse(10), norm_target=3.0, R=3.0, ensemble='gaussian',\n"
        "                       quantizer='uniform', delta=1.0, m_grid=(200, 400), trials=30, master_seed=7)\n"
        "one, many = (run_curve(cfg, ('glasso', 'pbp'), jobs=j) for j in (1, JOBS))\n"
        "print(all(np.array_equal(getattr(one[e], f), getattr(many[e], f))\n"
        "          for e in one for f in ('errors', 'iterations', 'converged')))\n"
    ).replace("JOBS", str(jobs))
    env = dict(os.environ, PYTHONPATH=str(Path(qlasso.experiment.__file__).resolve().parents[1]))
    with subprocess.Popen([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the forked workers too, which share its process group
            raise
    assert proc.returncode == 0 and out.split() == ["True"]


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

    def spy_draw(kind, m, n, rng, *, out=None):
        A = sample_measurements(kind, m, n, rng, out=out)
        panels.append((out, A.copy()))
        return A

    def spy_measure(Ax, q, rng):
        y = measure(Ax, q, rng)
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
    q = qlasso.experiment._channel(cfg, m)
    x0 = gen_signal(SignalSpec(cfg.n, cfg.structure, cfg.norm_target), substream(cfg.master_seed, m, t, "signal"))
    A = sample_measurements(cfg.ensemble, m, cfg.n, substream(cfg.master_seed, m, t, "matrix"))
    return A, measure(A @ x0, q, substream(cfg.master_seed, m, t, "dither")), q.mu


def _trials_of(cfg, panels, ys, stacks):
    """(m, trial, its drawn panels, their measurements, its (G, b) rows), in call order."""
    rows = [row for G, b in stacks for row in zip(G, b)]
    height = qlasso.experiment.panel_rows(cfg.n, cfg.ensemble)
    trials, j = [], 0
    for m in cfg.m_grid:
        count = -(-m // height)
        for t in range(cfg.trials):
            trials.append((m, t, panels[j:j + count], ys[j:j + count], rows[len(trials)]))
            j += count
    assert j == len(panels) == len(ys) and len(trials) == len(rows)
    return trials


def test_panel_rows():
    # the most rows, in multiples of four, whose draw and float64 widening fit in the 1 MiB of a
    # Gram stack (a float64 draw is its own widening), at least four
    for kind in ("rademacher", "gaussian"):
        for n in (7, 40, 100, 256, 10**6):
            rows, row_bytes = qlasso.experiment.panel_rows(n, kind), n * (8 if kind == "gaussian" else 4 + 8)
            assert rows % 4 == 0 and (rows * row_bytes <= 2**20 or rows == 4) and (rows + 4) * row_bytes > 2**20
    assert qlasso.experiment.panel_rows(100, "rademacher") == 872
    assert qlasso.experiment.panel_rows(256, "gaussian") == 512


PANEL_CASES = [(kind, quantizer, n) for kind in ("rademacher", "gaussian") for quantizer in ("uniform", "one_bit")
               for n in (7, 100)]


@pytest.mark.parametrize("kind,quantizer,n", PANEL_CASES)
def test_panel_draw_matches_the_whole_matrix(kind, quantizer, n, monkeypatch):
    # Panels of 128 rows: m below, equal to and just above one panel, last panels of
    # odd height (129, 131, 301, 385) and several panels. Each trial's panels are its
    # whole-matrix draw and their measurements those of one measure call, bitwise. Its
    # Gram statistics are gram_stats of the whole draw: bitwise for +-1 entries, whose
    # panel sums are integers (one-bit y is +-1, y of the cell width 2 an odd integer),
    # and to rounding for Gaussian entries.
    monkeypatch.setattr(qlasso.experiment, "panel_rows", lambda n, ensemble: 128)
    one_bit = quantizer == "one_bit"
    cfg = _cfg(n=n, structure=Sparse(n), norm_target=3.0, R=3.0, ensemble=kind, quantizer=quantizer,
               delta=None if one_bit else 2.0, m_grid=(2 if one_bit else 1, 100, 128, 129, 131, 301, 385), trials=2)
    panels, ys, stacks = _spy_engine(monkeypatch)
    run_curve(cfg, "glasso")
    base = panels[0][0].base
    assert base.shape == (128, n) and all(out.base is base for out, _ in panels)
    assert base.dtype == (np.float32 if kind == "rademacher" else np.float64)
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


@pytest.mark.parametrize("quantizer", ["uniform", "one_bit"])
def test_gaussian_panels_sum_their_float64_products(quantizer, monkeypatch):
    # Panels of 128 rows, three and four of them a trial at n = 100: each trial's (G, b) is
    # bitwise the in-order sums of its panels' float64 A_p^T A_p and A_p^T y_p, divided by m
    # and scaled by mu / m: summing from zero adds no rounding.
    monkeypatch.setattr(qlasso.experiment, "panel_rows", lambda n, ensemble: 128)
    one_bit = quantizer == "one_bit"
    cfg = _cfg(n=100, quantizer=quantizer, delta=None if one_bit else 1.0, m_grid=(300, 385), trials=2)
    panels, ys, stacks = _spy_engine(monkeypatch)
    run_curve(cfg, "glasso")
    for m, t, drawn, measured, (G, b) in _trials_of(cfg, panels, ys, stacks):
        assert len(drawn) == (3 if m == 300 else 4)
        G_sum, b_sum = np.zeros((cfg.n, cfg.n)), np.zeros(cfg.n)
        for (_, A), y in zip(drawn, measured):
            G_sum += A.T @ A
            b_sum += A.T @ y
        mu = qlasso.experiment._channel(cfg, m).mu
        assert G.tobytes() == (G_sum / m).tobytes() and b.tobytes() == (b_sum * (mu / m)).tobytes()


def test_block_draws_every_matrix_into_one_workspace(monkeypatch):
    # 15 trials at n=100 run as blocks of 13 and 2 at each m; m=2700 draws panels of
    # 872, 872, 872 and 84 rows. One (872, 100) array takes every panel of every trial,
    # block and m. Each trial's Gram statistics are bitwise those of gram_stats on its
    # whole float64 draw, and its error and iteration count those it gets alone in a
    # block of one.
    cfg = _cfg(n=100, structure=Sparse(10), ensemble="rademacher", m_grid=(150, 230, 2700), trials=15)
    panels, ys, stacks = _spy_engine(monkeypatch)
    curve = run_curve(cfg, "glasso")
    assert len(stacks) == 6 and [len(G) for G, _ in stacks] == [13, 2] * 3
    assert len(panels) == 15 * (1 + 1 + 4)
    base = panels[0][0].base
    assert base.shape == (qlasso.experiment.panel_rows(cfg.n, cfg.ensemble), cfg.n) == (872, 100)
    assert base.dtype == np.float32
    assert all(out.base is base for out, _ in panels)
    for m, t, drawn, measured, (G, b) in _trials_of(cfg, panels, ys, stacks):
        A, y, mu = _whole_draw(cfg, m, t)
        assert np.concatenate([panel for _, panel in drawn]).tobytes() == A.tobytes()
        G_ref, b_ref = gram_stats(A, y, mu)
        assert G.tobytes() == G_ref.tobytes() and b.tobytes() == b_ref.tobytes()
    monkeypatch.undo()
    for i, m in enumerate(cfg.m_grid):
        for t in range(cfg.trials):
            errors, iterations, _ = qlasso.experiment._solve_block(
                cfg, m, range(t, t + 1), ("glasso",), qlasso.experiment._workspace(cfg.n, cfg.ensemble))["glasso"]
            assert curve.errors[i, t] == errors[0] == run_trial(cfg, m, t, "glasso")
            assert curve.iterations[i, t] == iterations[0]


def _panel_stacks(monkeypatch, kind, quantizer, delta, m_grid):
    """Run a curve at n=100 and return, per trial, its whole draw (A, y, mu) and the (G, b) the
    engine handed to pgd_rows."""
    one_bit = quantizer == "one_bit"
    cfg = _cfg(n=100, structure=Sparse(10), ensemble=kind, quantizer=quantizer,
               delta=None if one_bit else delta, m_grid=m_grid, trials=2)
    panels, ys, stacks = _spy_engine(monkeypatch)
    run_curve(cfg, "glasso")
    return [(_whole_draw(cfg, m, t), Gb) for m, t, _, _, Gb in _trials_of(cfg, panels, ys, stacks)]


ROWS = qlasso.experiment.panel_rows(100, "rademacher")


@pytest.mark.parametrize("quantizer,delta", [("one_bit", None), ("uniform", 3.0), ("uniform", 0.5),
                                             ("uniform", 0.125)])
def test_signed_panels_give_the_exact_gram_stats(quantizer, delta, monkeypatch):
    # Last panels of one row. A^T y is an exact sum on these grids, so the sum of the
    # panels' A^T y is too, and (G, b) is bitwise gram_stats.
    for (A, y, mu), (G, b) in _panel_stacks(monkeypatch, "rademacher", quantizer, delta, (ROWS + 1, 2 * ROWS + 1)):
        G_ref, b_ref = gram_stats(A, y, mu)
        assert G.tobytes() == G_ref.tobytes() and b.tobytes() == b_ref.tobytes()


@pytest.mark.parametrize("kind", ["rademacher", "gaussian"])
@pytest.mark.parametrize("delta", [0.3, 1e-6])
def test_panels_sum_their_float64_b(delta, kind, monkeypatch):
    # At these cell widths A^T y is not an exact sum: b sums the panels' float64 A^T y for
    # +-1 rows as for Gaussian ones. On one panel (G, b) is bitwise gram_stats; over three, b
    # is gram_stats to rounding, and the exact float32 Gram matrix keeps +-1 rows' G bitwise.
    rows = qlasso.experiment.panel_rows(100, kind)
    for (A, y, mu), (G, b) in _panel_stacks(monkeypatch, kind, "uniform", delta, (rows // 2, rows, 2 * rows + 1)):
        G_ref, b_ref = gram_stats(A, y, mu)
        if len(A) <= rows or kind == "rademacher":
            assert G.tobytes() == G_ref.tobytes()
        if len(A) <= rows:
            assert b.tobytes() == b_ref.tobytes()
        np.testing.assert_allclose(G, G_ref, rtol=0, atol=1e-12 * np.abs(G_ref).max())
        np.testing.assert_allclose(b, b_ref, rtol=1e-14, atol=1e-15 * np.abs(b_ref).max())


def test_signed_panels_past_float32_cell_sums():
    # a curve runs on cells past the sums float32 holds exactly
    curve = run_curve(_cfg(n=100, structure=Sparse(10), ensemble="rademacher", delta=1e-6, m_grid=(200, 400)),
                      "glasso")
    assert np.all(np.isfinite(curve.errors)) and curve.converged.all()


@pytest.mark.parametrize("n", [7, 100])
@pytest.mark.parametrize("q", [UniformQuantizer(0.3), UniformQuantizer(2.0), UniformQuantizer(2.0**-40),
                               OneBitQuantizer(4.0)], ids=["uniform-0.3", "uniform-2", "uniform-fine", "one_bit"])
def test_measure_on_float32_signs(q, n, monkeypatch):
    # The engine's y from float32 +-1 panels is bitwise measure(A x0) of the whole draw widened
    # to float64, at m of one, two and a few rows, around multiples of four rows and one row past
    # a panel. The cells of width 2^-40 resolve A x0 to about 2^11 ulps, so A x0 must be float64.
    monkeypatch.setattr(qlasso.experiment, "_channel", lambda cfg, m: q)
    _, ys, _ = _spy_engine(monkeypatch)
    for m in (1, 2, 5, 161, 163, 2341, ROWS + 1):
        cfg = _cfg(n=n, structure=Sparse(min(n, 5)), ensemble="rademacher", m_grid=(m,), trials=1)
        ys.clear()
        qlasso.experiment._solve_block(cfg, m, range(1), ("pbp",), qlasso.experiment._workspace(n, cfg.ensemble))
        x0 = gen_signal(SignalSpec(n, cfg.structure, cfg.norm_target), substream(cfg.master_seed, m, 0, "signal"))
        A = sample_measurements("rademacher", m, n, substream(cfg.master_seed, m, 0, "matrix"))
        y = measure(A.astype(np.float64) @ x0, q, substream(cfg.master_seed, m, 0, "dither"))
        assert A.dtype == np.float32 and np.concatenate(ys).tobytes() == y.tobytes()


# Each panel's A x0, as _solve_block hands it to measure, against the whole float64 product: the
# count of rows that differ, per trial, at n=100 and m=3000 (three or four panels a trial).
_PANEL_PRODUCTS_CODE = """if True:
    import sys
    import numpy as np
    import qlasso.experiment as engine
    from qlasso import ExperimentConfig, SignalSpec, Sparse, gen_signal, sample_measurements, substream
    kind, m = sys.argv[1], 3000
    cfg = ExperimentConfig(n=100, structure=Sparse(10), norm_target=3.0, R=3.0, ensemble=kind, quantizer="uniform",
                           delta=1.0, m_grid=(m,), trials=5, master_seed=7)
    products, measure = [], engine.measure
    engine.measure = lambda Ax, q, rng: products.append(Ax.copy()) or measure(Ax, q, rng)
    engine._solve_block(cfg, m, range(5), ("pbp",), engine._workspace(cfg.n, kind))
    count = len(products) // 5
    for t in range(5):
        x0 = gen_signal(SignalSpec(cfg.n, cfg.structure, cfg.norm_target), substream(7, m, t, "signal"))
        A = sample_measurements(kind, m, cfg.n, substream(7, m, t, "matrix")).astype(np.float64)
        print(count, int(np.sum(np.concatenate(products[t * count:(t + 1) * count]) != A @ x0)))
"""


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("kind", ["rademacher", "gaussian"])
def test_panel_products_are_the_whole_product(kind, threads):
    # Every panel starts on a 4-row boundary, as OpenBLAS groups the rows of A x0, so each
    # row's a_i^T x0 is rounded as in the whole matrix's product and y is the whole-matrix
    # channel, whatever the cell edges. A height that is not a multiple of four breaks this
    # here: 1310-row panels differ in 8 (+-1) and 9 (Gaussian) of the 15000 rows.
    env = dict(os.environ, PYTHONPATH=str(Path(qlasso.experiment.__file__).resolve().parents[1]),
               OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    out = subprocess.run([sys.executable, "-c", _PANEL_PRODUCTS_CODE, kind], env=env, check=True, timeout=60,
                         capture_output=True, text=True)
    assert out.stdout.splitlines() == [f"{4 if kind == 'rademacher' else 3} 0"] * 5


def test_signed_block_allocates_no_panel_per_panel():
    # One block of 13 trials at m = 8000 on +-1 rows, ten panels a trial, allocates far less
    # than one float64 panel (681 KiB at n = 100): each panel is widened into the workspace.
    cfg = _cfg(n=100, structure=Sparse(10), ensemble="rademacher", m_grid=(8000,), trials=13)
    task = (cfg, 8000, range(13), ("glasso",), qlasso.experiment._workspace(cfg.n, cfg.ensemble))
    qlasso.experiment._solve_block(*task)  # a warm-up block
    tracemalloc.start()
    try:
        qlasso.experiment._solve_block(*task)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**19


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
    # a non-finite error, and a grid of fewer than 3 distinct m, used to give a NaN or arbitrary fit
    for errs in ([1.0, np.nan, 0.5], [1.0, np.inf, 0.5]):
        with pytest.raises(ValueError, match="finite, positive errors"):
            fit_rate(ErrorCurve("glasso", (1, 2, 4), np.array(errs), np.zeros(3), 1, 0), "inv_sqrt_m")
    with pytest.raises(ValueError, match="3 distinct m"):
        fit_rate(ErrorCurve("glasso", (100, 100, 100), np.array([1.0, 0.8, 0.6]), np.zeros(3), 1, 0), "inv_sqrt_m")
    # an m below 1 used to give a RuntimeWarning from np.log and a NaN fit
    for m_grid in ((0, 10, 100), (-5, 10, 100)):
        for model in ("inv_sqrt_m", "sqrtlog_m_over_sqrt_m"):
            with pytest.raises(ValueError, match="m >= 1"):
                fit_rate(ErrorCurve("glasso", m_grid, np.array([1.0, 0.8, 0.6]), np.zeros(3), 1, 0), model)


def test_fit_rate_runs_no_lapack(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("fit_rate ran a least-squares solver")

    monkeypatch.setattr(np, "polyfit", refuse)
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    ms = (100, 200, 400, 800, 1600)
    curve = ErrorCurve("glasso", ms, np.array([5.0 / math.sqrt(m) for m in ms]), np.zeros(5), 1, 0)
    for model in ("inv_sqrt_m", "sqrtlog_m_over_sqrt_m"):
        assert fit_rate(curve, model).loglog_slope == pytest.approx(-0.5, rel=1e-12)


def test_fit_rate_slope_matches_polyfit():
    # np.polyfit is the reference: the closed form is the same least-squares line
    rng = np.random.default_rng(0)
    for _ in range(200):
        ms = np.sort(rng.choice(10**6, size=rng.integers(3, 12), replace=False)) + 2
        errs = rng.uniform(0.1, 10) * ms ** rng.uniform(-1.0, -0.2) * np.exp(rng.normal(0, 0.1, ms.size))
        curve = ErrorCurve("glasso", tuple(int(m) for m in ms), errs, np.zeros(ms.size), 1, 0)
        reference = np.polyfit(np.log(ms), np.log(errs), 1)[0]
        assert fit_rate(curve, "inv_sqrt_m").loglog_slope == pytest.approx(reference, rel=1e-12, abs=0)


def test_qfunc_values():
    assert qfunc(0.0) == pytest.approx(0.5, rel=1e-15)
    assert qfunc(1.959963984540054) == pytest.approx(0.025, rel=1e-9)


def test_eta2_formula_limits():
    # s = 0: eta = T * sign(tau), so E[eta^2] = T^2
    assert onebit_eta2_formula(0.0, 4.0) == pytest.approx(16.0, rel=1e-12)
    # T >> s: 1 - 2Q(T/s) -> 1, value -> T^2 - s^2
    val = onebit_eta2_formula(0.1, 50.0)
    assert val == pytest.approx(50.0**2 - 0.1**2, rel=1e-6)


def test_xi_literal_vs_norm_scaled():
    # the two variants differ exactly by (||x0|| - 1) times the tail term
    s, T = 2.0, 5.0
    lit = onebit_xi_mean_literal(s, T)
    scaled = onebit_xi_mean_norm_scaled(s, T)
    gap = 2.0 * (s - 1.0) * qfunc(T / s)
    assert scaled - lit == pytest.approx(-gap, rel=1e-12)
