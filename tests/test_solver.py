import numpy as np
import pytest

from qlasso import (
    GLassoProblem,
    L1Ball,
    LowRank,
    NuclearBall,
    OneBitQuantizer,
    SignalSpec,
    SolverOptions,
    Sparse,
    Unconstrained,
    UniformQuantizer,
    dm_estimate,
    estimate_lipschitz,
    gen_lowrank_signal,
    gen_signal,
    gen_sparse_signal,
    glasso_solve,
    gradient,
    inverse_lipschitz_step,
    measure,
    objective,
    pbp_estimate,
    pgd_rows,
    project_l1_rows,
    project_nuclear_rows,
    sample_measurements,
    substream,
)


def _instance(seed, m=300, n=50, s=10, delta=1.0):
    rng_sig = substream(seed, "sig")
    rng_mat = substream(seed, "mat")
    rng_dith = substream(seed, "dith")
    x0 = gen_sparse_signal(SignalSpec(n, Sparse(s), 3.0), rng_sig)
    A = sample_measurements("gaussian", m, n, rng_mat)
    y = measure(A, x0, UniformQuantizer(delta), rng_dith)
    return x0, A, y


def test_objective_zero_point():
    x0, A, y = _instance(0)
    p = GLassoProblem(A, y, 1.0, Unconstrained())
    m = A.shape[0]
    expect = float(y @ y) / (2 * m)
    assert objective(p, np.zeros(50)) == pytest.approx(expect, rel=1e-14)


def test_objective_one_bit_zero_point():
    # y_i = +-1 so with mu = T the value at zero is T^2 / 2 exactly
    rng = substream(1, "ob")
    T = 5.0
    A = sample_measurements("gaussian", 200, 10, rng)
    y = measure(A, np.zeros(10), OneBitQuantizer(T), rng)
    p = GLassoProblem(A, y, T, Unconstrained())
    assert objective(p, np.zeros(10)) == pytest.approx(T * T / 2, rel=1e-14)


def test_objective_dimension_mismatch():
    x0, A, y = _instance(2)
    p = GLassoProblem(A, y, 1.0, Unconstrained())
    with pytest.raises(ValueError):
        objective(p, np.zeros(49))
    with pytest.raises(ValueError):
        gradient(p, np.zeros(51))


def test_problem_shape_validation():
    x0, A, y = _instance(3)
    with pytest.raises(ValueError):
        GLassoProblem(A, y[:-1], 1.0, Unconstrained())
    with pytest.raises(ValueError):
        GLassoProblem(y, y, 1.0, Unconstrained())
    A_bad = A.copy()
    A_bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        GLassoProblem(A_bad, y, 1.0, Unconstrained())


def test_lipschitz_scaled_identity():
    m = 16
    A = np.sqrt(m) * np.eye(m)
    assert estimate_lipschitz(A) == pytest.approx(1.01, rel=1e-6)


def test_lipschitz_single_row():
    a = np.array([[1.0, 2.0, 2.0]])
    # lambda_max(a^T a) / 1 = ||a||^2 = 9
    assert estimate_lipschitz(a) == pytest.approx(1.01 * 9.0, rel=1e-6)


def test_lipschitz_marchenko_pastur_edge():
    rng = substream(0, "mp")
    m, n = 400, 100
    A = rng.standard_normal((m, n))
    edge = (1 + np.sqrt(n / m)) ** 2
    assert estimate_lipschitz(A) == pytest.approx(1.01 * edge, rel=0.05)


def test_lipschitz_matches_dense_eigensolve():
    rng = substream(5, "eig")
    A = rng.standard_normal((120, 30))
    G = A.T @ A / 120
    lam = np.linalg.eigvalsh(G)[-1]
    assert estimate_lipschitz(A) == pytest.approx(1.01 * lam, rel=1e-6)


def test_exact_step_near_degenerate_top_pair():
    # A^T A / m has eigenvalues 1 and 1 - 1e-4 on top of a cluster at 0.98.
    # 100 power iterations from a random start end 1.2% below lambda_max on
    # this spectrum, so even after a 1% inflation a step from them would
    # exceed 1 / lambda_max; the step from the dense eigensolve is below
    # 1 / (1.01 lambda_max) up to rounding.
    m, n = 300, 60
    rng = substream(15, "spectrum")
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    W, _ = np.linalg.qr(rng.standard_normal((m, n)))
    lam = np.full(n, 0.98)
    lam[:2] = (1.0, 1.0 - 1e-4)
    A = np.sqrt(m) * (W * np.sqrt(lam)) @ Q.T
    G = A.T @ A / m
    lam_max = lam[0]
    bound = (1.0 / 1.01) * (1.0 + 1e-12)
    assert float(inverse_lipschitz_step(G)) * lam_max <= bound
    assert estimate_lipschitz(A) >= 1.01 * lam_max * (1.0 - 1e-12)
    res = glasso_solve(GLassoProblem(A, np.ones(m), 1.0, Unconstrained()), SolverOptions(max_iters=5))
    assert res.step_size * lam_max <= bound
    steps = inverse_lipschitz_step(np.stack([G, 2.0 * G, np.zeros((n, n))]))
    np.testing.assert_allclose(steps * [1.0, 2.0, 1.0], [1 / 1.01, 1 / 1.01, 1.0], rtol=1e-12)


# glasso_solve with a far tighter stop than its default: the reference for pgd_rows' solutions
_TIGHT = SolverOptions(max_iters=50000, rel_tol=1e-14)


def _fista_restart(G, b, K, eta, iters):
    """`iters` steps of FISTA with gradient restart on one problem, two products with G a step.

    Returns the last iterate and the number of restarts.
    """
    x = y = np.zeros(len(b))
    t, restarts = 1.0, 0
    for _ in range(iters):
        x_new = K.project(y - eta * (G @ y - b))
        if (y - x_new) @ (x_new - x) > 0:
            t, y = 1.0, x_new
            restarts += 1
        else:
            t_new = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
            y = x_new + ((t - 1.0) / t_new) * (x_new - x)
            t = t_new
        x = x_new
    return x, restarts


def _stack_problems(instances, mu):
    G = np.stack([A.T @ A / len(A) for A, _ in instances])
    b = np.stack([(mu / len(A)) * (A.T @ y) for A, y in instances])
    const = np.array([(mu**2 / len(A)) * float(y @ y) for A, y in instances])
    return G, b, const


def test_pgd_rows_matches_glasso_solve_l1():
    instances, radii = [], []
    for seed in range(9):
        x0, A, y = _instance(200 + seed, m=150 + 40 * seed, n=40, s=6)
        instances.append((A, y))
        radii.append(float(np.abs(x0).sum()))
    G, b, const = _stack_problems(instances, 1.0)
    X, _, conv = pgd_rows(G, b, const, radii, project_l1_rows, inverse_lipschitz_step(G))
    for (A, y), r, x, c in zip(instances, radii, X, conv):
        ref = glasso_solve(GLassoProblem(A, y, 1.0, L1Ball(r)), _TIGHT)
        assert c and ref.converged
        assert np.linalg.norm(x - ref.x_hat) <= 1e-6 * np.linalg.norm(ref.x_hat)


def test_pgd_rows_matches_glasso_solve_nuclear():
    d = 5
    instances, radii = [], []
    for seed in range(4):
        rng = substream(300 + seed, "lr")
        x0 = gen_lowrank_signal(SignalSpec(d * d, LowRank(d, 1), 2.0), rng)
        A = sample_measurements("gaussian", 200, d * d, rng)
        y = measure(A, x0, UniformQuantizer(0.5), rng)
        instances.append((A, y))
        radii.append(float(np.linalg.svd(x0.reshape(d, d), compute_uv=False).sum()))
    G, b, const = _stack_problems(instances, 1.0)
    X, _, conv = pgd_rows(G, b, const, radii, project_nuclear_rows, inverse_lipschitz_step(G))
    for (A, y), r, x, c in zip(instances, radii, X, conv):
        ref = glasso_solve(GLassoProblem(A, y, 1.0, NuclearBall(r)), _TIGHT)
        assert c and ref.converged
        assert np.linalg.norm(x - ref.x_hat) <= 1e-6 * np.linalg.norm(ref.x_hat)


def test_pgd_rows_reaches_the_minimizer_at_small_m():
    # The first 12 trials at m = 200 of the uniform sparse benchmark config,
    # drawn from the substreams the trial engine keys them by. The reference
    # is 2000 fixed-step PGD iterations, which end within 1e-15 (relative) of
    # a 2e5-iteration run on these trials. A stop on the relative objective
    # decrease left the solutions up to 6.3e-6 away.
    m, n, seed = 200, 100, 0
    spec = SignalSpec(n, Sparse(25), 8.0)
    instances, radii = [], []
    for t in range(12):
        x0 = gen_signal(spec, substream(seed, m, t, "signal"))
        A = sample_measurements("rademacher", m, n, substream(seed, m, t, "matrix"))
        instances.append((A, measure(A, x0, UniformQuantizer(3.0), substream(seed, m, t, "dither"))))
        radii.append(float(np.abs(x0).sum()))
    G, b, const = _stack_problems(instances, 1.0)
    eta = inverse_lipschitz_step(G)
    ref = np.zeros_like(b)
    for _ in range(2000):
        ref = project_l1_rows(ref - eta[:, None] * (np.matmul(G, ref[:, :, None])[:, :, 0] - b), radii)
    X, _, conv = pgd_rows(G, b, const, radii, project_l1_rows, eta)
    assert conv.all()
    rel = np.linalg.norm(X - ref, axis=1) / np.linalg.norm(ref, axis=1)
    assert rel.max() <= 1e-6


def _max_iters_instances():
    instances, radii = [], []
    for seed in range(3):
        x0, A, y = _instance(400 + seed, n=40, s=6)
        instances.append((A, y))
        radii.append(float(np.abs(x0).sum()))
    G, b, const = _stack_problems(instances, 1.0)
    return G, b, const, radii, inverse_lipschitz_step(G)


def test_pgd_rows_reports_max_iters():
    G, b, const, radii, eta = _max_iters_instances()
    opts = SolverOptions(max_iters=4)
    X, iters, conv = pgd_rows(G.copy(), b, const, radii, project_l1_rows, eta, opts)
    np.testing.assert_array_equal(iters, [4, 4, 4])
    assert not conv.any()
    for g, b_i, r, e, x in zip(G, b, radii, eta, X):
        np.testing.assert_allclose(x, _fista_restart(g, b_i, L1Ball(r), e, 4)[0], rtol=1e-12, atol=1e-14)


def test_pgd_rows_restarts_like_fista_with_restart():
    # 12 iterations on the same problems take every row through two restarts
    G, b, const, radii, eta = _max_iters_instances()
    opts = SolverOptions(max_iters=12)
    X, iters, _ = pgd_rows(G.copy(), b, const, radii, project_l1_rows, eta, opts)
    np.testing.assert_array_equal(iters, [12, 12, 12])
    for g, b_i, r, e, x in zip(G, b, radii, eta, X):
        ref, restarts = _fista_restart(g, b_i, L1Ball(r), e, 12)
        assert restarts == 2
        np.testing.assert_allclose(x, ref, rtol=1e-12, atol=1e-14)


def test_glasso_matches_normal_equations():
    # unconstrained minimizer is the least-squares solution of A x = mu y
    for seed in range(20):
        x0, A, y = _instance(100 + seed)
        p = GLassoProblem(A, y, 1.0, Unconstrained())
        res = glasso_solve(p, SolverOptions(max_iters=50000, rel_tol=1e-14))
        x_ls, *_ = np.linalg.lstsq(A, y, rcond=None)
        rel = np.linalg.norm(res.x_hat - x_ls) / np.linalg.norm(x_ls)
        assert rel <= 1e-6


def test_inactive_constraint_matches_unconstrained():
    x0, A, y = _instance(6)
    p_free = GLassoProblem(A, y, 1.0, Unconstrained())
    free = glasso_solve(p_free, SolverOptions(max_iters=50000, rel_tol=1e-14))
    big = L1Ball(10.0 * float(np.abs(free.x_hat).sum()))
    p_ball = GLassoProblem(A, y, 1.0, big)
    ball = glasso_solve(p_ball, SolverOptions(max_iters=50000, rel_tol=1e-14))
    assert np.linalg.norm(free.x_hat - ball.x_hat) <= 1e-6 * np.linalg.norm(free.x_hat)


def test_objective_trace_monotone():
    x0, A, y = _instance(8)
    K = L1Ball(float(np.abs(x0).sum()))
    res = glasso_solve(GLassoProblem(A, y, 1.0, K))
    diffs = np.diff(res.objective_trace)
    assert np.all(diffs <= 1e-12)
    assert res.converged


def test_fixed_point_optimality():
    x0, A, y = _instance(9)
    K = L1Ball(float(np.abs(x0).sum()))
    p = GLassoProblem(A, y, 1.0, K)
    res = glasso_solve(p, SolverOptions(max_iters=50000, rel_tol=1e-14))
    g = gradient(p, res.x_hat)
    moved = K.project(res.x_hat - res.step_size * g)
    assert np.linalg.norm(moved - res.x_hat) <= 1e-6 * (1 + np.linalg.norm(res.x_hat))


def test_pbp_formula_direct():
    x0, A, y = _instance(11)
    K = L1Ball(float(np.abs(x0).sum()))
    m = A.shape[0]
    direct = K.project((2.5 / m) * (A.T @ y))
    np.testing.assert_array_equal(pbp_estimate(A, y, K, 2.5), direct)


def test_dm_equals_pbp():
    x0, A, y = _instance(12)
    K = L1Ball(float(np.abs(x0).sum()))
    np.testing.assert_array_equal(
        dm_estimate(A, y, K, 3.0), pbp_estimate(A, y, K, 3.0)
    )
    with pytest.raises(ValueError):
        dm_estimate(A, y, K, 0.0)


def test_glasso_beats_pbp_typical():
    x0, A, y = _instance(13, m=1000, n=100, s=25, delta=3.0)
    K = L1Ball(float(np.abs(x0).sum()))
    res = glasso_solve(GLassoProblem(A, y, 1.0, K))
    err_g = np.linalg.norm(res.x_hat - x0)
    err_p = np.linalg.norm(pbp_estimate(A, y, K, 1.0) - x0)
    assert err_g < err_p


def test_noiseless_limit_single_trial():
    # tiny quantization cells recover the signal almost exactly
    rng_sig = substream(14, "sig")
    rng_mat = substream(14, "mat")
    rng_dith = substream(14, "dith")
    x0 = gen_sparse_signal(SignalSpec(100, Sparse(10), 3.0), rng_sig)
    A = sample_measurements("gaussian", 500, 100, rng_mat)
    delta = 1e-6
    y = measure(A, x0, UniformQuantizer(delta), rng_dith)
    K = L1Ball(float(np.abs(x0).sum()))
    res = glasso_solve(GLassoProblem(A, y, 1.0, K))
    assert np.linalg.norm(res.x_hat - x0) < 1e-3


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(max_iters=0)
    with pytest.raises(ValueError):
        SolverOptions(rel_tol=0.0)
