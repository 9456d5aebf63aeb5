import numpy as np
import pytest

from qlasso import (
    LowRank,
    SignalSpec,
    Sparse,
    UniformQuantizer,
    certified_step,
    dm_estimate,
    estimate_lipschitz,
    gen_lowrank_signal,
    gen_signal,
    gen_sparse_signal,
    glasso_solve,
    gram_stats,
    inverse_lipschitz_step,
    measure,
    pbp_estimate,
    pgd_rows,
    project_l1_ball,
    project_l1_rows,
    project_nuclear_rows,
    sample_measurements,
    substream,
)
from qlasso.solver import CERT_SLACK, LIPSCHITZ_MARGIN, _top_ritz_value


def _instance(seed, m=300, n=50, s=10, delta=1.0):
    rng_sig = substream(seed, "sig")
    rng_mat = substream(seed, "mat")
    rng_dith = substream(seed, "dith")
    x0 = gen_sparse_signal(SignalSpec(n, Sparse(s), 3.0), rng_sig)
    A = sample_measurements("gaussian", m, n, rng_mat)
    y = measure(A, x0, UniformQuantizer(delta), rng_dith)
    return x0, A, y


def _whole_space(V, radii):
    return V


def _l1(x0):
    """(project, radius) of the l1 ball through x0."""
    return project_l1_rows, float(np.abs(x0).sum())


def test_problem_shape_validation():
    x0, A, y = _instance(3)
    with pytest.raises(ValueError):
        glasso_solve(A, y[:-1], 1.0, _whole_space, 1.0)
    with pytest.raises(ValueError):
        glasso_solve(y, y, 1.0, _whole_space, 1.0)
    A_bad = A.copy()
    A_bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        glasso_solve(A_bad, y, 1.0, _whole_space, 1.0)
    with pytest.raises(ValueError):
        glasso_solve(A, y, np.inf, _whole_space, 1.0)


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
    steps = inverse_lipschitz_step(np.stack([G, 2.0 * G, np.zeros((n, n))]))
    np.testing.assert_allclose(steps * [1.0, 2.0, 1.0], [1 / 1.01, 1 / 1.01, 1.0], rtol=1e-12)


def _gram_stack(kind, m, n, k):
    """k Gram matrices A^T A / m of fresh (m, n) draws of `kind`."""
    draws = (sample_measurements(kind, m, n, substream(17, "gram", kind, m, n, i)) for i in range(k))
    return np.stack([A.T @ A / m for A in draws])


def _near_degenerate_top_pair():
    """The Gram matrix of test_exact_step_near_degenerate_top_pair: eigenvalues 1 and 1 - 1e-4 over 0.98."""
    m, n = 300, 60
    rng = substream(15, "spectrum")
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    W, _ = np.linalg.qr(rng.standard_normal((m, n)))
    lam = np.full(n, 0.98)
    lam[:2] = (1.0, 1.0 - 1e-4)
    A = np.sqrt(m) * (W * np.sqrt(lam)) @ Q.T
    return A.T @ A / m


def _hidden_top(n):
    """A Gram matrix whose top eigenvector (eigenvalue 1.002, the next 1) is orthogonal to the
    Lanczos start 1 / sqrt(n), so the Ritz values stay at or below 1 and the certificate fails."""
    M = substream(16, "hidden-top").standard_normal((n, n))
    M[:, 0] -= M[:, 0].mean()
    Q, _ = np.linalg.qr(M)
    lam = np.linspace(1.0, 0.1, n)
    lam[0] = 1.002
    G = (Q * lam) @ Q.T
    return 0.5 * (G + G.T)


def _rank_one(n):
    u = substream(18, "rank-one").standard_normal(n)
    return np.outer(u, u)


STEP_CASES = {
    "rademacher m=200 n=100": lambda: _gram_stack("rademacher", 200, 100, 13),
    "gaussian m=200 n=100": lambda: _gram_stack("gaussian", 200, 100, 13),
    "rademacher m=8000 n=100": lambda: _gram_stack("rademacher", 8000, 100, 13),
    "gaussian m=8000 n=100": lambda: _gram_stack("gaussian", 8000, 100, 13),
    "rademacher m=400 n=256": lambda: _gram_stack("rademacher", 400, 256, 4),
    "gaussian m=400 n=256": lambda: _gram_stack("gaussian", 400, 256, 4),
    "scaled identity": lambda: np.stack([2.5 * np.eye(40), 1e-3 * np.eye(40)]),
    "rank one": lambda: _rank_one(30)[None],
    "near-degenerate top pair": lambda: _near_degenerate_top_pair()[None],
    "hidden top eigenvector": lambda: _hidden_top(50)[None],
}


@pytest.mark.parametrize("case", sorted(STEP_CASES))
def test_certified_step_is_safe_and_tight(case):
    G = STEP_CASES[case]()
    G_in = G.copy()
    lam_max = np.linalg.eigvalsh(G)[:, -1]
    step = certified_step(G)
    np.testing.assert_array_equal(G, G_in)
    assert np.all(step * lam_max <= (1.0 / 1.01) * (1.0 + 1e-12))
    assert np.all(step * lam_max >= (1.0 / (1.01 * (1.0 + CERT_SLACK))) * (1.0 - 1e-12))


@pytest.mark.parametrize("case", sorted(STEP_CASES))
def test_certified_step_equals_a_certificate_on_a_fresh_matrix(case):
    # certified_step forms U I - G in G itself; the reference factors a fresh copy
    G = STEP_CASES[case]()
    n = G.shape[1]
    U = (1.0 + CERT_SLACK) * _top_ritz_value(G)
    expected = []
    for G_i, U_i in zip(G, U):
        C = -G_i
        C.flat[:: n + 1] += U_i
        try:
            np.linalg.cholesky(C)
            expected.append(1.0 / (LIPSCHITZ_MARGIN * U_i))
        except np.linalg.LinAlgError:
            expected.append(inverse_lipschitz_step(G_i))
    assert certified_step(G).tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("case", ["scaled identity", "rank one"])
def test_certified_step_holds_where_lanczos_breaks_down(case):
    # the Krylov space is invariant after one step (c I) or two (rank one), so theta is
    # lambda_max and the certified step is the dense step divided by 1 + CERT_SLACK
    G = STEP_CASES[case]()
    np.testing.assert_allclose(certified_step(G), inverse_lipschitz_step(G) / (1.0 + CERT_SLACK), rtol=1e-13)


def test_certified_step_of_a_zero_gram_is_one():
    np.testing.assert_array_equal(certified_step(np.zeros((2, 7, 7))), [1.0, 1.0])


def test_certified_step_falls_back_per_matrix():
    n = 50
    G = np.concatenate([_gram_stack("rademacher", 200, n, 3), _hidden_top(n)[None], _gram_stack("gaussian", 200, n, 2)])
    dense = inverse_lipschitz_step(G)
    step = certified_step(G)
    assert step[3] == dense[3]  # the hidden top eigenvalue defeats the certificate: the dense step, bitwise
    others = np.arange(len(G)) != 3
    assert np.all(step[others] < dense[others])
    assert np.all(step[others] >= dense[others] / (1.0 + CERT_SLACK) * (1.0 - 1e-12))


def test_certified_step_rows_are_independent():
    n = 40
    G = np.concatenate([
        _gram_stack("rademacher", 200, n, 3), _hidden_top(n)[None], STEP_CASES["scaled identity"](),
        _rank_one(n)[None], np.zeros((1, n, n)), _gram_stack("gaussian", 8000, n, 2),
    ])
    step = certified_step(G)
    for i in range(len(G)):
        assert certified_step(G[i:i + 1])[0] == step[i]


def _fista_restart(G, b, radius, eta, iters):
    """`iters` steps of FISTA with gradient restart over an l1 ball, two products with G a step.

    Returns the last iterate and the number of restarts.
    """
    x = y = np.zeros(len(b))
    t, restarts = 1.0, 0
    for _ in range(iters):
        x_new = project_l1_ball(y - eta * (G @ y - b), radius)
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
    G, b = zip(*(gram_stats(A, y, mu) for A, y in instances))
    return np.stack(G), np.stack(b)


def test_pgd_rows_matches_glasso_solve_l1():
    instances, radii = [], []
    for seed in range(9):
        x0, A, y = _instance(200 + seed, m=150 + 40 * seed, n=40, s=6)
        instances.append((A, y))
        radii.append(float(np.abs(x0).sum()))
    G, b = _stack_problems(instances, 1.0)
    X, _, conv = pgd_rows(G, b, radii, project_l1_rows, inverse_lipschitz_step(G))
    for (A, y), r, x, c in zip(instances, radii, X, conv):
        ref = glasso_solve(A, y, 1.0, project_l1_rows, r)
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
    G, b = _stack_problems(instances, 1.0)
    X, _, conv = pgd_rows(G, b, radii, project_nuclear_rows, inverse_lipschitz_step(G))
    for (A, y), r, x, c in zip(instances, radii, X, conv):
        ref = glasso_solve(A, y, 1.0, project_nuclear_rows, r)
        assert c and ref.converged
        assert np.linalg.norm(x - ref.x_hat) <= 1e-6 * np.linalg.norm(ref.x_hat)


def test_pgd_rows_reaches_the_minimizer_at_small_m():
    # The first 12 trials at m = 200 of the uniform sparse benchmark config,
    # drawn from the substreams the trial engine keys them by. The reference
    # is 2000 fixed-step PGD iterations, which end within 1e-15 (relative) of
    # a 2e5-iteration run on these trials. Both pgd_rows and glasso_solve at
    # its defaults must land within 1e-6 of it; a stop on the relative
    # objective decrease left the solutions up to 6.3e-6 away.
    m, n, seed = 200, 100, 0
    spec = SignalSpec(n, Sparse(25), 8.0)
    instances, radii = [], []
    for t in range(12):
        x0 = gen_signal(spec, substream(seed, m, t, "signal"))
        A = sample_measurements("rademacher", m, n, substream(seed, m, t, "matrix"))
        instances.append((A, measure(A, x0, UniformQuantizer(3.0), substream(seed, m, t, "dither"))))
        radii.append(float(np.abs(x0).sum()))
    G, b = _stack_problems(instances, 1.0)
    eta = inverse_lipschitz_step(G)
    ref = np.zeros_like(b)
    for _ in range(2000):
        ref = project_l1_rows(ref - eta[:, None] * (np.matmul(G, ref[:, :, None])[:, :, 0] - b), radii)
    single = [glasso_solve(A, y, 1.0, project_l1_rows, r) for (A, y), r in zip(instances, radii)]
    assert all(res.converged for res in single)
    X, _, conv = pgd_rows(G, b, radii, project_l1_rows, eta)
    assert conv.all()
    for sol in (X, np.stack([res.x_hat for res in single])):
        rel = np.linalg.norm(sol - ref, axis=1) / np.linalg.norm(ref, axis=1)
        assert rel.max() <= 1e-6


def _max_iters_instances():
    instances, radii = [], []
    for seed in range(3):
        x0, A, y = _instance(400 + seed, n=40, s=6)
        instances.append((A, y))
        radii.append(float(np.abs(x0).sum()))
    G, b = _stack_problems(instances, 1.0)
    return G, b, radii, inverse_lipschitz_step(G)


def test_pgd_rows_reports_max_iters():
    G, b, radii, eta = _max_iters_instances()
    with pytest.raises(ValueError):
        pgd_rows(G.copy(), b, radii, project_l1_rows, eta, max_iters=0)
    X, iters, conv = pgd_rows(G.copy(), b, radii, project_l1_rows, eta, max_iters=4)
    np.testing.assert_array_equal(iters, [4, 4, 4])
    assert not conv.any()
    for g, b_i, r, e, x in zip(G, b, radii, eta, X):
        np.testing.assert_allclose(x, _fista_restart(g, b_i, r, e, 4)[0], rtol=1e-12, atol=1e-14)


def test_pgd_rows_restarts_like_fista_with_restart():
    # 12 iterations on the same problems take every row through two restarts
    G, b, radii, eta = _max_iters_instances()
    X, iters, _ = pgd_rows(G.copy(), b, radii, project_l1_rows, eta, max_iters=12)
    np.testing.assert_array_equal(iters, [12, 12, 12])
    for g, b_i, r, e, x in zip(G, b, radii, eta, X):
        ref, restarts = _fista_restart(g, b_i, r, e, 12)
        assert restarts == 2
        np.testing.assert_allclose(x, ref, rtol=1e-12, atol=1e-14)


def test_glasso_matches_normal_equations():
    # unconstrained minimizer is the least-squares solution of A x = mu y
    for seed in range(20):
        x0, A, y = _instance(100 + seed)
        res = glasso_solve(A, y, 1.0, _whole_space, 1.0)
        x_ls, *_ = np.linalg.lstsq(A, y, rcond=None)
        rel = np.linalg.norm(res.x_hat - x_ls) / np.linalg.norm(x_ls)
        assert rel <= 1e-6


def test_inactive_constraint_matches_unconstrained():
    x0, A, y = _instance(6)
    free = glasso_solve(A, y, 1.0, _whole_space, 1.0)
    big = 10.0 * float(np.abs(free.x_hat).sum())
    ball = glasso_solve(A, y, 1.0, project_l1_rows, big)
    assert np.linalg.norm(free.x_hat - ball.x_hat) <= 1e-6 * np.linalg.norm(free.x_hat)


def test_objective_trace_monotone():
    x0, A, y = _instance(8)
    res = glasso_solve(A, y, 1.0, *_l1(x0))
    diffs = np.diff(res.objective_trace)
    assert np.all(diffs <= 1e-12)
    assert res.converged


def test_fixed_point_optimality():
    x0, A, y = _instance(9)
    project, r = _l1(x0)
    res = glasso_solve(A, y, 1.0, project, r)
    G, b = gram_stats(A, y, 1.0)
    moved = project_l1_ball(res.x_hat - float(inverse_lipschitz_step(G)) * (G @ res.x_hat - b), r)
    assert np.linalg.norm(moved - res.x_hat) <= 1e-6 * (1 + np.linalg.norm(res.x_hat))


def test_pbp_formula_direct():
    x0, A, y = _instance(11)
    project, r = _l1(x0)
    m = A.shape[0]
    direct = project_l1_ball((2.5 / m) * (A.T @ y), r)
    np.testing.assert_array_equal(pbp_estimate(A, y, project, r, 2.5), direct)


def test_dm_equals_pbp():
    x0, A, y = _instance(12)
    K = _l1(x0)
    np.testing.assert_array_equal(
        dm_estimate(A, y, *K, 3.0), pbp_estimate(A, y, *K, 3.0)
    )
    with pytest.raises(ValueError):
        dm_estimate(A, y, *K, 0.0)


def test_glasso_beats_pbp_typical():
    x0, A, y = _instance(13, m=1000, n=100, s=25, delta=3.0)
    K = _l1(x0)
    res = glasso_solve(A, y, 1.0, *K)
    err_g = np.linalg.norm(res.x_hat - x0)
    err_p = np.linalg.norm(pbp_estimate(A, y, *K, 1.0) - x0)
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
    res = glasso_solve(A, y, 1.0, *_l1(x0))
    assert np.linalg.norm(res.x_hat - x0) < 1e-3


def test_glasso_solve_max_iters():
    x0, A, y = _instance(3)
    with pytest.raises(ValueError):
        glasso_solve(A, y, 1.0, _whole_space, 1.0, max_iters=0)
    res = glasso_solve(A, y, 1.0, *_l1(x0), max_iters=3)
    assert res.iterations == 3 and not res.converged and len(res.objective_trace) == 4
