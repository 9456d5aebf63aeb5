import numpy as np
import pytest

from qlasso import (
    LowRank,
    SignalSpec,
    Sparse,
    UniformQuantizer,
    dm_estimate,
    estimate_lipschitz,
    gen_signal,
    glasso_solve,
    gram_stats,
    measure,
    pbp_estimate,
    pgd_rows,
    project_l1_ball,
    project_l1_rows,
    project_nuclear_rows,
    sample_measurements,
    substream,
)
from qlasso.solver import BACKTRACK, DESCENT_SLACK, GMAP_TOL, LIPSCHITZ_MARGIN, MAX_ITERS


def _instance(seed, m=300, n=50, s=10, delta=1.0):
    rng_sig = substream(seed, "sig")
    rng_mat = substream(seed, "mat")
    rng_dith = substream(seed, "dith")
    x0 = gen_signal(SignalSpec(n, Sparse(s), 3.0), rng_sig)
    A = sample_measurements("gaussian", m, n, rng_mat)
    y = measure(A @ x0, UniformQuantizer(delta), rng_dith)
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
    assert 1 / (LIPSCHITZ_MARGIN * np.linalg.eigvalsh(G)[..., -1]) * lam_max <= bound
    assert estimate_lipschitz(A) >= 1.01 * lam_max * (1.0 - 1e-12)


def test_glasso_step_of_a_zero_gram_is_one():
    # A = 0 makes G = 0 and b = 0: the step is 1, not 1 / 0, so x stays at 0 and the solve stops at once
    res = glasso_solve(np.zeros((5, 4)), np.ones(5), 1.0, project_l1_rows, 1.0)
    assert res.converged and res.iterations == 1
    assert not res.x_hat.any()


def _fista_restart(G, b, radius, iters):
    """FISTA with backtracking and gradient restart over an l1 ball, for at most `iters` iterations.

    The curvature estimate starts at b^T G b / b^T b and rises by BACKTRACK
    until (x+ - y)^T G (x+ - y) <= L ||x+ - y||^2 DESCENT_SLACK. The run stops after the
    iteration with L ||y - x+|| <= GMAP_TOL ||b||. Returns the last iterate,
    the number of iterations, restarts and backtracks, and the last accepted L.
    """
    x = y = np.zeros(len(b))
    L = float(b @ G @ b / (b @ b))
    t, restarts, backtracks = 1.0, 0, 0
    for it in range(1, iters + 1):
        while True:
            x_new = project_l1_ball(y - (G @ y - b) / L, radius)
            d = x_new - y
            if d @ G @ d <= L * (d @ d) * DESCENT_SLACK:
                break
            L *= BACKTRACK
            backtracks += 1
        stop = L * np.linalg.norm(d) <= GMAP_TOL * np.linalg.norm(b)
        if (y - x_new) @ (x_new - x) > 0:
            t, y = 1.0, x_new
            restarts += 1
        else:
            t_new = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
            y = x_new + ((t - 1.0) / t_new) * (x_new - x)
            t = t_new
        x = x_new
        if stop:
            break
    return x, it, restarts, backtracks, L


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
    X, _, conv = pgd_rows(G, b, radii, project_l1_rows)
    for (A, y), r, x, c in zip(instances, radii, X, conv):
        ref = glasso_solve(A, y, 1.0, project_l1_rows, r)
        assert c and ref.converged
        assert np.linalg.norm(x - ref.x_hat) <= 1e-6 * np.linalg.norm(ref.x_hat)


def test_pgd_rows_matches_glasso_solve_nuclear():
    d = 5
    instances, radii = [], []
    for seed in range(4):
        rng = substream(300 + seed, "lr")
        x0 = gen_signal(SignalSpec(d * d, LowRank(d, 1), 2.0), rng)
        A = sample_measurements("gaussian", 200, d * d, rng)
        y = measure(A @ x0, UniformQuantizer(0.5), rng)
        instances.append((A, y))
        radii.append(float(np.linalg.svd(x0.reshape(d, d), compute_uv=False).sum()))
    G, b = _stack_problems(instances, 1.0)
    X, _, conv = pgd_rows(G, b, radii, project_nuclear_rows)
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
        instances.append((A, measure(A @ x0, UniformQuantizer(3.0), substream(seed, m, t, "dither"))))
        radii.append(float(np.abs(x0).sum()))
    G, b = _stack_problems(instances, 1.0)
    eta = 1 / (LIPSCHITZ_MARGIN * np.linalg.eigvalsh(G)[..., -1])
    ref = np.zeros_like(b)
    for _ in range(2000):
        ref = project_l1_rows(ref - eta[:, None] * (np.matmul(G, ref[:, :, None])[:, :, 0] - b), radii)
    single = [glasso_solve(A, y, 1.0, project_l1_rows, r) for (A, y), r in zip(instances, radii)]
    assert all(res.converged for res in single)
    X, _, conv = pgd_rows(G, b, radii, project_l1_rows)
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
    return G, b, radii


def test_pgd_rows_reports_max_iters():
    G, b, radii = _max_iters_instances()
    with pytest.raises(ValueError):
        pgd_rows(G.copy(), b, radii, project_l1_rows, max_iters=0)
    X, iters, conv = pgd_rows(G.copy(), b, radii, project_l1_rows, max_iters=4)
    np.testing.assert_array_equal(iters, [4, 4, 4])
    assert not conv.any()
    for g, b_i, r, x in zip(G, b, radii, X):
        np.testing.assert_allclose(x, _fista_restart(g, b_i, r, 4)[0], rtol=1e-12, atol=1e-14)


def test_pgd_rows_restarts_like_fista_with_restart():
    # 12 iterations on the same problems take every row through two restarts
    # and at least one backtrack
    G, b, radii = _max_iters_instances()
    X, iters, _ = pgd_rows(G.copy(), b, radii, project_l1_rows, max_iters=12)
    np.testing.assert_array_equal(iters, [12, 12, 12])
    for g, b_i, r, x in zip(G, b, radii, X):
        ref, _, restarts, backtracks, _ = _fista_restart(g, b_i, r, 12)
        assert restarts == 2 and backtracks >= 1
        np.testing.assert_allclose(x, ref, rtol=1e-12, atol=1e-14)


def _bottom_eigenvector_problem(radius=2.0, lam_min=0.05, n=40):
    """(A, y, radius) with A^T A / m of spectrum geomspace(lam_min, 5) and b = (1/m) A^T y its bottom
    eigenvector: the start L0 = b^T G b / b^T b is lambda_min, far below lambda_max."""
    m = 300
    rng = substream(19, "wide-spectrum")
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    W, _ = np.linalg.qr(rng.standard_normal((m, n)))
    lam = np.geomspace(lam_min, 5.0, n)
    A = np.sqrt(m) * (W * np.sqrt(lam)) @ Q.T
    return A, A @ (Q[:, 0] / lam[0]), radius


@pytest.mark.parametrize("lam_min", [0.05, 0.01])
@pytest.mark.parametrize("radius", [0.5, 2.0, 5.0])
def test_pgd_rows_backtracks_from_the_bottom_eigenvector(radius, lam_min):
    A, y, r = _bottom_eigenvector_problem(radius, lam_min)
    G, b = gram_stats(A, y, 1.0)
    assert b @ G @ b / (b @ b) == pytest.approx(lam_min, rel=1e-9)
    X, iters, conv = pgd_rows(G[None].copy(), b[None], [r], project_l1_rows)
    assert conv[0]
    x, ref_iters, _, backtracks, _ = _fista_restart(G, b, r, MAX_ITERS)
    assert backtracks >= 1 and ref_iters == iters[0]
    np.testing.assert_allclose(X[0], x, rtol=1e-10, atol=1e-12)
    ref = glasso_solve(A, y, 1.0, project_l1_rows, r)
    assert ref.converged
    assert np.linalg.norm(X[0] - ref.x_hat) <= 1e-6 * np.linalg.norm(ref.x_hat)


def _mixed_stack(n=36):
    """Gram statistics and radii: Gaussian 6-sparse problems at several m, the bottom-eigenvector
    problem, a row with b = 0 and a row with a zero Gram matrix (so b = 0 too)."""
    instances, radii = [], []
    for seed in range(5):
        x0, A, y = _instance(500 + seed, m=60 + 90 * seed, n=n, s=6)
        instances.append((A, y))
        radii.append(float(np.abs(x0).sum()))
    A, y, r = _bottom_eigenvector_problem(n=n)
    instances.append((A, y))
    radii.append(r)
    G, b = _stack_problems(instances, 1.0)
    G = np.concatenate([G, G[:1], np.zeros((1, n, n))])
    b = np.concatenate([b, np.zeros((2, n))])
    return G, b, np.array(radii + [1.0, 1.0])


ROW_PROJECTIONS = {"l1": project_l1_rows, "nuclear": project_nuclear_rows}  # n = 36 is a 6 x 6 matrix


def test_backtracking_step_rows_are_independent():
    # each row's steps, and so its iterates, depend on its own (G, b, radius) alone: solved alone
    # or in the reversed stack, every row of the mixed stack comes out bitwise the same
    G, b, radii = _mixed_stack()
    for project in ROW_PROJECTIONS.values():
        X, iters, conv = pgd_rows(G.copy(), b, radii, project)
        assert conv.all()
        for i in range(len(b)):
            X_i, iters_i, _ = pgd_rows(G[i:i + 1].copy(), b[i:i + 1], radii[i:i + 1], project)
            assert X_i.tobytes() == X[i].tobytes() and iters_i[0] == iters[i]
        X_rev, iters_rev, _ = pgd_rows(G[::-1].copy(), b[::-1], radii[::-1], project)
        assert X_rev[::-1].tobytes() == X.tobytes()
        np.testing.assert_array_equal(iters_rev[::-1], iters)


@pytest.mark.parametrize("ball", sorted(ROW_PROJECTIONS))
def test_pgd_rows_stops_at_once_where_b_is_zero(ball):
    # the last two rows of the mixed stack: b = 0 with a Gram matrix, and a zero Gram matrix
    G, b, radii = _mixed_stack()
    X, iters, conv = pgd_rows(G.copy(), b, radii, ROW_PROJECTIONS[ball])
    np.testing.assert_array_equal(iters[-2:], [1, 1])
    assert conv[-2:].all() and not X[-2:].any()
    assert np.all(iters[:-2] > 1)


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
    """A Gram matrix whose top eigenvector (eigenvalue 1.002, the next 1) is orthogonal to 1 / sqrt(n)."""
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


def _step_problems(case, noise=0.1):
    """The Gram matrices G of STEP_CASES[case], each with its own 5-sparse x0, the radius 0.8 ||x0||_1
    and b = G x0 plus Gaussian noise of `noise` times the rms entry of G x0 (so b leaves the range of
    a rank-one G)."""
    G = STEP_CASES[case]()
    k, n = G.shape[:2]
    X0, B = np.empty((k, n)), np.empty((k, n))
    for i in range(k):
        rng = substream(20, "step-problem", case, i)
        X0[i] = gen_signal(SignalSpec(n, Sparse(5), 3.0), rng)
        B[i] = G[i] @ X0[i]
        B[i] += noise * np.linalg.norm(B[i]) / np.sqrt(n) * rng.standard_normal(n)
    return G, B, 0.8 * np.abs(X0).sum(axis=1)


def _solve_alone(G, b, radius):
    """pgd_rows on the one problem (G, b, radius), with a fresh copy of G. Returns the row's x,
    iterations and convergence, and the inputs of its projections: one per iteration and one more
    per backtrack, the first being b / L0."""
    inputs = []

    def project(V, radii):
        inputs.append(V[0].copy())
        return project_l1_rows(V, radii)

    X, iters, conv = pgd_rows(G[None].copy(), b[None], [radius], project)
    return X[0], iters[0], conv[0], inputs


@pytest.mark.parametrize("case", sorted(STEP_CASES))
def test_backtracking_step_is_safe_and_tight(case):
    # every accepted step passes the descent test, so each row converges: at the x it returns, the
    # gradient mapping of the dense step 1 / (1.01 lambda_max) is at the level of the stop. L starts at
    # a Rayleigh quotient, at most lambda_max, and rises only while below it, so the final
    # L = L0 BACKTRACK^backtracks is at most BACKTRACK lambda_max: the step never falls more than a
    # factor BACKTRACK below 1 / lambda_max
    G, b, radii = _step_problems(case)
    lam_max = np.linalg.eigvalsh(G)[:, -1]
    for g, b_i, r, lam, eta in zip(G, b, radii, lam_max, 1 / (LIPSCHITZ_MARGIN * lam_max)):
        x, iters, conv, inputs = _solve_alone(g, b_i, r)
        assert conv
        gmap = np.linalg.norm(x - project_l1_ball(x - eta * (g @ x - b_i), r)) / eta
        assert gmap <= 4 * GMAP_TOL * np.linalg.norm(b_i)
        L0 = b_i @ b_i / (b_i @ inputs[0])
        assert L0 == pytest.approx(b_i @ g @ b_i / (b_i @ b_i), rel=1e-12)
        assert L0 <= lam * (1.0 + 1e-12)
        assert L0 * BACKTRACK ** (len(inputs) - iters) <= BACKTRACK * lam * (1.0 + 1e-12)


# Every step on c I, and a step along u on u u^T, ties the descent test at L = lambda_max in exact
# arithmetic; the test's slack DESCENT_SLACK lets such a step pass whatever the rounding.
TIED_CASES = ("scaled identity", "rank one")


@pytest.mark.parametrize("case", sorted(STEP_CASES))
def test_backtracking_row_equals_its_solve_on_a_fresh_matrix(case):
    # pgd_rows compacts G in place; every row of the stack ends bitwise where its own solve on a fresh
    # copy of its Gram matrix ends, which backtracks exactly where the reference's descent test fails,
    # ties included
    G, b, radii = _step_problems(case)
    X, iters, conv = pgd_rows(G.copy(), b, radii, project_l1_rows)
    assert conv.all()
    for g, b_i, r, x, it in zip(G, b, radii, X, iters):
        x_alone, it_alone, _, inputs = _solve_alone(g, b_i, r)
        assert x_alone.tobytes() == x.tobytes() and it_alone == it
        ref, ref_iters, _, backtracks, _ = _fista_restart(g, b_i, r, MAX_ITERS)
        assert ref_iters == it and backtracks == len(inputs) - it
        np.testing.assert_allclose(x, ref, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("case", TIED_CASES)
def test_backtracking_step_holds_in_the_top_eigenspace(case):
    # with b = G x0 in the top eigenspace (c I has one eigenvalue; G x0 is along u for u u^T),
    # L0 = b^T G b / b^T b is lambda_max and the first step is 1 / lambda_max. Every later step ties the
    # descent test at L = lambda_max in exact arithmetic, which the slack passes: no step backtracks
    G, b, radii = _step_problems(case, noise=0.0)
    lam_max = np.linalg.eigvalsh(G)[:, -1]
    for g, b_i, r, lam in zip(G, b, radii, lam_max):
        x, iters, conv, inputs = _solve_alone(g, b_i, r)
        np.testing.assert_allclose(inputs[0], b_i / lam, rtol=1e-13)
        assert conv and len(inputs) == iters
        eta = 1 / (LIPSCHITZ_MARGIN * np.linalg.eigvalsh(g)[..., -1])
        gmap = np.linalg.norm(x - project_l1_ball(x - eta * (g @ x - b_i), r)) / eta
        assert gmap <= 4 * GMAP_TOL * np.linalg.norm(b_i)


def test_backtracking_step_of_a_zero_gram_is_one():
    # b^T G b = 0 gives L = 1, which passes every descent test on a zero G: the first iterate is
    # project(b), and the row ends at the vertex r sign(b_j) e_j of the largest |b_j|, minimizing -b^T x
    b = substream(21, "zero-gram").standard_normal((2, 7))
    radii = np.array([0.5, 3.0])
    X1, _, _ = pgd_rows(np.zeros((2, 7, 7)), b, radii, project_l1_rows, max_iters=1)
    assert X1.tobytes() == project_l1_rows(b, radii).tobytes()
    for b_i, r in zip(b, radii):
        x, iters, conv, inputs = _solve_alone(np.zeros((7, 7)), b_i, r)
        assert conv and len(inputs) == iters
        j = np.argmax(np.abs(b_i))
        np.testing.assert_allclose(x, r * np.sign(b_i[j]) * np.eye(7)[j], atol=1e-12)


def test_backtracking_step_backtracks_per_matrix():
    # the bottom-eigenvector row must backtrack; it raises its own L only: after three iterations
    # every row of the stack, including rows that have not backtracked, is where the reference puts it
    n = 100
    G, b, radii = _step_problems("rademacher m=200 n=100")
    A, y, r = _bottom_eigenvector_problem(n=n)
    G_bottom, b_bottom = gram_stats(A, y, 1.0)
    x0 = gen_signal(SignalSpec(n, Sparse(5), 3.0), substream(22, "identity-x0"))
    G = np.concatenate([G[:3], G_bottom[None], 2.5 * np.eye(n)[None], G[3:5]])
    b = np.concatenate([b[:3], b_bottom[None], 2.5 * x0[None], b[3:5]])
    radii = np.concatenate([radii[:3], [r, 0.8 * np.abs(x0).sum()], radii[3:5]])
    X, iters, _ = pgd_rows(G.copy(), b, radii, project_l1_rows, max_iters=3)
    backtracks = []
    for g, b_i, r_i, x, it in zip(G, b, radii, X, iters):
        ref, ref_iters, _, bt, _ = _fista_restart(g, b_i, r_i, 3)
        assert ref_iters == it
        np.testing.assert_allclose(x, ref, rtol=1e-12, atol=1e-14)
        backtracks.append(bt)
    assert backtracks[3] >= 1 and backtracks[4] == 0


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
    eta = 1 / (LIPSCHITZ_MARGIN * np.linalg.eigvalsh(G)[..., -1])
    moved = project_l1_ball(res.x_hat - eta * (G @ res.x_hat - b), r)
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
    x0 = gen_signal(SignalSpec(100, Sparse(10), 3.0), rng_sig)
    A = sample_measurements("gaussian", 500, 100, rng_mat)
    delta = 1e-6
    y = measure(A @ x0, UniformQuantizer(delta), rng_dith)
    res = glasso_solve(A, y, 1.0, *_l1(x0))
    assert np.linalg.norm(res.x_hat - x0) < 1e-3


def test_glasso_solve_max_iters():
    x0, A, y = _instance(3)
    with pytest.raises(ValueError):
        glasso_solve(A, y, 1.0, _whole_space, 1.0, max_iters=0)
    res = glasso_solve(A, y, 1.0, *_l1(x0), max_iters=3)
    assert res.iterations == 3 and not res.converged and len(res.objective_trace) == 4
