"""Solvers for the constrained quantized least-squares program.

The objective is L(x) = (1/2m) sum_i (mu * y_i - a_i^T x)^2 minimized over a
set K given by its row projection (see geometry), so every solver takes
(project, radius); the fixed step is eta <= 1 / (1.01 lambda_max(A^T A / m)).
inverse_lipschitz_step gives it with equality from a dense eigensolve;
certified_step, which the curves use, gives it within a factor 1 + CERT_SLACK
from a Lanczos estimate of lambda_max that a Cholesky factorization certifies,
at about a third of the cost, and falls back to the eigensolve where the
certificate fails.

A problem is its Gram statistics (G, b) = gram_stats(A, y, mu): up to a
constant L(x) = 0.5 x^T G x - b^T x, so an iteration's cost does not grow with m.

glasso_solve is the single-problem reference: fixed-step projected gradient
descent (PGD) x+ = P_K(x - eta * grad L(x)) from x = 0. pgd_rows, which
computes every curve, solves a stack of problems at once by FISTA (Beck &
Teboulle 2009) with per-row gradient restart (O'Donoghue & Candes 2015): a row
drops its momentum whenever its last step runs against the gradient mapping
(y - x+) / eta at its extrapolated point y. Both stop on that mapping (at x for
PGD, which has no momentum) once it is at most GMAP_TOL ||grad L(0)||, or after
max_iters iterations (MAX_ITERS by default); where L is strongly convex the
stop bounds the distance to the minimizer.

Also houses the one-shot baselines: projected back projection (PBP) and the
regularized correlation maximizer, which coincide as P_K of the same point.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class SolverResult:
    x_hat: np.ndarray
    objective_trace: np.ndarray
    iterations: int
    converged: bool


def gram_stats(A, y, mu: float):
    """Gram statistics (G, b) = (A^T A / m, (mu / m) A^T y) of the problem (A, y, mu)."""
    m = A.shape[0]
    return A.T @ A / m, (mu / m) * (A.T @ y)


# The fixed step is 1 / (LIPSCHITZ_MARGIN * L) for an upper bound L on
# lambda_max(G): lambda_max itself from a dense symmetric eigensolve, or the
# certified bound of certified_step. Up to rounding the step is then below
# 1 / lambda_max by the margin, which makes every fixed-step PGD iteration a
# descent step.
LIPSCHITZ_MARGIN = 1.01


def _lipschitz(G: np.ndarray) -> np.ndarray:
    return LIPSCHITZ_MARGIN * np.linalg.eigvalsh(G)[..., -1]


def inverse_lipschitz_step(G: np.ndarray) -> np.ndarray:
    """Fixed PGD step 1 / (1.01 lambda_max(G)) for a Gram matrix or a (k, n, n) stack of them.

    A zero Gram matrix (every direction is flat) gets step 1.
    """
    lipschitz = _lipschitz(G)
    with np.errstate(divide="ignore"):
        return np.where(lipschitz > 0, 1.0 / lipschitz, 1.0)


# certified_step: Lanczos steps per matrix, and how far above the top Ritz value
# the upper bound it tries to certify lies.
LANCZOS_STEPS = 24
CERT_SLACK = 1e-3


def _top_ritz_value(G: np.ndarray) -> np.ndarray:
    """Top Ritz value theta <= lambda_max of each matrix of a (k, n, n) stack.

    min(LANCZOS_STEPS, n) Lanczos steps from q = 1 / sqrt(n), without
    reorthogonalization (Kuczynski & Wozniakowski 1992 bound how far theta can
    fall below lambda_max from a random start). A residual at the rounding
    level of its step's entries means the Krylov space is invariant: the row
    stops there (q = 0 from then on), which adds only zeros to its tridiagonal.
    """
    k, n, _ = G.shape
    steps = min(LANCZOS_STEPS, n)
    alpha, beta = np.zeros((steps, k)), np.zeros((steps, k))
    q_prev, q = np.zeros((k, n)), np.full((k, n), 1.0 / np.sqrt(n))
    Gq = np.empty((k, n, 1))
    w = Gq[:, :, 0]
    b = np.zeros(k)
    rounding = n * np.finfo(float).eps
    for j in range(steps):
        np.matmul(G, q[:, :, None], out=Gq)
        w -= b[:, None] * q_prev
        a = alpha[j] = np.einsum("ij,ij->i", q, w)
        if j + 1 == steps:
            break
        w -= a[:, None] * q
        floor = rounding * (np.abs(a) + b)
        b = np.sqrt(np.einsum("ij,ij->i", w, w))
        b[b <= floor] = 0.0
        beta[j] = b
        q_prev, q = q, w * np.divide(1.0, b, out=np.zeros(k), where=b > 0)[:, None]
    T = np.zeros((k, steps, steps))
    i = np.arange(steps)
    T[:, i, i] = alpha.T
    T[:, i[:-1], i[1:]] = T[:, i[1:], i[:-1]] = beta[:-1].T
    return np.linalg.eigvalsh(T)[:, -1]


def certified_step(G: np.ndarray) -> np.ndarray:
    """Safe PGD step for each matrix of a (k, n, n) stack of Gram matrices, without a dense eigensolve.

    The step is 1 / (1.01 U), U = (1 + CERT_SLACK) theta with theta the top
    Ritz value of LANCZOS_STEPS Lanczos steps from one fixed start, wherever a
    Cholesky factorization of U I - G exists: it proves U I - G positive
    definite, that is lambda_max < U (up to rounding of order n eps U). As
    theta <= lambda_max, that step is at most 1 / (1.01 lambda_max) and at
    least 1 / (1 + CERT_SLACK) times it. A matrix whose factorization fails, a
    zero Gram matrix among them, gets inverse_lipschitz_step, the dense
    eigensolve. Each matrix's step depends on that matrix alone.
    U I - G[i] is formed in G[i] itself, which is restored bitwise before the
    call returns.
    """
    k, n, _ = G.shape
    U = (1.0 + CERT_SLACK) * _top_ritz_value(G)
    with np.errstate(divide="ignore"):  # U = 0 fails the factorization below
        step = 1.0 / (LIPSCHITZ_MARGIN * U)
    # One matrix at a time: a stacked factorization's two (k, n, n) temporaries
    # are handed back to the OS and faulted in again on every call.
    for i in range(k):
        C = G[i]
        diagonal = C.flat[:: n + 1]  # a copy
        np.negative(C, out=C)  # exact, so negating again restores the off-diagonal entries
        C.flat[:: n + 1] = U[i] - diagonal
        try:
            np.linalg.cholesky(C)
            certified = True
        except np.linalg.LinAlgError:
            certified = False
        finally:
            np.negative(C, out=C)
            C.flat[:: n + 1] = diagonal
        if not certified:
            step[i] = inverse_lipschitz_step(C)
    return step


def estimate_lipschitz(A) -> float:
    """Lipschitz constant lambda_max(A^T A) / m of grad L, inflated 1% as a safety factor."""
    A = np.asarray(A, dtype=float)
    if A.size == 0:
        raise ValueError("A must be nonempty")
    return float(_lipschitz(A.T @ A / A.shape[0]))


# Both solvers stop once the gradient mapping is at most GMAP_TOL ||b||, where
# ||b|| = ||grad L(0)||, or after max_iters iterations.
GMAP_TOL = 1e-8
MAX_ITERS = 10000


def glasso_solve(A, y, mu: float, project, radius, *, max_iters: int = MAX_ITERS) -> SolverResult:
    """Minimize the quantized least-squares objective over K by fixed-step PGD from x = 0.

    K is the set the row projection `project` maps onto with `radius`. This is
    the single-problem reference for pgd_rows: plain PGD with the same step and
    the same stop, returning x+ once ||x - x+|| / eta <= GMAP_TOL ||b||, with
    the whole objective trace kept. A non-2-d or non-finite A, a y without one
    entry per row of A, a non-finite mu or max_iters < 1 raises ValueError.
    """
    A, y = np.asarray(A, dtype=float), np.asarray(y, dtype=float)
    if A.ndim != 2 or not np.all(np.isfinite(A)):
        raise ValueError("measurement matrix must be 2-d with finite entries")
    if A.shape[0] != y.shape[0]:
        raise ValueError("rows(A) must equal length(y)")
    if not np.isfinite(mu):
        raise ValueError("mu must be finite")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    m, n = A.shape
    G, b = gram_stats(A, y, mu)
    const = (mu**2 / m) * float(y @ y)

    def f(x, Gx):
        return 0.5 * float(x @ Gx) - float(b @ x) + 0.5 * const

    eta = float(inverse_lipschitz_step(G))
    tol = GMAP_TOL * eta * float(np.linalg.norm(b))
    x = np.zeros(n)
    Gx = np.zeros(n)
    trace = [f(x, Gx)]
    for iterations in range(1, max_iters + 1):
        x_new = project((x - eta * (Gx - b))[None], radius)[0]
        Gx = G @ x_new
        trace.append(f(x_new, Gx))
        if not np.isfinite(trace[-1]):
            raise RuntimeError("objective diverged to a non-finite value")
        converged = bool(np.linalg.norm(x - x_new) <= tol)
        x = x_new
        if converged:
            break
    return SolverResult(x_hat=x, objective_trace=np.asarray(trace), iterations=iterations, converged=converged)


def pgd_rows(G, b, radii, project, eta, *, max_iters: int = MAX_ITERS):
    """FISTA with gradient restart from x = 0 on a stack of k problems, one per row.

    Row i minimizes 0.5 x^T G[i] x - b[i]^T x over the set project(., radii[i])
    maps onto, with step eta[i]; with (G[i], b[i]) = gram_stats(A, y, mu) this
    is the problem glasso_solve solves, whose objective differs by a constant.
    `project` maps a (j, n) stack and j radii to the projected stack.

    From X = Y = 0 and t = 1 each row iterates X+ = project(Y - eta (G Y - b)).
    It restarts (t = 1, Y = X+) when <Y - X+, X+ - X> > 0, that is when the
    step X+ - X runs against the gradient mapping; otherwise it moves to
    Y = X+ + ((t - 1) / t+) (X+ - X) with t+ = (1 + sqrt(1 + 4 t^2)) / 2.
    G Y comes from G X+ and G X, so an iteration costs one matrix-vector
    product per row. A row stops, returning X+, once
    ||Y - X+|| / eta <= GMAP_TOL ||b||; a row with b = 0 stops at iteration 1.
    A non-finite iterate or product raises RuntimeError.

    Rows that stop are compacted out, so later iterations cost only the rows
    still running. G (k, n, n) is compacted in place: its contents are
    unspecified on return. Returns (X, iterations, converged) by row, where
    a row that ran max_iters iterations without stopping is not converged;
    max_iters < 1 raises ValueError.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    k, n = np.shape(b)
    b, radii = np.asarray(b, dtype=float), np.asarray(radii, dtype=float)
    eta = np.asarray(eta, dtype=float)[:, None]
    # squared stopping bound on ||Y - X+||
    tol2 = (GMAP_TOL * eta[:, 0]) ** 2 * np.einsum("ij,ij->i", b, b)
    rows = np.arange(k)
    X_out = np.zeros((k, n))
    iterations = np.full(k, max_iters)
    converged = np.zeros(k, dtype=bool)
    X = GX = Y = GY = np.zeros((k, n))
    t = np.ones(k)
    for it in range(1, max_iters + 1):
        X_new = project(Y - eta * (GY - b), radii)
        GX_new = np.matmul(G[:k], X_new[:, :, None])[:, :, 0]
        if not (np.isfinite(X_new).all() and np.isfinite(GX_new).all()):
            raise RuntimeError("iterate diverged to a non-finite value")
        gmap, step = Y - X_new, X_new - X
        stop = np.einsum("ij,ij->i", gmap, gmap) <= tol2
        restart = np.einsum("ij,ij->i", gmap, step) > 0
        t_new = 0.5 + np.sqrt(0.25 + t * t)
        beta = np.where(restart, 0.0, (t - 1.0) / t_new)
        t = np.where(restart, 1.0, t_new)
        Y = X_new + beta[:, None] * step
        GY = GX_new + beta[:, None] * (GX_new - GX)
        X, GX = X_new, GX_new
        if stop.any():
            X_out[rows[stop]] = X[stop]
            iterations[rows[stop]] = it
            converged[rows[stop]] = True
            keep = ~stop
            for dst, src in enumerate(np.flatnonzero(keep)):
                if dst != src:
                    G[dst] = G[src]
            X, GX, Y, GY, t, b, tol2, radii, eta, rows = (
                a[keep] for a in (X, GX, Y, GY, t, b, tol2, radii, eta, rows)
            )
            k = rows.size
            if k == 0:
                break
    X_out[rows] = X
    return X_out, iterations, converged


def pbp_estimate(A, y, project, radius, mu: float) -> np.ndarray:
    """Projected back projection: P_K((mu/m) A^T y), K the set `project` maps onto with `radius`."""
    A, y = np.asarray(A, dtype=float), np.asarray(y, dtype=float)
    if A.shape[0] != y.shape[0]:
        raise ValueError("rows(A) must equal length(y)")
    return project(((mu / A.shape[0]) * (A.T @ y))[None], radius)[0]


def dm_estimate(A, y, project, radius, lam: float) -> np.ndarray:
    """Maximizer of (1/m) sum y_i a_i^T x - ||x||^2 / (2 lam) over K.

    Completing the square reduces the program to projecting (lam/m) A^T y
    onto K, so this is computed exactly as pbp_estimate with mu = lam.
    """
    if not (lam > 0):
        raise ValueError("lam must be positive")
    return pbp_estimate(A, y, project, radius, lam)
