"""Solvers for the constrained quantized least-squares program.

The objective is L(x) = (1/2m) sum_i (mu * y_i - a_i^T x)^2 minimized over a
set K given by its row projection (see geometry), so every solver takes
(project, radius).

A problem is its Gram statistics (G, b) = gram_stats(A, y, mu): up to a
constant L(x) = 0.5 x^T G x - b^T x, so an iteration's cost does not grow with m.

glasso_solve is the single-problem reference: fixed-step projected gradient
descent (PGD) x+ = P_K(x - eta * grad L(x)) from x = 0, with the step
eta = 1 / (1.01 lambda_max(G)) from its own dense eigensolve of G.
It stops once its gradient mapping (x - x+) / eta is at most
GMAP_TOL ||grad L(0)|| = GMAP_TOL ||b||.

pgd_rows, which computes every curve, solves a stack of problems at once by
FISTA with backtracking (Beck & Teboulle 2009, section 4) and per-row gradient
restart (O'Donoghue & Candes 2015). No step is computed in advance: each row
keeps a curvature estimate L, starting from the Rayleigh quotient
L0 = b^T G b / b^T b <= lambda_max(G), and steps x+ = P_K(y - grad L(y) / L)
from its extrapolated point y. The step is accepted only if it passes the
quadratic's descent test (x+ - y)^T G (x+ - y) <= L ||x+ - y||^2, to a
relative slack DESCENT_SLACK of four ulps, so that rounding cannot fail a
step that ties the test exactly (a first step whose projection is inactive
does, L0 being the Rayleigh quotient along b); a row that fails raises L by
BACKTRACK and redoes its step. So L never falls, and it rises only while it
is below lambda_max(G). A row drops its momentum whenever its step runs
against the gradient mapping L (y - x+), and stops once that mapping, with
the accepted L, is at most GMAP_TOL ||b||. Where lambda_min(G) > 0, that stop
bounds the distance to the minimizer:
||y - x*|| <= 2 L ||y - x+|| / lambda_min(G) (for PGD, with y = x and L = 1 / eta).
Both solvers also stop after max_iters iterations (MAX_ITERS by default).

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
    """Gram statistics (G, b) = (A^T A / m, (mu / m) A^T y) of the problem (A, y, mu), in float64."""
    A = np.asarray(A, dtype=float)  # a float32 +-1 draw is widened exactly
    m = A.shape[0]
    return A.T @ A / m, (mu / m) * (A.T @ y)


# The fixed step is 1 / (LIPSCHITZ_MARGIN * lambda_max(G)), lambda_max from a
# dense symmetric eigensolve. Up to rounding the step is then below
# 1 / lambda_max by the margin, which makes every fixed-step PGD iteration a
# descent step.
LIPSCHITZ_MARGIN = 1.01


def estimate_lipschitz(A) -> float:
    """LIPSCHITZ_MARGIN * lambda_max(A^T A / m), the Lipschitz constant of grad L inflated 1% for safety."""
    A = np.asarray(A, dtype=float)
    if A.size == 0:
        raise ValueError("A must be nonempty")
    return LIPSCHITZ_MARGIN * float(np.linalg.eigvalsh(A.T @ A / A.shape[0])[-1])


# Both solvers stop once the gradient mapping is at most GMAP_TOL ||b||, where
# ||b|| = ||grad L(0)||, or after max_iters iterations.
GMAP_TOL = 1e-8
MAX_ITERS = 10000

# pgd_rows: the factor by which a row raises its curvature estimate L when a
# step fails the descent test, and the relative slack of that test, so that a
# step which ties it in exact arithmetic passes whatever the rounding.
BACKTRACK = 1.25
DESCENT_SLACK = 1.0 + 4.0 * np.finfo(float).eps


def glasso_solve(A, y, mu: float, project, radius, *, max_iters: int = MAX_ITERS) -> SolverResult:
    """Minimize the quantized least-squares objective over K by fixed-step PGD from x = 0.

    K is the set the row projection `project` maps onto with `radius`. This is
    the single-problem reference for pgd_rows: plain PGD with the fixed step
    eta = 1 / (LIPSCHITZ_MARGIN * lambda_max(G)) from a dense eigensolve of G
    (1 where that product is 0) and the same stop on the gradient mapping,
    returning x+ once ||x - x+|| / eta <= GMAP_TOL ||b||, with
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

    lipschitz = LIPSCHITZ_MARGIN * float(np.linalg.eigvalsh(G)[-1])
    eta = 1.0 / lipschitz if lipschitz > 0 else 1.0
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


def pgd_rows(G, b, radii, project, *, max_iters: int = MAX_ITERS):
    """FISTA with backtracking and gradient restart from x = 0 on a stack of k problems, one per row.

    Row i minimizes 0.5 x^T G[i] x - b[i]^T x over the set project(., radii[i])
    maps onto; with (G[i], b[i]) = gram_stats(A, y, mu) this is the problem
    glasso_solve solves, whose objective differs by a constant. `project` maps
    a (j, n) stack and j radii to the projected stack.

    Each row starts from X = Y = 0, t = 1 and L = b^T G b / b^T b (1 where
    b = 0 or b^T G b <= 0), and forms X+ = project(Y - (G Y - b) / L). The
    step is accepted if <Y - X+, G Y - G X+> <= L ||Y - X+||^2 DESCENT_SLACK
    (1 + 4 eps, so a tie in exact arithmetic passes); rows that fail
    set L *= BACKTRACK and redo the step, by themselves, until every row
    passes. Then a row restarts (t = 1, Y = X+) when <Y - X+, X+ - X> > 0,
    that is when the step X+ - X runs against the gradient mapping; otherwise
    it moves to
    Y = X+ + ((t - 1) / t+) (X+ - X) with t+ = (1 + sqrt(1 + 4 t^2)) / 2.
    G Y comes from G X+ and G X, so an attempt costs one matrix-vector product
    per row. A row stops, returning X+, once L ||Y - X+|| <= GMAP_TOL ||b||
    with its accepted L; a row with b = 0 stops at iteration 1. Each row's
    result depends on its own (G, b, radius) alone. A non-finite iterate or
    product raises RuntimeError.

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
    bb = np.einsum("ij,ij->i", b, b)
    bGb = np.einsum("ij,ij->i", b, np.matmul(G[:k], b[:, :, None])[:, :, 0])
    L = np.ones(k)
    curved = bGb > 0  # so b != 0
    L[curved] = bGb[curved] / bb[curved]
    tol2 = GMAP_TOL**2 * bb  # squared stopping bound on L ||Y - X+||
    rows = np.arange(k)
    X_out = np.zeros((k, n))
    iterations = np.full(k, max_iters)
    converged = np.zeros(k, dtype=bool)
    X = GX = Y = GY = np.zeros((k, n))
    t = np.ones(k)
    for it in range(1, max_iters + 1):
        X_new = project(Y - (GY - b) / L[:, None], radii)
        GX_new = np.matmul(G[:k], X_new[:, :, None])[:, :, 0]
        while True:
            if not (np.isfinite(X_new).all() and np.isfinite(GX_new).all()):
                raise RuntimeError("iterate diverged to a non-finite value")
            gmap = Y - X_new
            gmap2 = np.einsum("ij,ij->i", gmap, gmap)
            fail = np.flatnonzero(np.einsum("ij,ij->i", gmap, GY - GX_new) > L * gmap2 * DESCENT_SLACK)
            if not fail.size:
                break
            # only the failing rows redo the step; G[i] is read in place, as G[fail] would copy it
            L[fail] *= BACKTRACK
            X_new[fail] = project(Y[fail] - (GY[fail] - b[fail]) / L[fail, None], radii[fail])
            for i in fail:
                np.matmul(G[i], X_new[i], out=GX_new[i])
        step = X_new - X
        stop = L * L * gmap2 <= tol2
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
            X, GX, Y, GY, t, L, b, tol2, radii, rows = (
                a[keep] for a in (X, GX, Y, GY, t, L, b, tol2, radii, rows)
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
