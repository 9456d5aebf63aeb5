"""Solvers for the constrained quantized least-squares program.

The objective is L(x) = (1/2m) sum_i (mu * y_i - a_i^T x)^2 minimized over a
constraint set K, with the fixed step eta = 1 / (1.01 lambda_max(A^T A / m)).
Internally the quadratic is evaluated through the precomputed Gram matrix
A^T A / m, so the per-iteration cost does not grow with m.

glasso_solve is the single-problem reference: fixed-step projected gradient
descent (PGD) x+ = P_K(x - eta * grad L(x)) from x = 0, stopped when the
objective's relative decrease falls below rel_tol. pgd_rows, which computes
every curve, solves a stack of problems at once by FISTA (Beck & Teboulle
2009) with per-row gradient restart (O'Donoghue & Candes 2015): a row drops
its momentum whenever its last step runs against the gradient mapping
(y - x+) / eta at its extrapolated point y. A row stops once that mapping is
at most GMAP_TOL ||grad L(0)||; where L is strongly convex this bounds the
distance to the minimizer. L is quadratic, so a stop on its relative decrease
at rel_tol leaves the iterate about sqrt(rel_tol) from the minimizer: up to
6.3e-6 (relative) with the default rel_tol on the uniform sparse trials at
m = 200 that tests/test_solver.py pins.

Also houses the one-shot baselines: projected back projection (PBP) and the
regularized correlation maximizer, which coincide as P_K of the same point.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import ConstraintSet


@dataclass(frozen=True)
class GLassoProblem:
    A: np.ndarray
    y: np.ndarray
    mu: float
    K: ConstraintSet

    def __post_init__(self):
        object.__setattr__(self, "A", np.asarray(self.A, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        if self.A.ndim != 2:
            raise ValueError("measurement matrix must be 2-d")
        if not np.all(np.isfinite(self.A)):
            raise ValueError("measurement matrix has non-finite entries")
        if self.A.shape[0] != self.y.shape[0]:
            raise ValueError("rows(A) must equal length(y)")
        if not np.isfinite(self.mu):
            raise ValueError("mu must be finite")


@dataclass(frozen=True)
class SolverOptions:
    max_iters: int = 10000
    rel_tol: float = 1e-10

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not (self.rel_tol > 0):
            raise ValueError("rel_tol must be positive")


@dataclass
class SolverResult:
    x_hat: np.ndarray
    objective_trace: np.ndarray
    iterations: int
    converged: bool
    step_size: float


def objective(p: GLassoProblem, x: np.ndarray) -> float:
    """L(x) = (1/2m) sum_i (mu * y_i - a_i^T x)^2."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] != p.A.shape[1]:
        raise ValueError("dimension mismatch between x and A")
    r = p.mu * p.y - p.A @ x
    return float(r @ r) / (2.0 * p.A.shape[0])


def gradient(p: GLassoProblem, x: np.ndarray) -> np.ndarray:
    """grad L(x) = (1/m) A^T (A x - mu * y)."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] != p.A.shape[1]:
        raise ValueError("dimension mismatch between x and A")
    return p.A.T @ (p.A @ x - p.mu * p.y) / p.A.shape[0]


# The fixed step is 1 / (LIPSCHITZ_MARGIN * lambda_max(G)). lambda_max comes
# from a dense symmetric eigensolve, so the step is below 1 / lambda_max by the
# margin up to rounding, which makes every fixed-step PGD iteration a descent step.
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


def estimate_lipschitz(A) -> float:
    """Lipschitz constant lambda_max(A^T A) / m of grad L, inflated 1% as a safety factor."""
    A = np.asarray(A, dtype=float)
    if A.size == 0:
        raise ValueError("A must be nonempty")
    return float(_lipschitz(A.T @ A / A.shape[0]))


def glasso_solve(p: GLassoProblem, opts: SolverOptions = SolverOptions()) -> SolverResult:
    """Minimize the quantized least-squares objective over K by fixed-step PGD from x = 0.

    This is the single-problem reference for pgd_rows: plain PGD with the
    same step, stopped when the objective's relative decrease is below
    opts.rel_tol, with the whole objective trace kept.
    """
    A, y = p.A, p.y
    m, n = A.shape
    G = A.T @ A / m
    b = (p.mu / m) * (A.T @ y)
    const = (p.mu**2 / m) * float(y @ y)

    def f(x, Gx):
        return 0.5 * float(x @ Gx) - float(b @ x) + 0.5 * const

    eta = float(inverse_lipschitz_step(G))
    x = np.zeros(n)
    Gx = np.zeros(n)
    trace = [f(x, Gx)]
    converged = False
    iterations = 0
    for k in range(opts.max_iters):
        x_new = p.K.project(x - eta * (Gx - b))
        Gx_new = G @ x_new
        f_new = f(x_new, Gx_new)
        if not np.isfinite(f_new):
            raise RuntimeError("objective diverged to a non-finite value")
        f_prev = trace[-1]
        trace.append(f_new)
        x, Gx = x_new, Gx_new
        iterations = k + 1
        denom = max(abs(f_prev), np.finfo(float).tiny)
        if (f_prev - f_new) / denom < opts.rel_tol and f_new <= f_prev:
            converged = True
            break
    return SolverResult(
        x_hat=x,
        objective_trace=np.asarray(trace),
        iterations=iterations,
        converged=converged,
        step_size=eta,
    )


# A row of pgd_rows stops once its gradient mapping (Y - X+) / eta is at most
# GMAP_TOL ||b||, where ||b|| = ||grad L(0)||.
GMAP_TOL = 1e-8


def pgd_rows(G, b, const, radii, project, eta, opts: SolverOptions = SolverOptions()):
    """FISTA with gradient restart from x = 0 on a stack of k problems, one per row.

    Row i minimizes 0.5 x^T G[i] x - b[i]^T x + 0.5 const[i] over the set
    project(., radii[i]) maps onto, with step eta[i]; this is the problem
    glasso_solve builds from (A, y, mu), with G = A^T A / m,
    b = (mu / m) A^T y and const = (mu^2 / m) y^T y. The constant term does
    not enter the iteration. `project` maps a (j, n) stack and j radii to the
    projected stack.

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
    a row that ran opts.max_iters iterations without stopping is not converged.
    """
    k, n = np.shape(b)
    b, radii = np.asarray(b, dtype=float), np.asarray(radii, dtype=float)
    eta = np.asarray(eta, dtype=float)[:, None]
    # squared stopping bound on ||Y - X+||
    tol2 = (GMAP_TOL * eta[:, 0]) ** 2 * np.einsum("ij,ij->i", b, b)
    rows = np.arange(k)
    X_out = np.zeros((k, n))
    iterations = np.full(k, opts.max_iters)
    converged = np.zeros(k, dtype=bool)
    X = GX = Y = GY = np.zeros((k, n))
    t = np.ones(k)
    for it in range(1, opts.max_iters + 1):
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


def pbp_estimate(A, y, K: ConstraintSet, mu: float) -> np.ndarray:
    """Projected back projection: P_K((mu/m) A^T y)."""
    A, y = np.asarray(A, dtype=float), np.asarray(y, dtype=float)
    if A.shape[0] != y.shape[0]:
        raise ValueError("rows(A) must equal length(y)")
    return K.project((mu / A.shape[0]) * (A.T @ y))


def dm_estimate(A, y, K: ConstraintSet, lam: float) -> np.ndarray:
    """Maximizer of (1/m) sum y_i a_i^T x - ||x||^2 / (2 lam) over K.

    Completing the square reduces the program to projecting (lam/m) A^T y
    onto K, so this is computed exactly as pbp_estimate with mu = lam.
    """
    if not (lam > 0):
        raise ValueError("lam must be positive")
    return pbp_estimate(A, y, K, lam)
