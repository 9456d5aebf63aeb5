"""Projected gradient descent for the constrained quantized least-squares program.

The objective is L(x) = (1/2m) sum_i (mu * y_i - a_i^T x)^2 minimized over a
constraint set K via x+ = P_K(x - eta * grad L(x)) from x = 0, with the fixed
step eta = 1 / (1.01 lambda_max(A^T A / m)). Internally the quadratic is
evaluated through the precomputed Gram matrix A^T A / m, so the
per-iteration cost does not grow with m. glasso_solve solves one problem;
pgd_rows runs the same iteration on a stack of problems at once.

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
    """Minimize the quantized least-squares objective over K from x = 0."""
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


def pgd_rows(G, b, const, radii, project, eta, opts: SolverOptions = SolverOptions()):
    """Fixed-step PGD from x = 0 on a stack of k problems, one per row.

    Row i minimizes 0.5 x^T G[i] x - b[i]^T x + 0.5 const[i] over the set
    project(., radii[i]) maps onto, with step eta[i]; this is the problem
    glasso_solve builds from (A, y, mu), with G = A^T A / m,
    b = (mu / m) A^T y and const = (mu^2 / m) y^T y. Every row keeps
    glasso_solve's stopping rule and finite-objective check. `project` maps
    a (j, n) stack and j radii to the projected stack.

    Rows that stop are compacted out, so later iterations cost only the rows
    still running. G (k, n, n) is compacted in place: its contents are
    unspecified on return. Returns (X, iterations, converged) by row.
    """
    k, n = np.shape(b)
    b, radii = np.asarray(b, dtype=float), np.asarray(radii, dtype=float)
    half_const = 0.5 * np.asarray(const, dtype=float)
    eta = np.asarray(eta, dtype=float)[:, None]
    rows = np.arange(k)
    X_out = np.zeros((k, n))
    iterations = np.full(k, opts.max_iters)
    converged = np.zeros(k, dtype=bool)
    X = np.zeros((k, n))
    GX = np.zeros((k, n))
    f = half_const
    tiny = np.finfo(float).tiny
    for it in range(1, opts.max_iters + 1):
        X = project(X - eta * (GX - b), radii)
        GX = np.matmul(G[:k], X[:, :, None])[:, :, 0]
        f_new = np.einsum("ij,ij->i", X, 0.5 * GX - b) + half_const
        if not np.isfinite(f_new).all():
            raise RuntimeError("objective diverged to a non-finite value")
        stop = ((f - f_new) / np.maximum(np.abs(f), tiny) < opts.rel_tol) & (f_new <= f)
        f = f_new
        if stop.any():
            X_out[rows[stop]] = X[stop]
            iterations[rows[stop]] = it
            converged[rows[stop]] = True
            keep = ~stop
            for dst, src in enumerate(np.flatnonzero(keep)):
                if dst != src:
                    G[dst] = G[src]
            X, GX, f, b, half_const, radii, eta, rows = (
                a[keep] for a in (X, GX, f, b, half_const, radii, eta, rows)
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
