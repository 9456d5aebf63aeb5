"""Exact Euclidean projections onto norm balls.

A constraint set K is its row projection project(V, radii), which maps a
(k, n) stack of points and one radius per row (or one for all) to their
projections: project_l1_rows onto scaled l1 balls, project_nuclear_rows onto
nuclear-norm balls of vectorized d x d matrices, the row identity onto the
whole space. The l1 projection is the sort-based soft-threshold selection
(Duchi et al.) in O(n log n); the nuclear projection applies its threshold
to the singular values, which come sorted. A single point is projected as a
stack of one.
"""

import math

import numpy as np


def _check_radii(radii, rows: int) -> np.ndarray:
    radii = np.asarray(radii, dtype=float)
    if radii.ndim == 0:
        radii = np.full(rows, radii)
    if radii.shape != (rows,):
        raise ValueError(f"need one radius per row, got shape {radii.shape} for {rows} rows")
    if not (radii > 0).all():
        raise ValueError(f"radius must be positive, got {radii}")
    return radii


def project_l1_rows(V: np.ndarray, radii) -> np.ndarray:
    """Row-wise Euclidean projection of a (k, n) stack onto {x : ||x||_1 <= radii[i]}.

    `radii` is a scalar or one radius per row. Rows already inside their
    ball are returned unchanged.
    """
    V = np.asarray(V, dtype=float)
    radii = _check_radii(radii, V.shape[0])
    U = np.abs(V)
    return np.sign(V) * _shrink(U, np.sort(U, axis=1)[:, ::-1], radii)


def _shrink(U: np.ndarray, sorted_U: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """max(U - theta, 0): the nonnegative rows of U, which sorted_U holds in
    decreasing order, soft-thresholded onto the l1 balls of radii."""
    # With S_j the partial sums of a sorted row, (S_j - r) / j increases while
    # j is in the support of the projection and decreases after it, so its
    # maximum is the soft threshold theta (Duchi et al.). It is <= 0 exactly
    # when the row is inside its ball, which leaves the row unchanged.
    cumsum = np.cumsum(sorted_U, axis=1)
    theta = np.max((cumsum - radii[:, None]) / np.arange(1, U.shape[1] + 1), axis=1)
    return np.maximum(U - np.maximum(theta, 0.0)[:, None], 0.0)


def project_nuclear_rows(V: np.ndarray, radii) -> np.ndarray:
    """Row-wise projection of a (k, d*d) stack of row-major vectorized matrices
    onto the nuclear-norm balls of radii[i]."""
    V = np.asarray(V, dtype=float)
    radii = _check_radii(radii, V.shape[0])
    d = math.isqrt(V.shape[1])
    if d * d != V.shape[1]:
        raise ValueError(f"length {V.shape[1]} is not a square; cannot reshape to d x d")
    U, s, Vt = np.linalg.svd(V.reshape(-1, d, d), full_matrices=False)
    s_proj = _shrink(s, s, radii)  # singular values are nonnegative and in decreasing order
    out = (U @ (s_proj[:, :, None] * Vt)).reshape(V.shape)
    inside = s.sum(axis=1) <= radii
    return np.where(inside[:, None], V, out)


def project_l1_ball(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto {x : ||x||_1 <= radius}."""
    return project_l1_rows(np.asarray(v, dtype=float)[None], radius)[0]


def project_nuclear_ball(v: np.ndarray, radius: float) -> np.ndarray:
    """Projection onto the nuclear-norm ball, on row-major vectorized matrices."""
    return project_nuclear_rows(np.asarray(v, dtype=float)[None], radius)[0]
