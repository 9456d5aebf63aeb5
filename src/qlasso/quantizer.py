"""Uniform mid-riser and one-bit quantizers with dithered measurement channels.

Each quantizer owns its dither law (`dither(rng, size)`), its map
(`quantize(x)`) and the scale mu of its reading mu * Q(x + tau) of x, so
`measure` runs any channel y = Q(<a, x0> + tau) without branching on it. The
map is Q(x) = scale * cell(x), with cell(x) a half-integer or +-1 (float64
sums them exactly) and cell(Q(x)) = cell(x) for |x| / scale below 2^50, so
y's cells are q.cell(y):

  * UniformQuantizer(delta): the mid-riser map Q(x) = Delta * (floor(x / Delta) + 1/2),
    scale = Delta; its dither is uniform on (-Delta/2, Delta/2], sampled as
    Delta * (u - 1/2) with u ~ Unif[0, 1) (the boundary discrepancy is measure-zero); mu = 1.
  * OneBitQuantizer(T): the sign map Q(x) = sign(x) with sign(0) := +1 (a
    probability-zero event under any continuous dither), scale = 1; its dither
    is uniform on [-T, T], sampled as T * (2u - 1); mu = T.

With its dither the reading is unbiased for UniformQuantizer; for
OneBitQuantizer its bias is the exact clipping term implemented by
one_bit_mean_formula.
"""

from dataclasses import dataclass

import numpy as np

from .ensemble import check_positive, row_blocks


def _finite(x) -> np.ndarray:
    """x as a float array; raise ValueError unless every entry is finite."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("quantizers require finite input")
    return x


class _Cells:
    def quantize(self, x):
        """scale * cell(x); a scalar x gives a scalar."""
        return self.scale * self.cell(x)


@dataclass(frozen=True)
class UniformQuantizer(_Cells):
    """Mid-riser quantizer of cell width delta; its dither is uniform on one cell, and its mu is 1."""

    delta: float
    mu = 1.0

    @property
    def scale(self) -> float:
        return self.delta

    def __post_init__(self):
        check_positive("resolution delta", self.delta)

    def dither(self, rng: "np.random.Generator", size: int) -> np.ndarray:
        """`size` iid draws uniform on (-delta/2, delta/2]."""
        return self.delta * (rng.random(size) - 0.5)

    def cell(self, x):
        """floor(x / Delta) + 1/2; floor rounds toward -inf."""
        return np.floor(_finite(x) / self.delta) + 0.5


@dataclass(frozen=True)
class OneBitQuantizer(_Cells):
    """Sign quantizer; its dither is uniform on [-T, T], and its mu is T."""

    T: float
    scale = 1.0

    def __post_init__(self):
        check_positive("dither range T", self.T)

    @property
    def mu(self) -> float:
        return self.T

    def dither(self, rng: "np.random.Generator", size: int) -> np.ndarray:
        """`size` iid draws uniform on [-T, T]."""
        return self.T * (2.0 * rng.random(size) - 1.0)

    def cell(self, x):
        """sign(x) with sign(0) = +1; a scalar x gives a scalar."""
        return np.where(_finite(x) >= 0, 1.0, -1.0)[()]


def measure(
    A: np.ndarray, x0: np.ndarray, q: UniformQuantizer | OneBitQuantizer, rng: "np.random.Generator"
) -> np.ndarray:
    """Quantized channel y_i = q.quantize(a_i^T x0 + tau_i) with fresh iid dither tau from q.dither.
    A float32 A (a +-1 panel) is widened a few rows at a time: A x0 is float64, with no float64 copy of A."""
    A = np.asarray(A)
    A = A if A.dtype == np.float32 else A.astype(float, copy=False)
    x0 = np.asarray(x0, dtype=float)
    if A.ndim != 2 or A.shape[1] != x0.shape[0]:
        raise ValueError(f"dimension mismatch: A has shape {A.shape}, x0 has length {x0.shape[0]}")
    Ax = A @ x0 if A.dtype == np.float64 else np.concatenate(
        [np.matmul(A[rows], x0, dtype=np.float64) for rows in row_blocks(*A.shape)])
    return q.quantize(Ax + q.dither(rng, A.shape[0]))


def one_bit_mean_formula(x: float, T: float) -> float:
    """Exact one-bit dither bias E_tau[T * sign(x + tau) - x] for tau ~ Unif[-T, T]."""
    check_positive("dither range T", T)
    return -x * (abs(x) > T) + T * (x > T) - T * (x < -T)
