"""Uniform mid-riser and one-bit quantizers with dithered measurement channels.

Each quantizer owns its dither law (`dither(rng, size)`), its map
(`quantize(x)`) and the scale mu of its reading mu * Q(x + tau) of x, so
`measure` runs any channel y = Q(<a, x0> + tau) without branching on it. It
takes the measurements <a_i, x0> as one vector A x0, which its caller forms:

  * UniformQuantizer(delta): the mid-riser map Q(x) = Delta * (floor(x / Delta) + 1/2);
    its dither is uniform on (-Delta/2, Delta/2], sampled as
    Delta * (u - 1/2) with u ~ Unif[0, 1) (the boundary discrepancy is measure-zero); mu = 1.
  * OneBitQuantizer(T): the sign map Q(x) = sign(x) with sign(0) := +1 (a
    probability-zero event under any continuous dither); its dither
    is uniform on [-T, T], sampled as T * (2u - 1); mu = T.

With its dither the reading is unbiased for UniformQuantizer; for
OneBitQuantizer its bias is the exact clipping term implemented by
one_bit_mean_formula.
"""

from dataclasses import dataclass

import numpy as np

from .ensemble import check_positive


def _finite(x) -> np.ndarray:
    """x as a float array; raise ValueError unless every entry is finite."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("quantizers require finite input")
    return x


@dataclass(frozen=True)
class UniformQuantizer:
    """Mid-riser quantizer of cell width delta; its dither is uniform on one cell, and its mu is 1."""

    delta: float
    mu = 1.0

    def __post_init__(self):
        check_positive("resolution delta", self.delta)

    def dither(self, rng: "np.random.Generator", size: int) -> np.ndarray:
        """`size` iid draws uniform on (-delta/2, delta/2]."""
        return self.delta * (rng.random(size) - 0.5)

    def quantize(self, x):
        """Delta * (floor(x / Delta) + 1/2); floor rounds toward -inf, and a scalar x gives a scalar."""
        return self.delta * (np.floor(_finite(x) / self.delta) + 0.5)


@dataclass(frozen=True)
class OneBitQuantizer:
    """Sign quantizer; its dither is uniform on [-T, T], and its mu is T."""

    T: float

    def __post_init__(self):
        check_positive("dither range T", self.T)

    @property
    def mu(self) -> float:
        return self.T

    def dither(self, rng: "np.random.Generator", size: int) -> np.ndarray:
        """`size` iid draws uniform on [-T, T]."""
        return self.T * (2.0 * rng.random(size) - 1.0)

    def quantize(self, x):
        """sign(x) with sign(0) = +1; a scalar x gives a scalar."""
        return np.where(_finite(x) >= 0, 1.0, -1.0)[()]


def measure(Ax: np.ndarray, q: UniformQuantizer | OneBitQuantizer, rng: "np.random.Generator") -> np.ndarray:
    """Quantized channel y_i = q.quantize((A x0)_i + tau_i) of the measurement vector Ax = A x0, with
    fresh iid dither tau from q.dither; Ax must be 1-d."""
    Ax = np.asarray(Ax, dtype=float)
    if Ax.ndim != 1:
        raise ValueError(f"measure takes the vector A x0, got an array of shape {Ax.shape}")
    return q.quantize(Ax + q.dither(rng, len(Ax)))


def one_bit_mean_formula(x: float, T: float) -> float:
    """Exact one-bit dither bias E_tau[T * sign(x + tau) - x] for tau ~ Unif[-T, T]."""
    check_positive("dither range T", T)
    return -x * (abs(x) > T) + T * (x > T) - T * (x < -T)
