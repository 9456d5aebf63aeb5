"""Uniform mid-riser and one-bit quantizers with dithered measurement channels.

The mid-riser map is Q(x) = Delta * (floor(x / Delta) + 1/2); the one-bit map
is Q(x) = sign(x) with sign(0) := +1 (a probability-zero event under any
continuous dither). Each quantizer fixes its dither law:

  * UniformQuantizer(delta): uniform on (-Delta/2, Delta/2], sampled as
    Delta * (u - 1/2) with u ~ Unif[0, 1); the boundary discrepancy is
    measure-zero.
  * OneBitQuantizer(T): uniform on [-T, T], sampled as T * (2u - 1).

measure runs the channel y = Q(<a, x0> + tau). Each quantizer also owns the
scale mu of its reading mu * Q(x + tau) of x. With its dither that reading is
unbiased for UniformQuantizer (mu = 1); for OneBitQuantizer (mu = T) its bias
is the exact clipping term implemented by one_bit_mean_formula.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np


def _check_positive(name: str, value) -> None:
    """Raise ValueError unless value is a finite positive real, not a bool."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Real) and 0 < value < math.inf):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


@dataclass(frozen=True)
class UniformQuantizer:
    """Mid-riser quantizer of cell width delta; its dither is uniform on one cell, and its mu is 1."""

    delta: float
    mu = 1.0

    def __post_init__(self):
        _check_positive("resolution delta", self.delta)


@dataclass(frozen=True)
class OneBitQuantizer:
    """Sign quantizer; its dither is uniform on [-T, T], and its mu is T."""

    T: float

    def __post_init__(self):
        _check_positive("dither range T", self.T)

    @property
    def mu(self) -> float:
        return self.T


def uniform_quantize(x, delta: float):
    """Mid-riser map Delta * (floor(x / Delta) + 1/2); floor rounds toward -inf."""
    UniformQuantizer(delta)  # raises unless delta is finite and positive
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("uniform_quantize requires finite input")
    out = delta * (np.floor(x / delta) + 0.5)
    return out if out.ndim else float(out)


def one_bit_quantize(x):
    """Sign map with the convention sign(0) = +1."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("one_bit_quantize requires finite input")
    out = np.where(x >= 0, 1.0, -1.0)
    return out if out.ndim else float(out)


def sample_dither(q: UniformQuantizer | OneBitQuantizer, rng: "np.random.Generator", size: int) -> np.ndarray:
    """Draw `size` iid dithers from the law of quantizer q."""
    if isinstance(q, UniformQuantizer):
        return q.delta * (rng.random(size) - 0.5)
    if isinstance(q, OneBitQuantizer):
        return q.T * (2.0 * rng.random(size) - 1.0)
    raise ValueError(f"unknown quantizer {q!r}")


def measure(
    A: np.ndarray, x0: np.ndarray, q: UniformQuantizer | OneBitQuantizer, rng: "np.random.Generator"
) -> np.ndarray:
    """Quantized channel y_i = Q(a_i^T x0 + tau_i) with fresh iid dither from q's law."""
    A = np.asarray(A, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    if A.ndim != 2 or A.shape[1] != x0.shape[0]:
        raise ValueError(f"dimension mismatch: A has shape {A.shape}, x0 has length {x0.shape[0]}")
    tau = sample_dither(q, rng, A.shape[0])  # raises on any other q
    if isinstance(q, UniformQuantizer):
        return uniform_quantize(A @ x0 + tau, q.delta)
    return one_bit_quantize(A @ x0 + tau)


def one_bit_mean_formula(x: float, T: float) -> float:
    """Exact one-bit dither bias E_tau[T * sign(x + tau) - x] for tau ~ Unif[-T, T]."""
    _check_positive("dither range T", T)
    return -x * (abs(x) > T) + T * (x > T) - T * (x < -T)
