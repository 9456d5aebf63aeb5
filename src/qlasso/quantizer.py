"""Uniform mid-riser and one-bit quantizers with dithered measurement channels.

The mid-riser map is Q(x) = Delta * (floor(x / Delta) + 1/2); the one-bit map
is Q(x) = sign(x) with sign(0) := +1 (a probability-zero event under any
continuous dither). Dither laws:

  * uniform on (-Delta/2, Delta/2], sampled as Delta * (u - 1/2) with
    u ~ Unif[0, 1); the boundary discrepancy is measure-zero,
  * uniform on [-T, T], sampled as T * (2u - 1),
  * k-fold: the sum of k independent half-open uniform draws.

With the matching dither, mu * Q(x + tau) is an unbiased reading of x in the
uniform case; in the one-bit case with mu = T the residual bias is the exact
clipping term implemented by one_bit_mean_formula.
"""

from dataclasses import dataclass
from typing import Union

import numpy as np

from .ensemble import MeasurementMatrix


@dataclass(frozen=True)
class UniformQuantizer:
    delta: float

    def __post_init__(self):
        if not (self.delta > 0):
            raise ValueError(f"resolution delta must be positive, got {self.delta}")


@dataclass(frozen=True)
class OneBitQuantizer:
    T: float

    def __post_init__(self):
        if not (self.T > 0):
            raise ValueError(f"dither range T must be positive, got {self.T}")


QuantizerConfig = Union[UniformQuantizer, OneBitQuantizer]


@dataclass(frozen=True)
class UniformHalfOpenDither:
    delta: float

    def __post_init__(self):
        if not (self.delta > 0):
            raise ValueError("delta must be positive")


@dataclass(frozen=True)
class UniformSymmetricDither:
    T: float

    def __post_init__(self):
        if not (self.T > 0):
            raise ValueError("T must be positive")


@dataclass(frozen=True)
class KFoldUniformDither:
    k: int
    delta: float

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("fold count k must be >= 1")
        if not (self.delta > 0):
            raise ValueError("delta must be positive")


@dataclass(frozen=True)
class NoDither:
    pass


DitherKind = Union[UniformHalfOpenDither, UniformSymmetricDither, KFoldUniformDither, NoDither]


@dataclass(frozen=True)
class QuantizedObservations:
    y: np.ndarray
    quantizer: QuantizerConfig
    dither: DitherKind


def uniform_quantize(x, delta: float):
    """Mid-riser map Delta * (floor(x / Delta) + 1/2); floor rounds toward -inf."""
    if not (delta > 0):
        raise ValueError(f"resolution delta must be positive, got {delta}")
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


def apply_quantizer(q: QuantizerConfig, x):
    if isinstance(q, UniformQuantizer):
        return uniform_quantize(x, q.delta)
    if isinstance(q, OneBitQuantizer):
        return one_bit_quantize(x)
    raise ValueError(f"unknown quantizer {q!r}")


def sample_dither(kind: DitherKind, rng: np.random.Generator, size=None):
    """Draw from the dither law; size=None returns a scalar."""
    n = 1 if size is None else int(size)
    if isinstance(kind, UniformHalfOpenDither):
        out = kind.delta * (rng.random(n) - 0.5)
    elif isinstance(kind, UniformSymmetricDither):
        out = kind.T * (2.0 * rng.random(n) - 1.0)
    elif isinstance(kind, KFoldUniformDither):
        out = kind.delta * (rng.random((kind.k, n)) - 0.5).sum(axis=0)
    elif isinstance(kind, NoDither):
        out = np.zeros(n)
    else:
        raise ValueError(f"unknown dither kind {kind!r}")
    return float(out[0]) if size is None else out


def _check_pairing(q: QuantizerConfig, d: DitherKind) -> None:
    if isinstance(q, UniformQuantizer):
        if not isinstance(d, (UniformHalfOpenDither, KFoldUniformDither)):
            raise ValueError(f"uniform quantizer requires a (k-fold) half-open uniform dither, got {d!r}")
        if d.delta != q.delta:
            raise ValueError(f"dither resolution {d.delta} does not match quantizer delta {q.delta}")
    elif isinstance(q, OneBitQuantizer):
        if not isinstance(d, UniformSymmetricDither):
            raise ValueError(f"one-bit quantizer requires a symmetric uniform dither, got {d!r}")
        if d.T != q.T:
            raise ValueError(f"dither range {d.T} does not match quantizer T {q.T}")
    else:
        raise ValueError(f"unknown quantizer {q!r}")


def measure(
    A: MeasurementMatrix,
    x0: np.ndarray,
    q: QuantizerConfig,
    d: DitherKind,
    rng: np.random.Generator,
) -> QuantizedObservations:
    """Quantized channel y_i = Q(a_i^T x0 + tau_i) with fresh iid dither."""
    x0 = np.asarray(x0, dtype=float)
    if A.n != x0.shape[0]:
        raise ValueError(f"dimension mismatch: A has {A.n} columns, x0 has length {x0.shape[0]}")
    _check_pairing(q, d)
    tau = sample_dither(d, rng, size=A.m)
    y = apply_quantizer(q, A.entries @ x0 + tau)
    return QuantizedObservations(y=y, quantizer=q, dither=d)


def quantization_noise(y: QuantizedObservations, A: MeasurementMatrix, x0, mu: float) -> np.ndarray:
    """Estimator-facing discrepancy e_i = mu * y_i - a_i^T x0."""
    x0 = np.asarray(x0, dtype=float)
    if A.n != x0.shape[0] or A.m != y.y.shape[0]:
        raise ValueError("dimension mismatch between observations, matrix and signal")
    return mu * y.y - A.entries @ x0


@dataclass(frozen=True)
class MeanResidual:
    mean: float
    stderr: float


def dither_mean_residual(
    x: float,
    q: QuantizerConfig,
    d: DitherKind,
    mu: float,
    N: int,
    rng: np.random.Generator,
) -> MeanResidual:
    """Monte Carlo estimate of E_tau[mu * Q(x + tau)] - x with its standard error."""
    if N < 1:
        raise ValueError("need at least one sample")
    tau = sample_dither(d, rng, size=N)
    vals = mu * apply_quantizer(q, x + tau) - x
    mean = float(np.mean(vals))
    stderr = float(np.std(vals) / np.sqrt(N))
    return MeanResidual(mean=mean, stderr=stderr)


def one_bit_mean_formula(x: float, T: float, mu: float) -> float:
    """Exact one-bit dither bias E_tau[mu * sign(x + tau) - x], valid for mu = T."""
    if not (T > 0):
        raise ValueError("T must be positive")
    if mu != T:
        raise ValueError(f"the closed-form bias is derived for mu = T; got mu={mu}, T={T}")
    return -x * (abs(x) > T) + T * (x > T) - T * (x < -T)
