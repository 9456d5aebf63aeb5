"""Ground-truth signals and random isotropic measurement ensembles.

Signals are either exactly s-sparse vectors or vectorized d x d matrices of
rank r, rescaled to a prescribed l2 (Frobenius) norm. Each structure owns its
ball K: `project` onto it, `gauge(X)`, its norm of each row (the radius of K
through the row), `draw(spec, rng)` and `check(n)`, which raises ValueError
unless its fields fit the ambient dimension n, so no caller branches on it.
Measurement matrices stack iid isotropic rows: standard Gaussian or Rademacher entries.
`numpy.random` loads at the first draw, not at import, so annotations name it only as strings.

A Rademacher entry is 2 b - 1, b the top bit of the next 32-bit half of the
generator's raw 64-bit words, low half first. These are the bits
`rng.integers(0, 2)` returns, since Lemire's bounded method never rejects for a
range of two. Reading them from `bit_generator.random_raw` keeps every draw,
allocates none of the m x n temporaries of `integers`, and pins the draw to the
raw stream, which numpy keeps stable (NEP 19), instead of to the algorithm of a
Generator method, which it does not.

Each sign is written straight as the bit pattern of float32 +-1 into a
float32 array, which holds it exactly: a Rademacher draw is float32 and a
Gaussian one float64 (ENSEMBLES). Where a product of a +-1 draw must be
float64, its consumer widens it: gram_stats casts A, and the trial engine
widens each panel once into a float64 buffer of its workspace.
"""

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .geometry import project_l1_rows, project_nuclear_rows


def check_integers(**values):
    """Raise ValueError unless every value is an integer: a numbers.Integral (numpy's too) but not a bool."""
    if bad := {k: v for k, v in values.items() if isinstance(v, bool) or not isinstance(v, numbers.Integral)}:
        raise ValueError(f"counts must be integers, got {bad}")


def check_positive(name: str, value) -> None:
    """Raise ValueError unless value is a finite positive real: a numbers.Real but not a bool."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Real) and 0 < value < math.inf):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


@dataclass(frozen=True)
class Sparse:
    """Sparse structure: exactly s nonzero entries; K is the l1 ball."""

    s: int
    project = staticmethod(project_l1_rows)

    def check(self, n: int) -> None:
        """Raise ValueError unless the sparsity fits the ambient dimension n."""
        if not 1 <= self.s <= n:
            raise ValueError(f"sparsity must satisfy 1 <= s <= n, got s={self.s}, n={n}")

    def gauge(self, X: np.ndarray) -> np.ndarray:
        """The l1 norm of each row of a (k, n) stack: the radius of K through it."""
        return np.sum(np.abs(X), axis=1)

    def draw(self, spec: "SignalSpec", rng: "np.random.Generator") -> np.ndarray:
        """Draw an s-sparse signal: uniform support, iid normal nonzeros, rescaled."""
        support = rng.choice(spec.n, size=self.s, replace=False)
        while True:
            values = rng.standard_normal(self.s)
            norm = np.linalg.norm(values)
            if norm > 0:  # all-zero draw has probability zero
                break
        x0 = np.zeros(spec.n)
        x0[support] = values * (spec.norm_target / norm)
        return x0


@dataclass(frozen=True)
class LowRank:
    """Low-rank structure: a d x d matrix of rank r, stored vectorized; K is the nuclear-norm ball."""

    d: int
    r: int
    project = staticmethod(project_nuclear_rows)

    def check(self, n: int) -> None:
        """Raise ValueError unless 1 <= r <= d and the ambient dimension n is d^2."""
        if not 1 <= self.r <= self.d:
            raise ValueError(f"rank must satisfy 1 <= r <= d, got r={self.r}, d={self.d}")
        if n != self.d * self.d:
            raise ValueError(f"low-rank spec needs n = d^2, got n={n}, d={self.d}")

    def gauge(self, X: np.ndarray) -> np.ndarray:
        """The nuclear norm of each row of a (k, d*d) stack, by one batched SVD: the radius of K through it."""
        return np.linalg.norm(np.linalg.svd(X.reshape(-1, self.d, self.d), compute_uv=False), 1, axis=1)

    def draw(self, spec: "SignalSpec", rng: "np.random.Generator") -> np.ndarray:
        """Draw X0 = U V^T with iid normal d x r factors, rescaled; row-major vectorized."""
        while True:
            U = rng.standard_normal((self.d, self.r))
            V = rng.standard_normal((self.d, self.r))
            X0 = U @ V.T
            norm = np.linalg.norm(X0)
            if norm > 0:
                break
        return (X0 * (spec.norm_target / norm)).reshape(-1)


@dataclass(frozen=True)
class SignalSpec:
    n: int
    structure: Union[Sparse, LowRank]
    norm_target: float

    def __post_init__(self):
        if not callable(getattr(self.structure, "check", None)):  # a structure checks its own fields against n
            raise ValueError(f"unknown structure {self.structure!r}")
        check_integers(n=self.n, **vars(self.structure))
        if self.n < 1:
            raise ValueError(f"ambient dimension must be positive, got n={self.n}")
        check_positive("norm_target", self.norm_target)
        self.structure.check(self.n)


ENSEMBLES = {"gaussian": np.float64, "rademacher": np.float32}  # each one's dtype: float32 holds +-1 exactly


def gen_signal(spec: SignalSpec, rng: "np.random.Generator") -> np.ndarray:
    """Draw a signal of spec from rng by its structure's draw."""
    return spec.structure.draw(spec, rng)


# Rademacher entries drawn per pass over the raw words: every temporary stays below 128 KiB.
RADEMACHER_CHUNK = 2**14


def _draw_signs(rng: "np.random.Generator", out: np.ndarray) -> None:
    """Write the signs into the C-contiguous float32 array out as float32 +-1."""
    bits = out.reshape(-1).view(np.uint32)
    for start in range(0, bits.size, RADEMACHER_CHUNK):
        seg = bits[start:start + RADEMACHER_CHUNK]
        # two entries per word; when seg.size is odd the last word's high half is unused
        halves = rng.bit_generator.random_raw((seg.size + 1) // 2).astype("<u8", copy=False).view("<u4")
        # 0x3F800000 | (~h & 0x80000000): float32 1.0 where h's top bit is set, -1.0 where it is not
        np.bitwise_and(halves[:seg.size], 0x80000000, out=seg)
        seg ^= 0xBF800000


def sample_measurements(
    kind: str, m: int, n: int, rng: "np.random.Generator", *, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Sample an m x n matrix A with iid rows of the named ensemble (one of ENSEMBLES), in its dtype.

    Gaussian entries are float64 `rng.standard_normal((m, n))`. Rademacher
    entries are float32, bitwise `rng.integers(0, 2, size=(m, n)) * 2.0 - 1.0`
    on a fresh generator, read from its raw words (see the module docstring); a
    half word buffered by an earlier 32-bit draw is neither used nor left
    behind. Successive calls on one generator draw the rows one call for all of
    them would, provided every Rademacher call but the last draws an even
    number of entries. With `out`, a C-contiguous (m, n) array of the
    ensemble's dtype, the draw is written into it and `out` is returned, so a
    caller that reuses one workspace allocates nothing that grows with m.
    """
    if m < 1 or n < 1:
        raise ValueError(f"need m >= 1 and n >= 1, got m={m}, n={n}")
    if kind not in ENSEMBLES:
        raise ValueError(f"unknown ensemble kind {kind!r}")
    if kind == "rademacher" and isinstance(rng.bit_generator, np.random.MT19937):
        raise ValueError("Rademacher draws read 64-bit raw words; MT19937 returns 32-bit ones")
    dtype = ENSEMBLES[kind]
    if out is None:
        out = np.empty((m, n), dtype)
    elif out.shape != (m, n) or out.dtype != dtype or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous {dtype.__name__} array of shape {(m, n)} for {kind} entries")
    if kind == "gaussian":
        rng.standard_normal((m, n), out=out)
    else:
        _draw_signs(rng, out)
    return out
