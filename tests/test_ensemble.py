import numpy as np
import pytest

from qlasso import (
    LowRank,
    Sparse,
    sample_measurements,
    substream,
)
from qlasso.ensemble import ENSEMBLES, RADEMACHER_CHUNK


def test_sparse_signal_support_and_norm():
    x0 = Sparse(25).draw(100, 8.0, substream(7, "sig"))
    assert np.count_nonzero(x0) == 25
    assert abs(np.linalg.norm(x0) - 8.0) <= 1e-9


def test_sparse_fully_dense_unit():
    x0 = Sparse(4).draw(4, 1.0, substream(3, "sig"))
    assert np.count_nonzero(x0) == 4
    assert abs(np.linalg.norm(x0) - 1.0) <= 1e-9


def test_sparse_single_spike():
    x0 = Sparse(1).draw(10, 3.0, substream(11, "sig"))
    nz = np.nonzero(x0)[0]
    assert nz.size == 1
    assert abs(abs(x0[nz[0]]) - 3.0) <= 1e-9


def test_invalid_sparse_specs():
    with pytest.raises(ValueError):
        Sparse(11).check(10)
    with pytest.raises(ValueError):
        Sparse(11).draw(10, 1.0, substream(0, "sig"))
    with pytest.raises(ValueError):
        Sparse(5).draw(10, -1.0, substream(0, "sig"))
    with pytest.raises(ValueError, match="counts must be integers"):
        Sparse(2.5).check(20)
    for norm in (float("nan"), float("inf"), True, "3"):  # True built a norm of 1, "3" raised a bare TypeError
        with pytest.raises(ValueError, match="norm_target must be finite and positive"):
            Sparse(3).draw(20, norm, substream(0, "sig"))


def test_lowrank_rank_and_norm():
    x0 = LowRank(8, 2).draw(64, 8.0, substream(5, "sig"))
    X = x0.reshape(8, 8)
    s = np.linalg.svd(X, compute_uv=False)
    assert abs(np.linalg.norm(X) - 8.0) <= 1e-9
    assert s[1] > 1e-10  # rank exactly 2 with probability 1
    assert s[2] < 1e-10


def test_lowrank_rank_one_and_full():
    x1 = LowRank(10, 1).draw(100, 1.0, substream(9, "s"))
    s = np.linalg.svd(x1.reshape(10, 10), compute_uv=False)
    assert s[1] < 1e-10
    x2 = LowRank(5, 5).draw(25, 2.0, substream(9, "s2"))
    assert abs(np.linalg.norm(x2) - 2.0) <= 1e-9


def test_lowrank_invalid():
    with pytest.raises(ValueError):
        LowRank(8, 9).check(64)
    with pytest.raises(ValueError):
        LowRank(8, 2).draw(63, 1.0, substream(0, "sig"))
    for d, r in ((8.0, 2), (8, 2.0), (8, True)):
        with pytest.raises(ValueError, match="counts must be integers"):
            LowRank(d, r).check(64)


@pytest.mark.parametrize("rows", [1, 13])
def test_gauges_are_bitwise_the_per_row_norms(rows):
    # the engine computed each radius as one of these per-row expressions before the structures owned it
    for K, norm in ((Sparse(10), lambda x: np.sum(np.abs(x))),
                    (LowRank(8, 2), lambda x: np.linalg.norm(np.linalg.svd(x.reshape(8, 8), compute_uv=False), 1))):
        X = np.stack([K.draw(64, 8.0, substream(rows, "gauge", i)) for i in range(rows)])
        assert K.gauge(X).tobytes() == np.array([norm(x) for x in X]).tobytes()


def test_rademacher_entries():
    A = sample_measurements("rademacher", 1000, 100, substream(1, "A"))
    assert np.all(np.isin(A, (-1.0, 1.0)))


# Shapes around the edges of the chunked raw-word read: odd and even m n, one
# word, one chunk exactly, a chunk plus or minus one entry, many chunks, and the
# largest m of the one-bit benchmark grid.
C = RADEMACHER_CHUNK
DRAW_SHAPES = [(1, 1), (1, 3), (3, 5), (7, 13), (1, C), (1, C - 1), (1, C + 1), (2000, 100), (8000, 100),
               (C - 1, 1), (C + 1, 1)]
# The same shapes with an n x n Gram matrix, except 1 x (2^14 +- 1), whose Gram matrix would
# take 2 GiB; the (2^14 +- 1) x 1 shapes put the same chunk edges on m n.
GRAM_SHAPES = [shape for shape in DRAW_SHAPES if shape[1] < C - 1]


@pytest.mark.parametrize("shape", DRAW_SHAPES)
def test_rademacher_draw_is_bitwise_integers(shape):
    m, n = shape
    expected = substream(3, "A", m, n).integers(0, 2, size=shape) * 2.0 - 1.0
    drawn = sample_measurements("rademacher", m, n, substream(3, "A", m, n))
    assert drawn.dtype == np.float32
    assert drawn.astype(np.float64).tobytes() == expected.tobytes()


@pytest.mark.parametrize("shape", GRAM_SHAPES)
def test_rademacher_gram_is_bitwise_float64(shape):
    # the float32 product of the float32 draw, which the engine forms of each +-1 panel, is the
    # float64 A^T A: its partial sums are integers of magnitude at most m < 2^24
    m, n = shape
    expected = substream(3, "A", m, n).integers(0, 2, size=shape) * 2.0 - 1.0
    signs = sample_measurements("rademacher", m, n, substream(3, "A", m, n))
    assert signs.astype(np.float64).tobytes() == expected.tobytes()
    assert (signs.T @ signs).astype(np.float64).tobytes() == (expected.T @ expected).tobytes()


def test_gaussian_draw_into_out():
    out = np.full((7, 13), np.nan)
    returned = sample_measurements("gaussian", 7, 13, substream(3, "G"), out=out)
    assert returned is out
    assert out.tobytes() == substream(3, "G").standard_normal((7, 13)).tobytes()


def _bad_outs(dtype):
    """Bad `out` arrays for a 4 x 5 draw of entries of `dtype`, by name: each breaks one rule."""
    other = np.float64 if dtype == np.float32 else np.float32
    return {"shape": np.empty((5, 4), dtype), np.dtype(other).name: np.empty((4, 5), other),
            "float16": np.empty((4, 5), np.float16), "transposed": np.empty((5, 4), dtype).T,
            "strided": np.empty((4, 10), dtype)[:, ::2]}


@pytest.mark.parametrize("kind,out", [
    pytest.param(kind, out, id=f"{name}-{kind}") for kind, dtype in ENSEMBLES.items()
    for name, out in _bad_outs(dtype).items()
])
def test_draw_rejects_bad_out(kind, out):
    with pytest.raises(ValueError):
        sample_measurements(kind, 4, 5, substream(3, "A"), out=out)


@pytest.mark.parametrize("shape", DRAW_SHAPES)
def test_rademacher_draw_into_float32(shape):
    m, n = shape
    expected = substream(3, "A", m, n).integers(0, 2, size=shape) * 2.0 - 1.0
    out = np.full(shape, np.nan, dtype=np.float32)
    assert sample_measurements("rademacher", m, n, substream(3, "A", m, n), out=out) is out
    assert out.astype(np.float64).tobytes() == expected.tobytes()


@pytest.mark.parametrize("kind", sorted(ENSEMBLES))
def test_draw_rejects_an_empty_shape(kind):
    for m, n in ((0, 5), (5, 0)):
        with pytest.raises(ValueError):
            sample_measurements(kind, m, n, substream(3, "A"))


def test_rademacher_needs_64bit_raw_words():
    with pytest.raises(ValueError):
        sample_measurements("rademacher", 4, 5, np.random.Generator(np.random.MT19937(0)))


def test_gaussian_column_means_clt():
    A = sample_measurements("gaussian", 2000, 100, substream(2, "A"))
    assert np.all(np.abs(A.mean(axis=0)) < 4 / np.sqrt(2000))


def test_smallest_instance():
    A = sample_measurements("gaussian", 1, 1, substream(4, "A"))
    assert A.shape == (1, 1)
    assert np.isfinite(A[0, 0])


def test_isotropy_empirical():
    # m = 50 n with n <= 20: max-norm deviation of the second moment below 10/sqrt(m)
    n, m = 20, 1000
    fails = 0
    for seed in range(10):
        for kind in ("gaussian", "rademacher"):
            A = sample_measurements(kind, m, n, substream(seed, "iso", kind))
            dev = np.abs(A.T @ A / m - np.eye(n)).max()
            fails += dev >= 10 / np.sqrt(m)
    assert fails == 0


def test_determinism_bitwise():
    a = sample_measurements("gaussian", 50, 10, substream(42, "A"))
    b = sample_measurements("gaussian", 50, 10, substream(42, "A"))
    assert np.array_equal(a, b)
    x = Sparse(5).draw(30, 2.0, substream(42, "x"))
    y = Sparse(5).draw(30, 2.0, substream(42, "x"))
    assert np.array_equal(x, y)


def test_invalid_ensemble_kind():
    with pytest.raises(ValueError):
        sample_measurements("cauchy", 10, 4, substream(0, "A"))
