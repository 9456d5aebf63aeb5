import hashlib
import math

import numpy as np
import pytest

from qlasso import (
    LowRank,
    Sparse,
    project_l1_ball,
    project_l1_rows,
    project_nuclear_ball,
    project_nuclear_rows,
    substream,
)
from qlasso.verify import project_l1_bisection


def test_l1_projection_examples():
    np.testing.assert_allclose(project_l1_ball(np.array([3.0, 0.0]), 1.0), [1.0, 0.0])
    np.testing.assert_allclose(project_l1_ball(np.array([1.0, 1.0]), 1.0), [0.5, 0.5])
    v = np.array([0.2, -0.3, 0.1])
    np.testing.assert_array_equal(project_l1_ball(v, 1.0), v)


def test_l1_projection_signs_and_feasibility():
    rng = substream(0, "l1")
    for _ in range(50):
        v = rng.standard_normal(30) * 3
        p = project_l1_ball(v, 2.0)
        assert np.abs(p).sum() <= 2.0 + 1e-9
        # projection never flips a sign
        assert np.all(p * v >= -1e-15)


def test_l1_projection_idempotent():
    rng = substream(1, "l1")
    for _ in range(20):
        v = rng.standard_normal(15) * 5
        p = project_l1_ball(v, 1.5)
        np.testing.assert_allclose(project_l1_ball(p, 1.5), p, atol=1e-12)


def test_l1_projection_against_bisection_oracle():
    # the bisection oracle shares no step with the sort-based projection
    np.testing.assert_allclose(
        project_l1_bisection([[3.0, 0.0], [1.0, 1.0], [0.2, -0.3]], 1.0),
        [[1.0, 0.0], [0.5, 0.5], [0.2, -0.3]],
        rtol=0, atol=1e-15,
    )
    rng = substream(2, "qp")
    for n in (2, 4, 8):
        for _ in range(10):
            v = rng.standard_normal(n) * 2
            radius = float(rng.uniform(0.2, 2.0))
            p = project_l1_ball(v, radius)
            np.testing.assert_allclose(p, project_l1_bisection(v[None], radius)[0], rtol=0, atol=1e-10)


def test_l1_rows_equal_single_projection():
    rng = substream(10, "rows")
    V = np.vstack([
        rng.standard_normal((6, 8)) * 3,        # outside the ball
        [[0.2, -0.3, 0.1, 0, 0, 0, 0, 0]],      # inside
        [[0.5, -0.25, 0.25, 0, 0, 0, 0, 0]],    # exactly on the boundary
        [[2.0, 2.0, -2.0, 1.0, 2.0, 0, 0, 0]],  # ties at the threshold
        np.zeros((1, 8)),                       # the zero vector
    ])
    radii = np.concatenate([rng.uniform(0.2, 4.0, 6), [1.0, 1.0, 1.0, 1.0]])
    P = project_l1_rows(V, radii)
    for v, r, p in zip(V, radii, P):
        np.testing.assert_array_equal(p, project_l1_ball(v, r))
    np.testing.assert_array_equal(P[6:8], V[6:8])
    np.testing.assert_allclose(P[8], [0.25, 0.25, -0.25, 0.0, 0.25, 0, 0, 0], atol=1e-15)
    np.testing.assert_array_equal(P[9], np.zeros(8))
    # one radius for every row
    np.testing.assert_array_equal(project_l1_rows(V, 1.5), project_l1_rows(V, np.full(len(V), 1.5)))
    with pytest.raises(ValueError):
        project_l1_rows(V, np.where(np.arange(len(V)) == 3, 0.0, 1.0))
    with pytest.raises(ValueError):
        project_l1_rows(V, np.ones(3))


def test_nuclear_rows_equal_single_projection():
    rng = substream(11, "rows")
    d = 5
    V = rng.standard_normal((7, d * d)) * 2
    V[0] *= 1e-3  # inside its ball
    radii = rng.uniform(0.5, 4.0, 7)
    P = project_nuclear_rows(V, radii)
    for v, r, p in zip(V, radii, P):
        np.testing.assert_array_equal(p, project_nuclear_ball(v, r))
    np.testing.assert_array_equal(P[0], V[0])


def test_nuclear_projection_examples():
    v = np.eye(3).reshape(-1) * 0.5
    np.testing.assert_allclose(project_nuclear_ball(v, 2.0), v)
    X = np.diag([3.0, 0.0])
    np.testing.assert_allclose(
        project_nuclear_ball(X.reshape(-1), 1.0).reshape(2, 2),
        np.diag([1.0, 0.0]),
        atol=1e-12,
    )


def test_nuclear_projection_invalid_length():
    with pytest.raises(ValueError):
        project_nuclear_ball(np.zeros(5), 1.0)
    with pytest.raises(ValueError):
        project_nuclear_ball(np.zeros(4), -1.0)


def test_width_bound_values():
    assert abs(Sparse(25).width_bound(100) - math.sqrt(106.815)) <= 5e-4
    assert abs(Sparse(25).width_bound(100) - 10.335) <= 1e-3
    assert abs(Sparse(1).width_bound(100) - math.sqrt(2 * math.log(100) + 1.5)) <= 1e-12
    assert abs(LowRank(100, 5).width_bound(100 * 100) - math.sqrt(3000.0)) <= 1e-12
    assert abs(LowRank(100, 5).width_bound(100 * 100) - 54.772) <= 1e-3
    assert abs(LowRank(1, 1).width_bound(1) - math.sqrt(6.0)) <= 1e-12
    assert abs(LowRank(10, 10).width_bound(100) - math.sqrt(600.0)) <= 1e-12


def test_width_bounds_are_pinned_bitwise():
    # float.hex of sqrt(2 s ln(n/s) + 1.5 s) and sqrt(6 d r) at reference points, and the SHA-256 of the
    # hex strings, one a line, on the sweeps n = 1000 with s = 1..367 and d = 1..20 with r = 1..d
    assert {(n, s): Sparse(s).width_bound(n).hex() for n, s in [(100, 25), (100, 1)]} == {
        (100, 25): "0x1.4ab94edc5f0acp+3", (100, 1): "0x1.a2e6b524f3c51p+1"}
    assert {(d, r): LowRank(d, r).width_bound(d * d).hex() for d, r in [(100, 5), (1, 1), (10, 10)]} == {
        (100, 5): "0x1.b62d946c44ef3p+5", (1, 1): "0x1.3988e1409212ep+1", (10, 10): "0x1.87eb1990b697ap+4"}
    sparse = "\n".join(Sparse(s).width_bound(1000).hex() for s in range(1, 368))
    lowrank = "\n".join(LowRank(d, r).width_bound(d * d).hex() for d in range(1, 21) for r in range(1, d + 1))
    assert hashlib.sha256(sparse.encode()).hexdigest() == \
        "c4ff1c8f9122ca43f02fc012be251d2e49d225e58a74af7fe70a30c68084341c"
    assert hashlib.sha256(lowrank.encode()).hexdigest() == \
        "d04b795b5440e7f2573c566be152c49bc0926a77958305f70fcea91d84ed3d92"


def test_width_bound_monotone_in_s():
    # increasing in s while s <= n/e
    n = 1000
    vals = [Sparse(s).width_bound(n) for s in range(1, int(n / math.e))]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_width_bound_invalid():
    # an out-of-range structure raises the ValueError of its own check
    with pytest.raises(ValueError, match="sparsity must satisfy"):
        Sparse(0).width_bound(10)
    with pytest.raises(ValueError, match="sparsity must satisfy"):
        Sparse(11).width_bound(10)
    with pytest.raises(ValueError, match="rank must satisfy"):
        LowRank(5, 6).width_bound(25)
    with pytest.raises(ValueError, match="n = d\\^2"):
        LowRank(5, 5).width_bound(24)
    with pytest.raises(ValueError, match="counts must be integers"):
        Sparse(2.5).width_bound(20)
