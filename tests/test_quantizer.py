import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlasso import (
    OneBitQuantizer,
    UniformQuantizer,
    measure,
    sample_measurements,
    substream,
)
from qlasso.verify import MOMENT_PAIRS


def test_uniform_quantize_values():
    assert UniformQuantizer(2.0).quantize(0.0) == 1.0
    assert UniformQuantizer(2.0).quantize(-0.5) == -1.0
    assert UniformQuantizer(3.0).quantize(4.2) == 4.5
    assert type(UniformQuantizer(2.0).quantize(0.0)) is np.float64  # a scalar in, a numpy scalar out


def test_uniform_quantize_rejects_nonfinite():
    with pytest.raises(ValueError):
        UniformQuantizer(1.0).quantize(np.nan)
    with pytest.raises(ValueError):
        UniformQuantizer(1.0).quantize(np.inf)
    with pytest.raises(ValueError):
        UniformQuantizer(1.0).quantize(np.array([0.5, -np.inf]))
    with pytest.raises(ValueError):
        UniformQuantizer(-1.0)


@pytest.mark.parametrize("delta", [np.inf, -np.inf, np.nan, 0.0, None, True, "3"])
def test_nonfinite_or_nonpositive_delta_is_rejected(delta):
    # an infinite delta used to build a quantizer whose measure failed on "finite input";
    # True built a quantizer of width 1
    with pytest.raises(ValueError, match="delta must be finite and positive"):
        UniformQuantizer(delta)


def test_quantizers_own_their_mu():
    assert UniformQuantizer(3.0).mu == 1.0
    assert OneBitQuantizer(2.5).mu == 2.5
    for T in (np.inf, np.nan, 0.0, True, "3"):  # True built a range of 1, "3" raised a bare TypeError
        with pytest.raises(ValueError, match="T must be finite and positive"):
            OneBitQuantizer(T)


@settings(deadline=None, max_examples=200)
@given(
    x=st.floats(min_value=-1e6, max_value=1e6),
    delta=st.floats(min_value=1e-3, max_value=1e3),
)
def test_midriser_residual_bound(x, delta):
    q = UniformQuantizer(delta).quantize(x)
    assert abs(q - x) <= delta / 2 + 1e-9 * delta


# Scaling by a power of two is exact in floating point, so Q(c x, c Delta) and
# c Q(x, Delta) round identically and must agree bit for bit. For a general c,
# c x and c Delta round independently and the two sides can fall in different
# cells at a cell edge (x=1.01, Delta=0.01, c=0.01 gives 0.01005 vs 0.01015).
# Subnormal x is excluded because c x could underflow to a signed zero.
@settings(deadline=None, max_examples=100)
@given(
    x=st.floats(min_value=-1e3, max_value=1e3, allow_subnormal=False),
    delta=st.floats(min_value=1e-2, max_value=1e2),
    c=st.integers(min_value=-7, max_value=7).map(lambda k: 2.0**k),
)
def test_scale_equivariance(x, delta, c):
    assert UniformQuantizer(c * delta).quantize(c * x) == c * UniformQuantizer(delta).quantize(x)


def test_cell_edges():
    # A point on a cell edge k * Delta belongs to the cell above it, before
    # and after scaling by a power of two.
    for delta in (0.25, 1.0, 3.0):
        for k in (-3, -1, 0, 1, 4):
            for c in (0.125, 1.0, 8.0):
                assert UniformQuantizer(c * delta).quantize(c * k * delta) == c * (k + 0.5) * delta


def test_one_bit_quantize():
    q = OneBitQuantizer(1.0)
    assert q.quantize(3.7) == 1.0
    assert q.quantize(-1e-12) == -1.0
    assert q.quantize(0.0) == 1.0  # tie-break convention
    assert type(q.quantize(0.0)) is np.float64
    with pytest.raises(ValueError):
        q.quantize(np.nan)


def test_dither_supports():
    rng = substream(0, "d")
    sym = OneBitQuantizer(5.0).dither(rng, 10000)
    assert np.all((sym >= -5.0) & (sym <= 5.0))
    half = UniformQuantizer(2.0).dither(rng, 10000)
    assert np.all((half > -1.0) & (half <= 1.0))


def test_dither_draws_pinned():
    # The seed contract: each dither is a fixed map of the substream's uniforms.
    delta, T, n = 2.5, 4.0, 1000

    def draw(q):
        return q.dither(substream(8, "pin"), n)

    u = substream(8, "pin").random((3, n))
    np.testing.assert_array_equal(draw(UniformQuantizer(delta)), delta * (u[0] - 0.5))
    np.testing.assert_array_equal(draw(OneBitQuantizer(T)), T * (2.0 * u[0] - 1.0))


def test_measure_zero_signal_uniform():
    rng = substream(2, "m")
    A = sample_measurements("gaussian", 500, 10, rng)
    y = measure(A @ np.zeros(10), UniformQuantizer(2.0), rng)
    assert np.all(np.isin(y, (-1.0, 1.0)))
    # outputs are odd multiples of delta/2
    ratio = y / 1.0
    assert np.all(np.mod(ratio, 2) == 1)


def test_measure_zero_signal_one_bit_mean():
    rng = substream(3, "m")
    A = sample_measurements("gaussian", 10**5, 5, rng)
    y = measure(A @ np.zeros(5), OneBitQuantizer(4.0), rng)
    assert abs(np.mean(y)) < 0.02


def test_measure_scalar_enumeration():
    # n = 1, a = 1, x0 = 10, delta = 2: Q(10 + tau) with tau in (-1, 1] is 9 or 11
    rng = substream(4, "m")
    y = measure(np.full(200, 10.0), UniformQuantizer(2.0), rng)
    assert set(np.unique(y)) <= {9.0, 11.0}


def test_measure_pairing_errors():
    # the channel takes the vector A x0: a matrix, a column or a scalar is refused
    rng = substream(5, "m")
    for Ax in (sample_measurements("gaussian", 10, 4, rng), np.zeros((10, 1)), 0.0):
        with pytest.raises(ValueError, match="measure takes the vector A x0"):
            measure(Ax, UniformQuantizer(2.0), rng)


def test_quantization_noise_bounds():
    rng = substream(6, "m")
    A = sample_measurements("gaussian", 2000, 20, rng)
    x0 = rng.standard_normal(20)
    delta = 1.5
    y = measure(A @ x0, UniformQuantizer(delta), rng)
    e = 1.0 * y - A @ x0  # the estimator-facing discrepancy mu y - A x0, with mu = 1
    assert np.all(np.abs(e) <= delta)


def test_quantization_noise_one_bit_zero_signal():
    rng = substream(7, "m")
    A = sample_measurements("gaussian", 100, 3, rng)
    T = 4.0
    y = measure(A @ np.zeros(3), OneBitQuantizer(T), rng)
    e = T * y - A @ np.zeros(3)
    assert set(np.unique(e)) <= {-T, T}


def test_one_bit_mean_formula_values():
    T = 4.0
    assert OneBitQuantizer(T).bias(0.5 * T) == 0.0
    assert OneBitQuantizer(T).bias(2 * T) == -T
    assert OneBitQuantizer(T).bias(-3 * T) == 2 * T
    for bad in (0.0, np.inf, True):  # the quantizers' rule; inf gave nan and True a range of 1
        with pytest.raises(ValueError, match="T must be finite and positive"):
            OneBitQuantizer(bad)


# (s, T, E[eta^2], E[xi^2], E[xi]) as float.hex, at every (||x0||, T) of verify.MOMENT_PAIRS and at
# (0, 4) and (0.1, 50), from the closed forms before they moved onto the quantizer
PINNED_MOMENTS = (
    (0.5, 2.0, "0x1.e00109ad7954bp+1", "0x1.a014a7a14ebecp+1", "-0x1.09ad7954afffep-15"),
    (1.0, 1.5, "0x1.84691b62591fcp+0", "0x1.a8576c71c99b0p-1", "-0x1.11a46d89647f0p-3"),
    (1.0, 2.0, "0x1.8ba5e7c164ec3p+1", "0x1.b4763f63fe748p+0", "-0x1.74bcf82c9d863p-5"),
    (1.0, 3.0, "0x1.002c3bc3f30b7p+3", "0x1.8470bcd3aaaacp+2", "-0x1.61de1f985b5dcp-9"),
    (1.0, 6.0, "0x1.1800000087987p+5", "0x1.08000015292a2p+5", "-0x1.0f30ef0092d57p-29"),
    (2.0, 6.0, "0x1.002c3bc3f30b7p+5", "0x1.8470bcd3aaaacp+4", "-0x1.61de1f985b5dcp-8"),
    (4.0, 6.0, "0x1.84691b62591fcp+4", "0x1.a8576c71c99b0p+3", "-0x1.11a46d89647f0p-1"),
    (4.0, 8.0, "0x1.8ba5e7c164ec3p+5", "0x1.b4763f63fe748p+4", "-0x1.74bcf82c9d863p-3"),
    (4.0, 12.0, "0x1.002c3bc3f30b7p+7", "0x1.8470bcd3aaaacp+6", "-0x1.61de1f985b5dcp-7"),
    (4.0, 24.0, "0x1.1800000087987p+9", "0x1.08000015292a2p+9", "-0x1.0f30ef0092d57p-27"),
    (8.0, 12.0, "0x1.84691b62591fcp+6", "0x1.a8576c71c99b0p+5", "-0x1.11a46d89647f0p+0"),
    (8.0, 24.0, "0x1.002c3bc3f30b7p+9", "0x1.8470bcd3aaaacp+8", "-0x1.61de1f985b5dcp-6"),
    (8.0, 26.0, "0x1.3212e86fd7d03p+9", "0x1.e6219e65f6e95p+8", "-0x1.2e86fd7d03409p-7"),
    (8.0, 48.0, "0x1.1800000087987p+11", "0x1.08000015292a2p+11", "-0x1.0f30ef0092d57p-26"),
    (0.0, 4.0, "0x1.0000000000000p+4", "0x1.0000000000000p+4", "-0x0.0p+0"),
    (0.1, 50.0, "0x1.387fae147ae15p+11", "0x1.387f0a3d70a3dp+11", "-0x0.0p+0"),
)
# (x, bias) as float.hex at the six points of verify.one_bit_bias, T = 4
PINNED_BIAS = ((0.0, "0x0.0p+0"), (2.0, "0x0.0p+0"), (8.0, "-0x1.0000000000000p+2"), (-8.0, "0x1.0000000000000p+2"),
               (12.0, "-0x1.0000000000000p+3"), (-12.0, "0x1.0000000000000p+3"))


def test_one_bit_closed_forms_are_pinned():
    # bitwise, signed zeros included: a rewrite of a closed form may not move its last bit
    for s, T, *moments in PINNED_MOMENTS:
        assert [v.hex() for v in OneBitQuantizer(T).moments(s)] == moments, (s, T)
    for x, bias in PINNED_BIAS:
        assert OneBitQuantizer(4.0).bias(x).hex() == bias, x
    assert set(MOMENT_PAIRS) <= {(s, T) for s, T, *_ in PINNED_MOMENTS}
