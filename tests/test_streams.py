"""Pinned substream outputs: any change to how (seed, *keys) becomes a stream fails here
before it silently changes every draw, CSV and golden value."""

import numpy as np
import pytest

from qlasso import substream

# (master_seed, *keys) -> the first two raw 64-bit words of the stream's PCG64
PINNED = {
    (0, 200, 0, "signal"): (0x0FCF8DE11C2C2E7B, 0x3AB0CE7F7826AD96),
    (0, 200, 0, "matrix"): (0x15274F135AD2EA59, 0x8BB3A7D447CB403A),
    (0, 200, 0, "dither"): (0xDD246B5A5A07CD5E, 0x769325B22CD0ED78),
    (20240901, 8000, 199, "matrix"): (0x0D8AE062D300C08B, 0x121536167E0F5C72),
    (7, "verify-solver", 3, "signal"): (0x5C1E524544FC9875, 0x99E28CCA1C14BC79),
    # a negative seed and a key past 2^64 are reduced mod 2^64
    (-1, 2**64 + 5, "dither"): (0x150A0D6FBAC8C7DF, 0x195AFF342D1546D9),
}


@pytest.mark.parametrize("keys", list(PINNED), ids=repr)
def test_substream_is_pinned(keys):
    assert tuple(int(v) for v in substream(*keys).bit_generator.random_raw(2)) == PINNED[keys]


def test_integer_keys_are_reduced_mod_2_64():
    words = substream(2**64 - 1, 5, "dither").bit_generator.random_raw(2)
    assert tuple(int(v) for v in words) == PINNED[(-1, 2**64 + 5, "dither")]


@pytest.mark.parametrize("bad", [0.5, 2.0, np.float64(1.0), True, False, None, b"dither"],
                         ids=["float", "integral-float", "numpy-float", "True", "False", "None", "bytes"])
def test_non_integer_keys_and_seeds_raise(bad):
    # int(0.5) is 0 and int(True) is 1, so these used to alias an integer's stream
    with pytest.raises(ValueError, match="strings or integers"):
        substream(1, bad)
    with pytest.raises(ValueError, match="strings or integers"):
        substream(bad, "x")


def test_numpy_integer_keys_and_seeds_are_integers():
    words = substream(np.uint64(0), np.int32(200), np.int64(0), "dither").bit_generator.random_raw(2)
    assert tuple(int(v) for v in words) == PINNED[(0, 200, 0, "dither")]
