"""Counter-based random substreams for reproducible parallel Monte Carlo.

A master 64-bit seed plus an arbitrary tuple of integer/string keys derives
an independent numpy Generator. Identical (seed, keys) always yields the
same stream, regardless of how many other streams were drawn in between.
Integers (numpy's too, but not bools) are reduced mod 2^64 and strings are
hashed; any other seed or key raises ValueError, so that no float or bool
aliases an integer's stream.
`numpy.random` loads at the first call, not at import, so annotations name it only as strings.
"""

import hashlib
import numbers

import numpy as np

_MASK64 = (1 << 64) - 1


def _key_to_int(key) -> int:
    if isinstance(key, str):
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little")
    if isinstance(key, bool) or not isinstance(key, numbers.Integral):
        raise ValueError(f"substream seeds and keys must be strings or integers, got {key!r}")
    return int(key) & _MASK64


def substream(master_seed: int, *keys) -> "np.random.Generator":
    """Derive an independent random stream from (master_seed, *keys)."""
    entropy = [_key_to_int(k) for k in (master_seed, *keys)]
    return np.random.default_rng(np.random.SeedSequence(entropy))
