"""Counter-based random substreams for reproducible parallel Monte Carlo.

A master 64-bit seed plus an arbitrary tuple of integer/string keys derives
an independent numpy Generator. Identical (seed, keys) always yields the
same stream, regardless of how many other streams were drawn in between.
`numpy.random` loads at the first call, not at import, so annotations name it only as strings.
"""

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


def _key_to_int(key) -> int:
    if isinstance(key, str):
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little")
    return int(key) & _MASK64


def substream(master_seed: int, *keys) -> "np.random.Generator":
    """Derive an independent random stream from (master_seed, *keys)."""
    entropy = [int(master_seed) & _MASK64] + [_key_to_int(k) for k in keys]
    return np.random.default_rng(np.random.SeedSequence(entropy))
