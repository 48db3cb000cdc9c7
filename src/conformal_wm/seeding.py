"""PCG64 streams seeded from many ``SeedSequence`` keys at once.

``seed_states`` gives each key's ``SeedSequence(key).generate_state(4,
np.uint64)``, the seed PCG64 draws from its seed sequence, computed with
numpy's own hash on uint32 arrays for all keys in one pass. ``generator``
builds the stream from such a row, so a ``Generator`` costs no
``SeedSequence``. Importing this module loads ``numpy.random``.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    return np.array([init * pow(mult, j, 2**32) % 2**32 for j in range(n + 1)], np.uint32)


def _pool_states(words: np.ndarray) -> np.ndarray:
    """Row i is ``SeedSequence(words[i]).generate_state(4, np.uint64)``.

    SeedSequence's own hash, on uint32 arrays whose products wrap as its do:
    each step runs on every row at once. Rows hold at least four words.
    """
    n = words.shape[1]
    c = _hash_consts(_INIT_A, _MULT_A, 16 + 4 * (n - 4))

    def hashmix(v, j, k):  # hashmix calls j to j + k - 1, one per output column
        v = (v ^ c[j:j + k]) * c[j + 1:j + k + 1]
        return v ^ (v >> 16)

    def mix(x, y):
        r = x * _MIX_L - y * _MIX_R
        return r ^ (r >> 16)

    pool = hashmix(words[:, :4], 0, 4)
    for src in range(4):  # mix every pool word into the three others
        dst = [d for d in range(4) if d != src]
        pool[:, dst] = mix(pool[:, dst], hashmix(pool[:, src, None], 4 + 3 * src, 3))
    for src in range(4, n):  # then each further word into all four
        pool = mix(pool, hashmix(words[:, src, None], 4 * src, 4))
    k = _hash_consts(_INIT_B, _MULT_B, 8)
    out = (np.tile(pool, 2) ^ k[:8]) * k[1:]
    return (out ^ (out >> 16)).view("<u8").astype(np.uint64, copy=False)


def seed_states(keys: np.ndarray) -> np.ndarray:
    """Row i is ``SeedSequence(list(keys[i])).generate_state(4, np.uint64)``.

    ``keys`` is a 2-D array of nonnegative ints (an object array holds ints
    of any size). A list's ints are read as 32-bit little-endian words (0 as
    one word); keys of equally many words are hashed in one pass.
    """
    if keys.dtype != object and keys.max(initial=0) < 2**32:  # one word per part
        return _pool_states(keys.astype(np.uint32))
    packed = [b"".join(v.to_bytes(4 * max(1, (v.bit_length() + 31) // 32), "little")
                       for v in key) for key in keys.tolist()]
    states = np.empty((len(packed), 4), dtype=np.uint64)
    for size in set(map(len, packed)):
        rows = [i for i, b in enumerate(packed) if len(b) == size]
        words = np.frombuffer(b"".join(packed[i] for i in rows), dtype="<u4")
        states[rows] = _pool_states(words.reshape(len(rows), -1).astype(np.uint32))
    return states


class SeedRow(ISeedSequence):
    """A precomputed seed: the one ``generate_state`` call PCG64 makes."""

    def __init__(self, row: np.ndarray):
        self.row = row

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"seed_row_is_4_uint64: asked {n_words} x {dtype}")
        return self.row


def generator(row: np.ndarray) -> np.random.Generator:
    """The PCG64 stream whose ``SeedSequence.generate_state(4, np.uint64)`` is ``row``."""
    return np.random.Generator(np.random.PCG64(SeedRow(row)))
