"""PCG64 streams seeded from many ``SeedSequence`` keys at once.

``seed_states`` gives each row of uint32 words (``int_words`` splits an int
key part into them) the seed PCG64 draws from ``SeedSequence(words)``, by
numpy's own hash on all rows in one pass. ``generator`` builds the stream
from such a seed, so a ``Generator`` costs no ``SeedSequence``. Importing
this module loads ``numpy.random``.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    return np.array([init * pow(mult, j, 2**32) % 2**32 for j in range(n + 1)], np.uint32)


def int_words(value) -> list[int]:
    """The 32-bit little-endian words ``SeedSequence`` reads an int >= 0 as (0 is one word)."""
    value = int(value)
    return [value >> s & 0xFFFFFFFF for s in range(0, max(value.bit_length(), 1), 32)]


def seed_states(words: np.ndarray) -> np.ndarray:
    """Row i is ``SeedSequence(words[i]).generate_state(4, np.uint64)``.

    SeedSequence's own hash, on uint32 arrays whose products wrap as its do:
    each step runs on every row at once. ``words`` is a 2-D uint32 array of
    at least four columns; a wider dtype's products would not wrap at 2**32.
    """
    if words.ndim != 2 or words.dtype != np.uint32 or words.shape[1] < 4:
        raise ValueError(f"seed_words_not_uint32: {words.dtype} {words.shape}")
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
