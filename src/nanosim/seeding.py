"""Per-path random generators for the stochastic engine, seeded all at once.

Path k of a run with seed s draws from ``default_rng(SeedSequence([s, k]))``
(``stochastic._rng_for_path``). Built one at a time, each such generator
costs about 20 us, nearly all of it numpy's ``SeedSequence`` hash run in
Python for that one path. :func:`path_rngs` runs the same hash (O'Neill's
seed_seq_fe, as numpy implements it) on uint32 arrays over all paths at
once and hands each PCG64 its seed words, so every path gets the same
generator state as before.

This module imports ``numpy.random``; the stochastic engine imports it on
its first run, not when nanosim is imported.
"""

from __future__ import annotations

from typing import List

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# constants of numpy's SeedSequence hash
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_WORDS = 4


def _hash(words: np.ndarray, const: int, mult: int):
    """One step of the hash on uint32 words: the hashed words and the
    next constant."""
    words = words ^ np.uint32(const)
    const = const * mult & _MASK32
    words = words * np.uint32(const)
    return words ^ (words >> np.uint32(16)), const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return r ^ (r >> np.uint32(16))


def seed_words(seed: int, paths: int) -> np.ndarray:
    """``SeedSequence([seed, p]).generate_state(4, np.uint64)`` for every
    path p < ``paths`` (paths x 4)."""
    s = int(seed)
    if s < 0:
        raise ValueError("expected non-negative integer")
    entropy = []                      # 32-bit words of seed, then of p
    while True:
        entropy.append(np.full(paths, s & _MASK32, dtype=np.uint32))
        s >>= 32
        if not s:
            break
    entropy.append(np.arange(paths, dtype=np.uint32))
    zero = np.zeros(paths, dtype=np.uint32)
    const, pool = _INIT_A, []
    for i in range(_POOL_WORDS):
        word, const = _hash(entropy[i] if i < len(entropy) else zero, const, _MULT_A)
        pool.append(word)
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                word, const = _hash(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], word)
    for src in range(_POOL_WORDS, len(entropy)):
        for dst in range(_POOL_WORDS):
            word, const = _hash(entropy[src], const, _MULT_A)
            pool[dst] = _mix(pool[dst], word)
    state, const = np.empty((paths, 8), dtype=np.uint32), _INIT_B
    for i in range(8):
        state[:, i], const = _hash(pool[i % _POOL_WORDS], const, _MULT_B)
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _SeedWords(ISeedSequence):
    """Seed sequence that hands PCG64 seed words computed beforehand."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("only PCG64's 4 uint64 seed words are held")
        return self.words


def path_rngs(seed: int, paths: int) -> List[np.random.Generator]:
    """The generators of paths 0 .. ``paths`` - 1 of a run with ``seed``."""
    return [np.random.Generator(np.random.PCG64(_SeedWords(w)))
            for w in seed_words(seed, paths)]
