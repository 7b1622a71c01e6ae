"""Derived seeds of numpy's ``SeedSequence``, for every child at once.

``spawned_words(seed, count, n_words)`` equals row by row

    [c.generate_state(n_words, np.uint64)
     for c in np.random.SeedSequence(seed).spawn(count)]

without building a ``SeedSequence``: numpy's entropy hash (pool of 4 words)
runs once on (count,)-shaped ``uint32`` arrays, one lane per child.  numpy
fixes that hash as part of its stream-compatibility guarantee (NEP 19), so
the words are the same bits.  Wrapping arithmetic stays on ``uint32`` arrays;
the hash constants advance as Python ints masked to 32 bits.
"""

from __future__ import annotations

import numpy as np

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_XSHIFT = 16
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _seed_words(seed: int) -> list[int]:
    """The seed's uint32 words, low word first (one word for 0)."""
    words = [seed & _MASK32]
    while seed := seed >> 32:
        words.append(seed & _MASK32)
    return words


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_MULT_L * x - _MIX_MULT_R * y
    return r ^ r >> _XSHIFT


def spawned_words(seed: int, count: int, n_words: int) -> np.ndarray:
    """(count, n_words) uint64: row i is
    ``SeedSequence(seed).spawn(count)[i].generate_state(n_words, np.uint64)``.

    seed >= 0 and 0 <= count < 2^32 are Python ints.  A child's entropy is
    the seed's words zero-padded to the pool size, then its spawn index."""
    words = _seed_words(seed)
    words += [0] * (_POOL_SIZE - len(words))
    entropy = [np.full(count, w, dtype=np.uint32) for w in words]
    entropy.append(np.arange(count, dtype=np.uint32))
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ value >> _XSHIFT

    # every child has more entropy words than the pool holds
    pool = [hashmix(w) for w in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(w))

    state = np.empty((count, 2 * n_words), dtype=np.uint32)
    hash_const = _INIT_B
    for k in range(2 * n_words):
        value = pool[k % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value *= hash_const
        state[:, k] = value ^ value >> _XSHIFT
    # word pairs read as little-endian uint64, as generate_state reads them
    return state.astype("<u4").view("<u8").astype(np.uint64)
