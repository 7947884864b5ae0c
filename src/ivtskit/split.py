"""Stratified train/test split.

Each class's shuffle is drawn from a pure-Python copy of
``np.random.default_rng([seed, _SPLIT_STREAM]).permutation(k)``: NumPy's
``SeedSequence`` hash mixing, PCG64 (O'Neill, *PCG: A Family of Simple Fast
Space-Efficient Statistically Good Algorithms for Random Number Generation*,
HMC-CS-2014-0905) with XSL-RR output, the buffered 32-bit draw, the masked
rejection of ``random_interval`` and ``Generator.shuffle``'s Fisher–Yates
pass.  Owning the stream keeps ``numpy.random`` (about 6 MB) out of every
``classify`` launch and ties the split's bytes to this module rather than to
the installed numpy, whose ``Generator`` streams may change between releases
(NEP 19).  ``tests/test_oracles.py`` pins the copy to numpy's stream.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterator, Sequence

from .errors import DataError

# Stream tag separating split shuffles from item generation streams.
_SPLIT_STREAM = 24301

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# SeedSequence's hash constants (numpy/random/bit_generator.pyx), pool of 4 words.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _seed_state(key: Sequence[int]) -> list[int]:
    """``SeedSequence(key).generate_state(8, np.uint32)``."""
    entropy = []  # each int as its little-endian 32-bit words, at least one
    for n in map(int, key):
        if n < 0:
            raise ValueError(f"expected non-negative integer, got {n}")
        entropy.append(n & _M32)
        while n := n >> 32:
            entropy.append(n & _M32)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _M32
        value = (value * hash_const) & _M32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return r ^ (r >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    state, hash_const = [], _INIT_B
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _M32
        value = (value * hash_const) & _M32
        state.append(value ^ (value >> 16))
    return state


def _pcg64_start(key: Sequence[int]) -> tuple[int, int]:
    """The (state, inc) that ``PCG64(SeedSequence(key))`` starts from."""
    w = _seed_state(key)
    # four uint64 words, each a (low, high) pair of the uint32 words; the seed
    # is words 0 and 1 and the sequence words 2 and 3, each read high word first
    u = [w[2 * i] | w[2 * i + 1] << 32 for i in range(4)]
    initstate, initseq = u[0] << 64 | u[1], u[2] << 64 | u[3]
    inc = (initseq << 1 | 1) & _M128
    # pcg_setseq_128_srandom_r: step from 0, add the seed, step again
    return ((inc + initstate) * _PCG_MULT + inc) & _M128, inc


def _draws32(state: int, inc: int) -> Iterator[int]:
    """The 32-bit draws of a PCG64 started at (state, inc), as numpy's
    ``Generator`` takes them: each 64-bit XSL-RR output gives its low half,
    then its high half."""
    while True:
        state = (state * _PCG_MULT + inc) & _M128
        rot = state >> 122
        x = ((state >> 64) ^ state) & _M64
        x = (x >> rot | x << (64 - rot)) & _M64
        yield x & _M32
        yield x >> 32


def _permutation(draws: Iterator[int], k: int) -> list[int]:
    """``Generator.permutation(k)`` from its 32-bit draws: Fisher–Yates from
    i = k - 1 down to 1, each j drawn by masked rejection from [0, i].  numpy
    draws 64 bits for i above 2**32 - 1, a list too large to hold, so that
    branch is absent."""
    perm = list(range(k))
    for i in range(k - 1, 0, -1):
        mask = (1 << i.bit_length()) - 1
        while (j := next(draws) & mask) > i:
            pass
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def split_indices(
    labels: Sequence[int], train_fraction: float, seed: int = 0
) -> tuple[list[int], list[int]]:
    """Stratified index split; both lists come back in ascending order."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must lie in (0, 1), got {train_fraction}")
    by_class: dict[int, list[int]] = defaultdict(list)
    for idx, label in enumerate(labels):
        by_class[label].append(idx)
    draws = _draws32(*_pcg64_start([seed, _SPLIT_STREAM]))
    train_idx: list[int] = []
    test_idx: list[int] = []
    for label in sorted(by_class):
        idx = by_class[label]
        if len(idx) < 2:
            raise DataError(
                f"class {label} has {len(idx)} item(s); need at least 2 to split"
            )
        n_train = int(round(train_fraction * len(idx)))
        n_train = min(max(n_train, 1), len(idx) - 1)
        chosen = {idx[p] for p in _permutation(draws, len(idx))[:n_train]}
        train_idx.extend(i for i in idx if i in chosen)
        test_idx.extend(i for i in idx if i not in chosen)
    return sorted(train_idx), sorted(test_idx)
