"""Deterministic named random streams.

A single root seed is expanded into independent per-(stream, epoch)
generators through numpy's SeedSequence scheme, so that e.g. the
measurement-noise realization of epoch 312 is identical no matter which
protocol variant runs, how many network draws other epochs consumed, or
in which order runs execute.

The generator of (stream, epoch) is `PCG64` seeded with the four 64-bit
words that `np.random.SeedSequence(entropy=root_seed, spawn_key=(stream id,
epoch)).generate_state(4, np.uint64)` returns. Building one SeedSequence per
generator costs more than the generator, so `_seed_block` computes those
words for `SEED_BLOCK` consecutive epochs at once with numpy uint32
arithmetic, following SeedSequence's hash mix (pool size 4, fixed
constants), and a small LRU cache keeps the last few blocks. The entropy it
mixes is the root's 32-bit words, zero-padded to the pool size, then the
stream id, then the epoch's words, least significant first.
`np.random.SeedSequence` itself is the oracle in the tests, which compare
generator states and draws for large roots, both block edges and epochs
past 2**32.
"""

from __future__ import annotations

import operator
from functools import lru_cache

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# fixed stream ids; never reorder, they are part of the reproducibility contract
STREAMS = {
    "noise": 1,        # sensor measurement noise
    "network": 2,      # per-slot flood/reception outcomes
    "event": 3,        # event-phase detection draws
    "falsepos": 4,     # spurious detections in quiet epochs
}

# epochs per cached block of seed words: 256 rows of four uint64 words, 8 KiB;
# a power of two below 2**32, so a block never spans a change of epoch width
SEED_BLOCK = 256

# SeedSequence's hash-mix constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A = 0x43b0d7e5
_MULT_A = 0x931e8875
_INIT_B = 0x8b51f9dd
_MULT_B = 0x58f38ded
_MIX_MULT_L = 0xca01f9dd
_MIX_MULT_R = 0x4973f715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


def _words(n: int) -> list[int]:
    """The 32-bit words of n >= 0, least significant first (one for 0)."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


# Both steps take a Python int or a uint32 array. Every product is masked to
# 32 bits, so Python ints wrap as uint32 does and an array meets only ints
# below 2**32.

def _hashmix(value, hash_const: int, mult: int):
    """SeedSequence's hashmix: (hashed value, next hash constant)."""
    value = value ^ hash_const
    hash_const = hash_const * mult & _MASK32
    value = value * hash_const & _MASK32
    return value ^ value >> _XSHIFT, hash_const


def _mix(x, y):
    result = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return result ^ result >> _XSHIFT


@lru_cache(maxsize=8)
def _seed_block(root_seed: int, stream_id: int, block: int) -> np.ndarray:
    """Seed words of epochs block*SEED_BLOCK + (0..SEED_BLOCK-1), shape
    (SEED_BLOCK, 4) uint64, read-only: row k is what SeedSequence's
    generate_state(4, np.uint64) returns for that epoch."""
    root = _words(root_seed)
    root += [0] * (_POOL_SIZE - len(root))
    epoch = _words(block * SEED_BLOCK)
    # the block start is a multiple of SEED_BLOCK, so adding the row offset
    # to its low word never carries; only that word differs between rows
    low = np.arange(epoch[0], epoch[0] + SEED_BLOCK, dtype=np.uint32)

    pool, hash_const = [], _INIT_A
    for word in root[:_POOL_SIZE]:
        value, hash_const = _hashmix(word, hash_const, _MULT_A)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, hash_const = _hashmix(pool[src], hash_const, _MULT_A)
                pool[dst] = _mix(pool[dst], value)
    for word in root[_POOL_SIZE:] + [stream_id, low] + epoch[1:]:
        for dst in range(_POOL_SIZE):
            value, hash_const = _hashmix(word, hash_const, _MULT_A)
            pool[dst] = _mix(pool[dst], value)

    # generate_state: eight uint32 words cycling over the pool, paired
    # little-endian into four uint64 words
    state, hash_const = [], _INIT_B
    for i in range(2 * _POOL_SIZE):
        value, hash_const = _hashmix(pool[i % _POOL_SIZE], hash_const, _MULT_B)
        state.append(value.astype(np.uint64))
    out = np.stack([state[2 * k] | state[2 * k + 1] << np.uint64(32)
                    for k in range(_POOL_SIZE)], axis=1)
    out.flags.writeable = False
    return out


class _Seeded(ISeedSequence):
    """Hands PCG64 one precomputed row of seed words."""

    __slots__ = ("_state",)

    def __init__(self, state: np.ndarray):
        self._state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self._state


def stream_rng(root_seed: int, stream: str, epoch: int) -> np.random.Generator:
    """Generator for one named stream in one epoch.

    Draw order inside an epoch must be fixed by the caller; independence
    across (stream, epoch) pairs is guaranteed by the seed tree. A negative
    root seed or epoch raises ValueError, as SeedSequence does.
    """
    # as Python ints: numpy integers would warn of overflow in the products
    # of the hash mix, and a float is refused as SeedSequence refuses it
    root_seed, epoch = operator.index(root_seed), operator.index(epoch)
    if root_seed < 0 or epoch < 0:
        raise ValueError(f"root seed and epoch must be >= 0, got {root_seed}, {epoch}")
    block, row = divmod(epoch, SEED_BLOCK)
    return np.random.Generator(np.random.PCG64(
        _Seeded(_seed_block(root_seed, STREAMS[stream], block)[row])))
