"""Deterministic random streams.

All randomness in the package flows through Philox, a counter-based bit
generator: a stream is fully determined by (seed, *path), so independent
tasks can draw from disjoint streams without coordination and reruns are
bit-reproducible on any platform.

rng_stream hashes (seed, *path) into the Philox key with numpy's
SeedSequence. For many sibling streams (seed, *path, i), stream_keys runs
that hash for all i at once, and set_stream resets one Philox generator
(any, such as rng_stream(0)) to the start of each key's stream:
rng_stream's draws, with no SeedSequence or generator per stream.
"""
from __future__ import annotations

import numpy as np

from .errors import ValidationError, check_count

__all__ = ["rng_stream", "stream_keys", "set_stream", "task_seed", "RNG_NAME"]

RNG_NAME = "philox"

# SeedSequence's hash (numpy/random/bit_generator.pyx): the pool's and the
# output's first hash constants and their multipliers, and mix's two factors
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _check_stream(seed: int, path: tuple) -> None:
    """seed and the path components must be non-negative integers (ValidationError otherwise)."""
    check_count(seed, "seed", least=0)
    for p in path:
        check_count(p, "stream path component", least=0)


def rng_stream(seed: int, *path: int) -> np.random.Generator:
    """Return the Philox generator for stream (seed, *path).

    seed and the path components must be non-negative integers
    (ValidationError otherwise); path components select independent
    substreams (per task, per instance, per shot batch).
    """
    _check_stream(seed, path)
    ss = np.random.SeedSequence((int(seed),) + tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def _pool_keys(words: np.ndarray) -> np.ndarray:
    """SeedSequence(column).generate_state(2, np.uint64) of each column of an
    (L, n) uint32 array of entropy words. The hash constants step alike for
    every column, so each step of the pool of four is one uint32 array
    operation, wrapping around as SeedSequence's C does."""
    words = np.vstack([words, np.zeros((max(0, 4 - len(words)), words.shape[1]), dtype=np.uint32)])
    a, b = [_INIT_A], [_INIT_B]
    while len(a) <= 4 * len(words):
        a.append(a[-1] * _MULT_A & 0xFFFFFFFF)
    while len(b) <= 4:
        b.append(b[-1] * _MULT_B & 0xFFFFFFFF)
    a, b = np.array(a, dtype=np.uint32)[:, None], np.array(b, dtype=np.uint32)[:, None]

    def hashmix(values, c, at, rows):
        v = (values ^ c[at : at + rows]) * c[at + 1 : at + rows + 1]
        return v ^ v >> 16

    def mix(x, y):
        r = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
        return r ^ r >> 16

    # the pool from the first four words, each pool word into the other three, then each later word into all
    pool, at = hashmix(words[:4], a, 0, 4), 4
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[dst], at = mix(pool[dst], hashmix(pool[src], a, at, 3)), at + 3
    for word in words[4:]:
        pool, at = mix(pool, hashmix(word, a, at, 4)), at + 4
    state = hashmix(pool, b, 0, 4).astype(np.uint64)
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=1)


def stream_keys(seed: int, *path: int, indices) -> np.ndarray:
    """The (n, 2) uint64 Philox keys of rng_stream(seed, *path, i) for the
    indices i, a 1-d array of integers in [0, 2^64): SeedSequence's hash of
    all of them at once, seed and path checked as by rng_stream. SeedSequence
    takes each integer as its uint32 words, least significant first, so the
    indices below 2^32 and the others are hashed apart."""
    _check_stream(seed, path)
    head = []
    for value in (int(seed), *map(int, path)):
        head.append(value & 0xFFFFFFFF)
        while value := value >> 32:
            head.append(value & 0xFFFFFFFF)
    i = np.asarray(indices)
    if i.ndim != 1 or i.dtype.kind not in "iu" or (i.size and i.min() < 0):
        raise ValidationError(f"stream indices must be a 1-d array of integers in [0, 2^64), got {i!r}")
    u = i.astype(np.uint64)
    low, high = (u & np.uint64(0xFFFFFFFF)).astype(np.uint32), (u >> np.uint64(32)).astype(np.uint32)
    keys = np.empty((i.size, 2), dtype=np.uint64)
    for at, tail in ((high == 0, [low]), (high != 0, [low, high])):
        if at.any():
            keys[at] = _pool_keys(np.array([np.full(np.count_nonzero(at), w, dtype=np.uint32) for w in head] + [t[at] for t in tail]))
    return keys


def set_stream(generator: np.random.Generator, key) -> np.random.Generator:
    """generator, reset to the start of the stream with this key (its two
    words, fastest as a list of ints): a zero counter and an empty buffer,
    as rng_stream builds it."""
    generator.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": key},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return generator


def task_seed(seed: int, *path: int) -> int:
    """Integer seed for the task at path, for APIs that take an integer seed.

    Drawn from its own Philox stream keyed by the path and its length, so
    distinct paths (including (s, 0) and (s, 0, 0), which rng_stream maps to
    one stream) give unrelated seeds, and nearby base seeds share none.
    """
    return int(rng_stream(seed, len(path), *path).integers(0, 2**63))
