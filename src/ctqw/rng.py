"""Deterministic random streams.

All randomness in the package flows through Philox, a counter-based bit
generator: a stream is fully determined by (seed, *path), so independent
tasks can draw from disjoint streams without coordination and reruns are
bit-reproducible on any platform.
"""
from __future__ import annotations

import numpy as np

from .errors import check_count

__all__ = ["rng_stream", "task_seed", "RNG_NAME"]

RNG_NAME = "philox"


def rng_stream(seed: int, *path: int) -> np.random.Generator:
    """Return the Philox generator for stream (seed, *path).

    seed and the path components must be non-negative integers
    (ValidationError otherwise); path components select independent
    substreams (per task, per instance, per shot batch).
    """
    check_count(seed, "seed", least=0)
    for p in path:
        check_count(p, "stream path component", least=0)
    ss = np.random.SeedSequence((int(seed),) + tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def task_seed(seed: int, *path: int) -> int:
    """Integer seed for the task at path, for APIs that take an integer seed.

    Drawn from its own Philox stream keyed by the path and its length, so
    distinct paths (including (s, 0) and (s, 0, 0), which rng_stream maps to
    one stream) give unrelated seeds, and nearby base seeds share none.
    """
    return int(rng_stream(seed, len(path), *path).integers(0, 2**63))
