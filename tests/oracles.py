"""Oracles that only the tests run: experiments the package no longer carries.

run_traversal is the glued-trees traversal on the full graph. It measures
every vertex of a dense decomposition, shot by shot, with the outer-product
phases exp(-i t E), and recognizes the exit by the degree-2 test alone. The
column-space experiment the CLI runs is gluedtrees.traversal_success_stats.
"""
from dataclasses import dataclass

import numpy as np

from ctqw import gluedtrees, walk
from ctqw.rng import rng_stream
from ctqw.walk import TimeDistribution


@dataclass(frozen=True)
class TraversalRecord:
    two_n: int
    T: float
    k: int
    max_repetitions: int
    success: bool
    repetitions_used: int
    outcome: str
    per_shot_probability: float
    per_shot_floor: float
    certified: bool
    total_evolved_time: float
    time_budget: float
    rng_seed: int


def run_traversal(inst: gluedtrees.GluedTreesInstance, rng_seed: int) -> TraversalRecord:
    """One traversal experiment on the full graph: repeat the randomized-time
    walk from the entrance until the exit is measured or the repetition
    budget of default_schedule runs out.

    The generator is built through oracle queries. Each shot draws its time
    (k uniforms), then one uniform u, and measures the first vertex whose
    cumulative probability exceeds u; none when rounding leaves u past the
    total. Success is recognized by the degree-2 test on the measured label,
    never by peeking at the exit's identity. No shot is drawn past the
    first hit.
    """
    two_n = 2 * (inst.depth + 1)
    T, k, reps = gluedtrees.default_schedule(two_n)
    h, labels = gluedtrees.full_hamiltonian(inst)
    dim = len(labels)
    w = walk.spectral_walk(
        h, walk.basis_state(dim, labels.index(inst.entrance)), walk.basis_state(dim, labels.index(inst.exit))
    )
    dist = TimeDistribution(T=T, k=k)
    p_shot = w.probability(dist)
    floor = 1.0 / reps
    vectors = w.decomposition.eigenvectors
    rng = rng_stream(rng_seed, 11)
    used, outcome, elapsed = reps, "", 0.0
    for r in range(1, reps + 1):
        t = float(rng.random((1, k)).sum(axis=1)[0] * T)
        elapsed += t
        probs = np.abs(vectors @ (np.exp(-1j * np.outer([t], w.energies))[0] * w.c)) ** 2
        i = int(np.searchsorted(np.cumsum(probs), rng.random(), side="right"))
        if i < dim and len(gluedtrees.oracle_neighbors(inst, labels[i])) == 2 and labels[i] != inst.entrance:
            used, outcome = r, labels[i]
            break
    return TraversalRecord(
        two_n=two_n,
        T=T,
        k=k,
        max_repetitions=reps,
        success=bool(outcome),
        repetitions_used=used,
        outcome=outcome,
        per_shot_probability=p_shot,
        per_shot_floor=floor,
        certified=bool(p_shot >= floor - 1e-12),
        total_evolved_time=elapsed,
        time_budget=float(reps) * k * T,
        rng_seed=rng_seed,
    )
