"""Oracles that only the tests run: experiments the package no longer carries.

run_traversal is the glued-trees traversal on the full graph. It measures
every vertex of a dense decomposition, shot by shot, with the outer-product
phases exp(-i t E), and recognizes the exit by the degree-2 test alone. The
column-space experiment the CLI runs is gluedtrees.traversal_success_stats.

first_hits_by_round is its first-hit loop one round per sampler call, and
hitting_time_by_grid the hitting time with an exact average at every grid
point: the package draws rounds in batches and screens the grid, to the
same numbers.
"""
from dataclasses import dataclass

import numpy as np

from ctqw import gluedtrees, walk
from ctqw.errors import DegenerateProbabilityError, ValidationError
from ctqw.rng import rng_stream
from ctqw.walk import TimeDistribution


def first_hits_by_round(w, dist: TimeDistribution, rng, runs: int, reps: int, p_shot=None):
    """gluedtrees._first_hits one round at a time: round r = 1..reps draws one
    shot for every run still active through w.sample, and the runs that hit
    stop. p_shot is not read. Returns (used, hit) per run."""
    used = np.full(runs, reps, dtype=np.int64)
    hit = np.zeros(runs, dtype=bool)
    active = np.arange(runs)
    for r in range(1, reps + 1):
        if active.size == 0:
            break
        _, hits = w.sample(dist, rng, active.size)
        used[active[hits]] = r
        hit[active[hits]] = True
        active = active[~hits]
    return used, hit


def hitting_time_by_grid(w: walk.SpectralWalk, T_grid, k: int) -> walk.HittingTimeEstimate:
    """SpectralWalk.hitting_time with an exact average at every grid point."""
    grid = np.asarray(T_grid, dtype=np.float64)
    if grid.ndim != 1 or grid.shape[0] == 0 or np.any(grid <= 0):
        raise ValidationError("T_grid must be a non-empty 1-d array of positive times")
    probs = np.array([w.probability(TimeDistribution(T=float(t), k=k)) for t in grid])
    unreachable = DegenerateProbabilityError(f"all {grid.shape[0]} grid probabilities below 1e-15; target unreachable")
    tau, best = walk._grid_minimum(grid, k, probs, 1e-15, unreachable)
    return walk.HittingTimeEstimate(
        tau=tau,
        argmin_T=float(grid[best]),
        probability_at_argmin=float(probs[best]),
        k_at_argmin=int(k),
        grid_description=f"geometric[{grid[0]:.6g},{grid[-1]:.6g}]x{grid.shape[0]}",
    )


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
