"""Shared generators for the seeded property sweeps, chain payloads, and a spectrum fault."""

import numpy as np

from ctqw import spectral, walk
from ctqw.rng import rng_stream


def random_hermitian(rng, dim: int) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (a + a.conj().T)


def random_state(rng, dim: int) -> walk.PureState:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return walk.pure_state(v / np.linalg.norm(v))


def instance_stream(seed: int, count: int, dim_lo: int = 2, dim_hi: int = 8):
    """Yield (rng, dim, H, psi0, y) tuples, one per derived stream."""
    for i in range(count):
        rng = rng_stream(seed, i)
        dim = int(rng.integers(dim_lo, dim_hi + 1))
        h = random_hermitian(rng, dim)
        yield rng, dim, h, random_state(rng, dim), random_state(rng, dim)


def partition_of(dec: spectral.SpectralDecomposition) -> spectral.EigenspacePartition:
    """The eigenspace partition of a decomposition's eigenvalues at the walk's tolerance."""
    e = dec.eigenvalues
    return spectral.group_eigenspaces(e, spectral.degeneracy_tol(e[-1] - e[0]))


def rows_of(table: dict) -> list:
    """The dict rows of a table of equal-length columns, cells as Python scalars."""
    columns = {key: column.tolist() for key, column in table.items()}
    return [dict(zip(columns, cells)) for cells in zip(*columns.values())]


def birth_death_payload(n: int) -> dict:
    """Chain file of the walk on 0..n-1 that steps up with 3/4 and down with
    1/4, holding at the ends: pi_i is proportional to 3^i. Marks vertex 0."""
    p = np.zeros((n, n))
    for i in range(n):
        p[i, min(i + 1, n - 1)] += 0.75
        p[i, max(i - 1, 0)] += 0.25
    return {"n": n, "format": "dense", "data": p.tolist(), "marked": 0}


def cube_quotient_payload(d: int) -> dict:
    """Chain file of the d-cube's walk lumped by Hamming weight, w -> w + 1
    with (d - w)/d: pi_w = C(d, w) / 2^d. Periodic; marks weight 0."""
    p = np.zeros((d + 1, d + 1))
    w = np.arange(d)
    p[w, w + 1] = (d - w) / d
    p[w + 1, w] = (w + 1) / d
    return {"n": d + 1, "format": "dense", "data": p.tolist(), "marked": 0}


def bottleneck_payload(w: float) -> dict:
    """Chain file of two 8-cliques joined by the one edge (7, 8) of weight w;
    marks vertex 15."""
    edges = [[i, j, 1.0] for base in (0, 8) for i in range(base, base + 8) for j in range(i + 1, base + 8)]
    return {"n": 16, "format": "weighted-graph", "data": edges + [[7, 8, w]], "marked": 15}
