"""Shared generators for the seeded property sweeps, and a spectrum fault."""

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


def shift_lowest_eigenvalue(monkeypatch, shift: float) -> None:
    """Make np.linalg.eigh lower each lowest eigenvalue by shift."""
    eigh = np.linalg.eigh

    def shifted(a):
        e, v = eigh(a)
        e = e.copy()
        e[..., 0] -= shift
        return e, v

    monkeypatch.setattr(np.linalg, "eigh", shifted)
