"""Time-averaged continuous-time quantum walk quantities.

The walk evolves a state under a Hermitian generator for a random time drawn
as the sum of k independent uniforms on [0, T]; measurement statistics are
averaged over that draw. Everything here is exact in the eigenbasis: the
average of exp(-i(E_j - E_k)t) is the characteristic function of the time
law evaluated at the gap, so averaged probabilities and averaged density
operators are finite sums, no numerical integration involved. A quadrature
fallback exists purely as an independent oracle.

Since (e^{ix} - 1)/(ix) = e^{ix/2} sin(x/2)/(x/2), Phi(E_k - E_j) =
conj(g_j) g_k S_jk with one phase g = e^{ikET/2} per energy and a real
symmetric S_jk = sinc((E_k - E_j)T/2)^k, so an exact average is two real
quadratic forms in S: no complex dim x dim matrix, no cancellation.

A SpectralWalk holds one walk read off one eigenbasis: the energies, the
start amplitudes and the target rows. Every exact average, limiting
probability, eigenspace partition (with its gaps) and Monte Carlo
measurement is a method of it, so a spectrum is decomposed, grouped and
gapped once however many times T it is evaluated at. The one-shot
functions below each build one and ask it once.
spectral_walks reads the walks of a whole stack of matrices into a
WalkStack of arrays with the same kernels, bitwise.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from . import spectral
from .errors import DegenerateProbabilityError, InconsistencyError, ValidationError
from .spectral import EigenspacePartition, SpectralDecomposition

__all__ = [
    "PureState",
    "DensityOperator",
    "TimeDistribution",
    "HittingTimeEstimate",
    "SpectralWalk",
    "WalkStack",
    "spectral_walk",
    "spectral_walks",
    "pure_state",
    "density_operator",
    "basis_state",
    "characteristic",
    "avg_probability_exact",
    "avg_projector_probability_exact",
    "avg_probability_quadrature",
    "time_averaged_density",
    "limiting_probability",
    "hitting_time_estimate",
    "geometric_grid",
]

TOL_NORM = 1e-10
TOL_TRACE = 1e-9
TOL_PSD = 1e-9
#: probabilities must land in [-TOL_PROB, 1 + TOL_PROB]
TOL_PROB = 1e-9
#: Monte Carlo shots per chunk: bounds the chunk x (distinct |E|) phase matrix
SAMPLE_CHUNK = 5000


# value records are named tuples: a frozen dataclass costs about three times the import-time memory
class PureState(NamedTuple):
    """A unit vector in the walk Hilbert space, or a (..., dim) stack of them."""

    amplitudes: np.ndarray


def pure_state(vec: np.ndarray) -> PureState:
    v = np.asarray(vec, dtype=np.complex128)
    if v.ndim == 0 or v.shape[-1] == 0:
        raise ValidationError(f"state must be a non-empty vector, got shape {v.shape}")
    norm = np.linalg.norm(v, axis=-1)
    # written ~(x <= tol), so that a NaN fails the check
    bad = ~(np.abs(norm - 1.0) <= TOL_NORM)
    spectral._raise_first(bad, ValidationError, lambda at: f"state norm {norm[at]:.12g} deviates from 1 by more than {TOL_NORM:g}")
    return PureState(amplitudes=v)


def basis_state(dim: int, index: int) -> PureState:
    if not 0 <= index < dim:
        raise ValidationError(f"basis index {index} outside 0..{dim - 1}")
    v = np.zeros(dim, dtype=np.complex128)
    v[index] = 1.0
    return PureState(amplitudes=v)


class DensityOperator(NamedTuple):
    """Hermitian, unit-trace, positive-semidefinite matrix, or a (..., dim, dim) stack of them."""

    entries: np.ndarray


def density_operator(matrix: np.ndarray) -> DensityOperator:
    """Check a matrix, or each matrix of a stack; a failure names its stack index."""
    op = spectral.hermitian(matrix)
    tr = np.trace(op.entries, axis1=-2, axis2=-1).real
    deviates = ~(np.abs(tr - 1.0) <= TOL_TRACE)
    spectral._raise_first(deviates, ValidationError, lambda at: f"trace {tr[at]:.12g} deviates from 1 by more than {TOL_TRACE:g}")
    lo = np.linalg.eigvalsh(op.entries)[..., 0]
    spectral._raise_first(~(lo >= -TOL_PSD), ValidationError, lambda at: f"matrix is not PSD: lowest eigenvalue {lo[at]:.3g}")
    return DensityOperator(entries=op.entries)


@dataclass(frozen=True)
class TimeDistribution:
    """Evolution time t = t_1 + ... + t_k with t_j i.i.d. uniform on [0, T], T finite."""

    T: float
    k: int = 1

    def __post_init__(self):
        if not 0 < self.T < np.inf:
            raise ValidationError(f"T must be positive and finite, got {self.T}")
        if not (isinstance(self.k, (int, np.integer)) and self.k >= 1):
            raise ValidationError(f"k must be an integer >= 1, got {self.k}")


def characteristic(dist: TimeDistribution, r) -> np.ndarray | complex:
    """E[exp(i r t)] for t distributed per dist: ((exp(irT) - 1) / (irT))^k,
    from the half-angle factors at energy r and gap r."""
    x = np.atleast_1d(np.asarray(r, dtype=np.float64))
    g, s = _phase_factors(dist, x, x)
    return complex(g[0] * s[0]) if np.ndim(r) == 0 else g * s


def _phase_factors(dist: TimeDistribution, energies: np.ndarray, gaps: np.ndarray, T=None) -> tuple[np.ndarray, np.ndarray]:
    """Half-angle factors: g = exp(ikET/2) per energy and S = sinc(gap T/2)^k
    per gap, sinc(0) = 1, so Phi(E_k - E_j) = conj(g_j) g_k S_jk at
    gaps[j, k] = +-(E_k - E_j); S is real and even in the gap. Over a stack of
    energies (B, d) and gaps (B, d, d), a (B, 1) column T gives each matrix
    its own T in place of dist.T."""
    T, T_gap = (dist.T, dist.T) if T is None else (T, T[..., None])
    g = np.exp((0.5j * dist.k * T) * energies)
    # two gap-sized buffers: the half-angle arguments, then |sinc|^k in their place
    h = gaps * (0.5 * T_gap)
    s = np.sin(h)
    np.divide(s, h, out=s, where=h != 0)
    s[h == 0] = 1.0
    # pow takes a far slower path on a negative base: raise |sinc|, then restore the sign
    sk = np.abs(s, out=h)
    sk **= dist.k
    return g, (np.copysign(sk, s, out=sk) if dist.k % 2 else sk)


def _gap_matrix(energies: np.ndarray) -> np.ndarray:
    """gaps[..., j, k] = E_j - E_k, per matrix of a (..., d) stack of energies."""
    return energies[..., :, None] - energies[..., None, :]


def _phi(g: np.ndarray, s: np.ndarray, near: np.ndarray) -> np.ndarray:
    """Phi[j, k] = conj(g_j) g_k S_jk from the half-angle factors, exactly 1 on the degenerate pairs near."""
    phi = np.conj(g)[..., :, None] * g[..., None, :] * s
    phi[near] = 1.0
    return phi


def _phi_matrix(dist: TimeDistribution, energies: np.ndarray, tol_degen) -> np.ndarray:
    """Matrix Phi[j, k] = characteristic(E_k - E_j), with exact 1 on
    near-degenerate pairs (|E_k - E_j| <= tol_degen)."""
    gaps = _gap_matrix(energies)
    return _phi(*_phase_factors(dist, energies, gaps), np.abs(gaps) <= tol_degen)


def _degenerate_pairs(near: np.ndarray) -> tuple[tuple, np.ndarray]:
    """The pairs (j, k) with |E_k - E_j| <= tol, j = k included, flagged in a
    (d, d) or (B, d, d) mask: Phi is 1 there. Returns np.nonzero's index
    arrays (stack index first) and each matrix's number of pairs, above 0."""
    return np.nonzero(near), near.reshape(-1, near.shape[-1] ** 2).sum(axis=-1)


def _exact_averages(a: np.ndarray, pairs, g: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Exact time average sum_r sum_{jk} a_rj conj(a_rk) Phi(E_k - E_j) of
    each walk of a stack = sum_r Re(b_r) S Re(b_r) + Im(b_r) S Im(b_r) with
    b = a conj(g), plus Re a_rj conj(a_rk) (1 - conj(g_j) g_k S_jk) on the
    degenerate pairs, where Phi is 1. a holds rows * c, (R, d) for one walk
    or (B, R, d) for a stack, (g, s) the half-angle factors of
    _phase_factors and pairs comes from _degenerate_pairs. Unchecked.
    O(R d^2) time per walk; two real d x d buffers per walk."""
    b = a * np.conj(g)[..., None, :]
    parts = np.concatenate([b.real, b.imag], axis=-2)
    p = ((parts @ s) * parts).reshape(*parts.shape[:-2], -1).sum(axis=-1)
    (*at, j, k), lengths = pairs
    rows = a.swapaxes(0, -2)  # (R, B, d): each pair's Gram entry sums over the rows
    gram = (rows[(slice(None), *at, j)] * np.conj(rows[(slice(None), *at, k)])).sum(axis=0)
    weight = np.real(gram * (1.0 - np.conj(g[(*at, j)]) * g[(*at, k)] * s[(*at, j, k)]))
    return p + spectral._segment_sums(weight, lengths).reshape(p.shape)


def _check_probabilities(p, what: str) -> np.ndarray:
    """p, each entry checked to lie in [0, 1] up to TOL_PROB (NaN fails); in a
    stack the error names the first failing entry's index."""
    p = np.asarray(p, dtype=np.float64)
    outside = ~((p >= -TOL_PROB) & (p <= 1.0 + TOL_PROB))
    spectral._raise_first(outside, InconsistencyError, lambda at: f"{what} = {p[at]:.12g} outside [0,1] beyond tolerance {TOL_PROB:g}")
    return p


def _group_overlaps(a: np.ndarray, lengths) -> list[float]:
    """sum_r |sum_{j in g} a_rj|^2 for each group g, the groups given by their
    lengths as consecutive runs of the columns of a (R, n) = rows * c: the
    target weight of P_g psi0. Squared as Python floats, which is pow:
    numpy's array square differs from it in the last bit."""
    sums = np.abs(spectral._segment_sums(a, lengths)).tolist()
    return [sum(x**2 for x in col) for col in zip(*sums)]


def _decompose_one(h) -> spectral.SpectralDecomposition:
    """spectral.decompose of one matrix: the walk functions refuse a stack h."""
    op = spectral._as_operator(h)
    if op.entries.ndim != 2:
        raise ValidationError(f"expected a square matrix, got shape {op.entries.shape}")
    return spectral.decompose(op)


def _check_state_dim(state: PureState, dim: int) -> None:
    if state.amplitudes.shape != (dim,):
        raise ValidationError(f"state shape {state.amplitudes.shape} != ({dim},) of the operator")


@dataclass(frozen=True, eq=False)
class SpectralWalk:
    """A walk from one start towards one target, in one eigenbasis.

    energies[j] are the ascending eigenvalues E_j, c[j] = <E_j|psi0> and
    rows[r, j] = <b_r|E_j> for the orthonormal target vectors b_r. The
    eigenvectors E_j need only span an invariant subspace that holds psi0
    (the whole space, or a reduction of it). decomposition is the full
    eigendecomposition the walk was read from, None for a reduced walk;
    only the residual bound, which rotates a density operator into the
    eigenbasis, needs it.

    The degeneracy tolerance, the partition of the energies with its gaps,
    the group overlaps and the limiting probability are worked out on first
    use; each exact average is kept per time law, so one (T, k) is
    evaluated once however many bounds are certified against it.
    """

    energies: np.ndarray
    c: np.ndarray
    rows: np.ndarray
    decomposition: SpectralDecomposition | None
    _exact: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def tol_degen(self) -> float:
        """Energies this close count as degenerate: 1e-8 of the spectral range."""
        return spectral.degeneracy_tol(float(self.energies[-1] - self.energies[0]))

    @cached_property
    def _gaps(self) -> np.ndarray:
        """gaps[j, k] = E_j - E_k, built once for every exact average."""
        return _gap_matrix(self.energies)

    @cached_property
    def _phase_fold(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(sigma, a_plus, a_minus, a_zero) for the sampler.

        Runs of equal energies merge, and a distinct energy u_i = -u_{-1-i}
        pairs with its mirror, which finds every pair of a symmetric
        spectrum; an unpaired energy keeps a phase of its own. sigma holds
        the unpaired positive energies, then the paired ones, then the
        magnitudes of the unpaired negative ones. a_plus[i] sums
        c_j rows[:, j] over E_j = +sigma[i] for the len(a_plus) leading
        sigma, a_minus[i] over E_j = -sigma[k] for the len(a_minus) trailing
        sigma (k the i-th of them), and a_zero over E_j = 0.
        No sort or search: paging in numpy's sort kernels (np.unique also
        imports numpy.ma) cost the glued-trees run about 0.25 MB of peak RSS."""
        starts = np.flatnonzero(np.diff(self.energies, prepend=-np.inf))
        u, fold = self.energies[starts], np.add.reduceat((self.rows * self.c).T, starts, axis=0)
        mirrored = u == -u[::-1]
        plus_only, pair, minus_only = (u > 0) & ~mirrored, (u > 0) & mirrored, (u < 0) & ~mirrored
        sigma = np.concatenate([u[plus_only], u[pair], -u[minus_only]])
        a_plus = np.concatenate([fold[plus_only], fold[pair]])
        a_minus = np.concatenate([fold[::-1][pair], fold[minus_only]])
        return sigma, a_plus, a_minus, fold[u == 0].sum(axis=0)

    @cached_property
    def _degenerate_pairs(self):
        """_degenerate_pairs of the cached gap matrix at tol_degen."""
        return _degenerate_pairs(np.abs(self._gaps) <= self.tol_degen)

    def probability(self, dist: TimeDistribution) -> float:
        """Exact time average at dist (_exact_averages of this one walk), kept
        per time law. O(len(rows) dim^2) time; besides the cached gap matrix,
        two real dim x dim buffers."""
        p = self._exact.get(dist)
        if p is None:
            # a[r, j] = <b_r|E_j><E_j|psi0>
            g, s = _phase_factors(dist, self.energies, self._gaps)
            p = _exact_averages(self.rows * self.c, self._degenerate_pairs, g, s)
            p = self._exact[dist] = float(_check_probabilities(p, "time-averaged probability"))
        return p

    def probabilities(self, T_grid, k: int) -> np.ndarray:
        """probability at every T of the grid with k summed uniforms; one
        dim x dim matrix at a time, never one per grid point at once."""
        return np.array([self.probability(TimeDistribution(T=float(t), k=k)) for t in T_grid])

    def hitting_time(self, T_grid, k: int) -> HittingTimeEstimate:
        """Minimize total evolution time k T over averaged success probability.

        Raises DegenerateProbabilityError if every grid probability is below
        1e-15.
        """
        grid = np.asarray(T_grid, dtype=np.float64)
        if grid.ndim != 1 or grid.shape[0] == 0 or np.any(grid <= 0):
            raise ValidationError("T_grid must be a non-empty 1-d array of positive times")
        k = int(k)
        probs = self.probabilities(grid, k)
        floor = 1e-15
        above = probs > floor
        if not above.any():
            raise DegenerateProbabilityError(
                f"all {grid.shape[0]} grid probabilities below {floor:g}; target unreachable"
            )
        ratios = np.where(above, k * grid / np.where(above, probs, 1.0), np.inf)
        best = int(np.argmin(ratios))
        return HittingTimeEstimate(
            tau=float(ratios[best]),
            argmin_T=float(grid[best]),
            probability_at_argmin=float(probs[best]),
            k_at_argmin=k,
            grid_description=f"geometric[{grid[0]:.6g},{grid[-1]:.6g}]x{grid.shape[0]}",
        )

    @cached_property
    def partition(self) -> EigenspacePartition:
        """Eigenspace groups of the energies at tol_degen, with their gaps."""
        return spectral.group_eigenspaces(self.energies, self.tol_degen)

    @cached_property
    def overlaps(self) -> tuple[float, ...]:
        """Per eigenspace group g, the target weight of P_g psi0:
        |<y|P_g|psi0>|^2 for a state target."""
        return tuple(_group_overlaps(self.rows * self.c, self.partition.lengths))

    @cached_property
    def limiting_probability(self) -> float:
        """T -> infinity limit of the averaged probability: the summed overlaps."""
        return float(_check_probabilities(sum(self.overlaps), "limiting probability"))

    def sample(
        self, dist: TimeDistribution, rng: np.random.Generator, shots: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Monte Carlo: draw a time, evolve, measure; one outcome per shot.

        Each chunk of SAMPLE_CHUNK shots draws its times, then one uniform u
        per shot; the outcome is the first row r whose cumulative
        probability exceeds u, or len(rows) ("none of them") when u reaches
        their total. One phase z = exp(-i t sigma) per distinct nonzero |E|
        serves both signs, since exp(i t sigma) is its exact conjugate
        (_phase_fold). Only one chunk x (distinct |E|) phase buffer and the
        chunk x len(rows) probabilities are ever held. Returns (times, outcomes).
        """
        if shots < 1:
            raise ValidationError(f"shots must be >= 1, got {shots}")
        sigma, a_plus, a_minus, a_zero = self._phase_fold
        last = self.rows.shape[0]
        times = np.empty(shots)
        outcomes = np.empty(shots, dtype=np.int64)
        for lo in range(0, shots, SAMPLE_CHUNK):
            m = min(SAMPLE_CHUNK, shots - lo)
            ts = rng.random((m, dist.k)).sum(axis=1) * dist.T
            z = np.empty((m, sigma.shape[0]), dtype=np.complex128)
            z.real = 0.0
            np.multiply.outer(ts, -sigma, out=z.imag)
            np.exp(z, out=z)
            amps = z[:, : a_plus.shape[0]] @ a_plus
            amps += a_zero
            np.conj(z, out=z)
            amps += z[:, sigma.shape[0] - a_minus.shape[0] :] @ a_minus
            probs = np.abs(amps) ** 2
            total = np.clip(np.sum(probs, axis=1), 0.0, 1.0)
            u = rng.random(m)
            first = np.minimum((probs.cumsum(axis=1) <= u[:, None]).sum(axis=1), last - 1)
            times[lo : lo + m] = ts
            outcomes[lo : lo + m] = np.where(u < total, first, last)
        return times, outcomes


def _rotated(dec: spectral.SpectralDecomposition, *states: PureState) -> list[np.ndarray]:
    """<E_j|x> for each state x, as (V^H @ x[..., None])[..., 0]: bitwise the 2-D mat-vec."""
    vh = dec.eigenvectors.conj().swapaxes(-1, -2)
    return [(vh @ state.amplitudes[..., None])[..., 0] for state in states]


def spectral_walk(h, psi0: PureState, target) -> SpectralWalk:
    """Decompose h once and read off the walk from psi0 towards target.

    target is a PureState y, or a matrix whose orthonormal columns span the
    measured subspace.
    """
    dec = _decompose_one(h)
    _check_state_dim(psi0, dec.dim)
    v = dec.eigenvectors
    if isinstance(target, PureState):
        _check_state_dim(target, dec.dim)
        rows = np.conj(_rotated(dec, target)[0])[None, :]
    else:
        b = np.asarray(target, dtype=np.complex128)
        if b.ndim != 2 or b.shape[0] == 0 or b.shape[1] == 0:
            raise ValidationError(f"target basis must be a non-empty matrix, got shape {b.shape}")
        if np.max(np.abs(b.conj().T @ b - np.eye(b.shape[1]))) > 1e-10:
            raise ValidationError("target basis columns are not orthonormal")
        if b.shape[0] != dec.dim:
            raise ValidationError(f"target basis dimension {b.shape[0]} != operator dimension {dec.dim}")
        rows = b.conj().T @ v
    return SpectralWalk(dec.eigenvalues, _rotated(dec, psi0)[0], rows, dec)


class WalkStack(SimpleNamespace):
    """The walks of a (B, d, d) stack as arrays, built by spectral_walks."""

    # decomposition: the stacked one; T, k: each walk's time law; near: its
    # degenerate pairs (B, d, d); group_starts (B, d) and n_groups; overlaps and
    # delta_e_star: all walks' groups in turn (G,); limiting_probability;
    # averages: exact averages at (T, 1), then at (T, k), (2, B); factors: the
    # half-angle factors (g, s) of _phase_factors of each walk at its own (T, k)


def _padded(x: np.ndarray, n_groups: np.ndarray, fill: float) -> np.ndarray:
    """Per-group values x (G,) of a stack as a (B, max groups) array, fill past each walk's groups."""
    out = np.full((n_groups.shape[0], int(n_groups.max())), fill)
    out[np.arange(out.shape[1]) < n_groups[:, None]] = x
    return out


def spectral_walks(h, psi0: PureState, y: PureState, dists: list[TimeDistribution]) -> WalkStack:
    """spectral_walk over a (B, d, d) stack h and (B, d) stacks psi0 and y,
    dists[i] the time law of walk i, each kernel once over the stack or a
    k-substack; every value is bitwise the single walk's, and a failed check
    names its stack index."""
    dec = spectral.decompose(h)
    e = dec.eigenvalues
    if {psi0.amplitudes.shape, y.amplitudes.shape} != {e.shape}:
        raise ValidationError(f"state stacks {psi0.amplitudes.shape}, {y.amplitudes.shape} != {e.shape} of the operators")
    if len(dists) != e.shape[0]:
        raise ValidationError(f"{len(dists)} time laws for a stack of {e.shape[0]} operators")
    c, ya = _rotated(dec, psi0, y)
    a, gaps = (np.conj(ya) * c)[:, None, :], _gap_matrix(e)
    tol = spectral.degeneracy_tol(e[:, -1] - e[:, 0])
    starts, n_groups, lengths, _, stars = spectral._group_runs(e, tol)
    overlaps = np.array(_group_overlaps(a.reshape(1, -1), lengths))
    # summed left to right, as the per-walk Python sum: a 0.0 past the last group changes nothing
    limits = _check_probabilities(_padded(overlaps, n_groups, 0.0).cumsum(axis=1)[:, -1], "limiting probability")
    T, k = np.array([d.T for d in dists]), np.array([d.k for d in dists])
    near = np.abs(gaps) <= tol[:, None, None]
    # every walk at (T, 1), then each other k on the substack of the walks at (T, k),
    # whose factors then take the place of their (T, 1) ones
    g, s = _phase_factors(TimeDistribution(T=dists[0].T, k=1), e, gaps, T[:, None])
    averages = np.empty((2, k.shape[0]))
    averages[:] = _exact_averages(a, _degenerate_pairs(near), g, s)
    for kk in dict.fromkeys(k.tolist()):
        if kk != 1:
            at = np.flatnonzero(k == kk)
            g[at], s[at] = factors = _phase_factors(dists[at[0]], e[at], gaps[at], T[at, None])
            averages[1, at] = _exact_averages(a[at], _degenerate_pairs(near[at]), *factors)
    _check_probabilities(averages[0], "time-averaged probability")
    _check_probabilities(averages[1], "time-averaged probability")
    return WalkStack(
        decomposition=dec, T=T, k=k, near=near, group_starts=starts, n_groups=n_groups, overlaps=overlaps,
        delta_e_star=stars, limiting_probability=limits, averages=averages, factors=(g, s),
    )


def avg_probability_exact(h, psi0: PureState, y: PureState, dist: TimeDistribution) -> float:
    """Closed-form time-averaged probability of measuring y.

    Sum over eigenpairs of a_j conj(a_k) Phi(E_k - E_j) with
    a_j = <y|E_j><E_j|psi0>; cost one eigendecomposition plus O(dim^2).
    """
    return spectral_walk(h, psi0, y).probability(dist)


def avg_projector_probability_exact(
    h, psi0: PureState, target_basis: np.ndarray, dist: TimeDistribution
) -> float:
    """Time-averaged probability of landing in a subspace.

    target_basis holds orthonormal columns spanning the measured subspace;
    reduces to avg_probability_exact when the subspace is one-dimensional.
    """
    return spectral_walk(h, psi0, np.asarray(target_basis)).probability(dist)


def avg_probability_quadrature(h, psi0: PureState, y: PureState, T: float) -> float:
    """Oracle: (1/T) integral_0^T |<y|exp(-iHt)|psi0>|^2 dt by adaptive
    quadrature (k = 1 only), absolute tolerance 1e-8. Needs scipy, which
    nothing else in the package imports."""
    from scipy import integrate

    if not T > 0:
        raise ValidationError(f"T must be positive, got {T}")
    dec = _decompose_one(h)
    _check_state_dim(psi0, dec.dim)
    _check_state_dim(y, dec.dim)
    v = dec.eigenvectors
    a = np.conj(v.conj().T @ y.amplitudes) * (v.conj().T @ psi0.amplitudes)
    e = dec.eigenvalues

    def p_t(t: float) -> float:
        amp = np.sum(a * np.exp(-1j * e * t))
        return float(np.abs(amp) ** 2)

    val, _ = integrate.quad(p_t, 0.0, T, epsabs=1e-9, epsrel=1e-11, limit=2000)
    return float(_check_probabilities(val / T, "quadrature probability"))


def time_averaged_density(h, rho0: DensityOperator, dist: TimeDistribution) -> DensityOperator:
    """Average of exp(-iHt) rho0 exp(iHt) over the time law.

    In the eigenbasis the element (j, k) picks up Phi(E_k - E_j);
    near-degenerate pairs are left untouched (coherences survive).
    """
    dec = _decompose_one(h)
    e = dec.eigenvalues
    phi = _phi_matrix(dist, e, spectral.degeneracy_tol(e[-1] - e[0]))
    return _weighted_density(dec.eigenvectors, _eigenbasis(dec.eigenvectors, rho0), phi)


def _eigenbasis(v: np.ndarray, rho0: DensityOperator) -> np.ndarray:
    """m[j, k] = <E_j|rho0|E_k> for the eigenvector columns v, per matrix of a stack."""
    if rho0.entries.shape != v.shape:
        raise ValidationError(f"rho0 shape {rho0.entries.shape} != {v.shape} of the eigenvectors")
    return v.conj().swapaxes(-1, -2) @ rho0.entries @ v


def _weighted_density(v: np.ndarray, m: np.ndarray, weight: np.ndarray) -> DensityOperator:
    """The state whose eigenbasis element (j, k) is m[j, k] * weight[j, k], m from
    _eigenbasis, per matrix of a stack; the result is computed, so a failed
    invariant is an internal inconsistency."""
    try:
        return density_operator(v @ (m * weight) @ v.conj().swapaxes(-1, -2))
    except ValidationError as exc:
        raise InconsistencyError(f"computed density operator is invalid: {exc}") from None


def limiting_probability(h, psi0: PureState, y: PureState) -> float:
    """T -> infinity limit: sum over eigenspace groups of |<y|P_g|psi0>|^2."""
    return spectral_walk(h, psi0, y).limiting_probability


def geometric_grid(t_lo: float, t_hi: float, per_decade: int = 40) -> np.ndarray:
    """Geometric time grid, default 40 points per decade, endpoints included."""
    if not (t_lo > 0 and t_hi > t_lo):
        raise ValidationError(f"need 0 < t_lo < t_hi, got ({t_lo}, {t_hi})")
    decades = np.log10(t_hi / t_lo)
    n = max(2, int(np.ceil(decades * per_decade)) + 1)
    return np.geomspace(t_lo, t_hi, n)


class HittingTimeEstimate(NamedTuple):
    """Grid minimum of (k T) / averaged-probability.

    tau is an upper bound on the true infimum over all T > 0 (the grid can
    only overshoot). grid_description records the grid for the run record.
    """

    tau: float
    argmin_T: float
    probability_at_argmin: float
    k_at_argmin: int
    grid_description: str


def hitting_time_estimate(
    h, psi0: PureState, y: PureState, T_grid: np.ndarray, k: int = 1
) -> HittingTimeEstimate:
    """Minimize total evolution time over averaged success probability
    (SpectralWalk.hitting_time on the walk from psi0 towards y)."""
    return spectral_walk(h, psi0, y).hitting_time(T_grid, k)
