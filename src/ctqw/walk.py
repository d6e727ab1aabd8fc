"""Time-averaged continuous-time quantum walk quantities.

The walk evolves a state under a Hermitian generator for a random time drawn
as the sum of k independent uniforms on [0, T]; measurement statistics are
averaged over that draw. Everything here is exact in the eigenbasis: the
average of exp(-i(E_j - E_k)t) is the characteristic function of the time
law evaluated at the gap, so averaged probabilities and averaged density
operators are finite sums, no numerical integration involved. A quadrature
fallback exists purely as an independent oracle.

Every number is that of the walk snapped to its eigenspace partition,
H' = sum_g E_g P_g with E_g the mean energy of group g, so ||H - H'|| <=
tol_degen and a gap within a group is exactly 0. Since (e^{ix} - 1)/(ix) =
e^{ix/2} sin(x/2)/(x/2), Phi(E_h - E_g) = conj(g_g) g_h S_gh with a phase
g = e^{ikET/2} per group energy and a real symmetric S_gh = sinc((E_h -
E_g)T/2)^k: an exact average over the G group columns is two real G x G
quadratic forms in S and one term per group, with no cancellation.

A SpectralWalk holds one walk read off one eigenbasis: the energies, the
start amplitudes and the target rows, O(d + R d) numbers for R target rows.
Every exact average, limiting probability, eigenspace partition (with its
gaps) and Monte Carlo measurement is a method of it, so a spectrum is
decomposed and grouped once however many times T it is evaluated at; each
exact average forms its own G x G pair kernel and keeps none of it; only an
averaged state maps it onto pairs of eigenvalues.
reduced_walk drops the energies the start misses where a walk is built, and
every number reads the rest, within its prune_bound. The Monte Carlo tells
whether each shot lands in the target span, one phase per distinct group
|E|, and measures the span at the rank of its folded columns. It
screens each shot in float32 on the part of the fold that carries mass
(the sin half alone on the glued-trees column walk) and re-evaluates in
float64 every shot whose uniform falls within the certified error of its
probability, so each decision is the float64 one, in whatever batch. The
hitting time and the certified glued-trees routes share one grid
minimizer, _grid_minimum; the hitting time averages exactly only where the
envelope |sinc x|^k <= min(1, 1/|x|)^k leaves p(T) room for the minimum.
The one-shot functions below each build one and ask it once.
spectral_walks reads the walks of a whole stack of matrices into a
WalkStack of arrays with the same kernels, bitwise.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from . import spectral
from .errors import DegenerateProbabilityError, InconsistencyError, ValidationError, check_count
from .spectral import EigenspacePartition, SpectralDecomposition

__all__ = [
    "PureState",
    "DensityOperator",
    "TimeDistribution",
    "HittingTimeEstimate",
    "SpectralWalk",
    "WalkStack",
    "spectral_walk",
    "reduced_walk",
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
#: Monte Carlo shots per chunk: each chunk draws its times, then its uniforms
SAMPLE_CHUNK = 5000
#: shots per phase block: a block holds at most 24 B per shot and phase, where
#: a chunk's complex phases took 16 B per shot and phase
SAMPLE_BLOCK = 1024
#: most by which the float32 cos or sin of a phase in [-pi - 1e-3, pi + 1e-3],
#: cast back to float64, misses the float64 value (1.6e-7 measured); a phase
#: t sigma below 2^40 in magnitude reduces into that range
TRIG32_ERROR = 2.0**-21
#: the float32 screen drops the cos half of the fold where its l1 mass is at
#: most this: it lies below the margin's own 2^-40 rounding term, so adding it to
#: the amplitude error sends next to no more shots to float64
DROP_MASS = 2.0**-40
#: the hitting-time screen bins pair weights by gap, SCREEN_BINS per octave, SCREEN_BLOCK groups at a time
SCREEN_BINS, SCREEN_BLOCK = 32, 64


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


def _psd_certified(a: np.ndarray) -> np.ndarray:
    """Whether the shifted Cholesky certificate of density_operator holds,
    per Hermitian matrix of a (..., d, d) stack with checked traces, factored
    one (B, d, d) block at a time over the leading axes; False means "not
    certified"."""
    d = a.shape[-1]
    g = 3 * 2.0**-53 * (d + 1) / (1 - 3 * 2.0**-53 * (d + 1))
    delta = 4 * g * (1 + TOL_TRACE + d * TOL_PSD)
    blocks = a.reshape(-1, *a.shape[-3:]) if a.ndim > 2 else a[None, None]
    ok = np.zeros(blocks.shape[:2], dtype=bool)
    if delta < TOL_PSD / 2:
        shift = (TOL_PSD - delta) * np.eye(d)
        for at, block in enumerate(blocks):
            try:
                # numpy returns NaN rather than raising for a NaN diagonal
                ok[at] = np.isfinite(np.linalg.cholesky(block + shift)).all(axis=(-2, -1))
            except np.linalg.LinAlgError:
                pass
    return ok.reshape(a.shape[:-2])


def density_operator(matrix: np.ndarray) -> DensityOperator:
    """Check a matrix, or each matrix of a stack; a failure names its stack
    index. Positive semidefiniteness, lambda_min >= -TOL_PSD, is certified
    by a Cholesky factorization of A = rho + s I, s = TOL_PSD - delta_d
    (_psd_certified), and checked by eigvalsh only where that certifies
    nothing: a factorization that fails or gives a factor that is not
    finite, or a margin delta_d >= TOL_PSD / 2 (d above about 3.7e5).

    The margin. If the factorization of the stored A runs to completion
    with a finite factor R, then (Higham, Accuracy and Stability of
    Numerical Algorithms, Thm 10.3, in complex arithmetic: by its §3.6 each
    complex operation errs by at most sqrt(2) gamma_2 < 3u, u = 2^-53)
    R^H R = A + dA with |dA| <= g |R^H| |R|, g = gamma_{d+1} at unit roundoff
    3u, g = 3u(d + 1) / (1 - 3u(d + 1)). Since || |R| ||_2 <= ||R||_F and
    ||R||_F^2 = tr(R^H R) <= tr A + g ||R||_F^2,
        ||dA||_2 <= g ||R||_F^2 <= g tr A / (1 - g),
    and R^H R is PSD, so lambda_min(A) >= -g tr A / (1 - g). The stored
    diagonal of A rounds rho_jj + s by at most u |A_jj|, which moves
    lambda_min by at most u (1 + g) tr A / ((1 - u)(1 - g)) <= g tr A / (1 - g).
    The checked trace and s <= TOL_PSD give tr A <= t (1 + 2g),
    t = 1 + TOL_TRACE + d TOL_PSD, the rounding of the trace included. So
        lambda_min(rho) >= -s - 2 g tr A / (1 - g) >= -TOL_PSD + delta_d - 4 g t
    for g <= 1/4, and delta_d = 4 g t certifies lambda_min(rho) >= -TOL_PSD.
    A certified matrix has lambda_min >= -TOL_PSD exactly; eigvalsh, whose
    lambda_min errs by its own rounding, could refuse only such a matrix
    within that rounding of the boundary.
    """
    op = spectral.hermitian(matrix)
    tr = np.trace(op.entries, axis1=-2, axis2=-1).real
    deviates = ~(np.abs(tr - 1.0) <= TOL_TRACE)
    spectral._raise_first(deviates, ValidationError, lambda at: f"trace {tr[at]:.12g} deviates from 1 by more than {TOL_TRACE:g}")
    ok = _psd_certified(op.entries)
    if not ok.all():
        lo = np.full(ok.shape, np.inf)
        lo[~ok] = np.linalg.eigvalsh(op.entries[~ok])[..., 0]
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
        check_count(self.k, "k")


def characteristic(dist: TimeDistribution, r) -> np.ndarray | complex:
    """E[exp(i r t)] for t distributed per dist: ((exp(irT) - 1) / (irT))^k.
    A test oracle: Phi(r) = g_1 S_10 of the two-level walk with energies (0, r)."""
    x = np.atleast_1d(np.asarray(r, dtype=np.float64))
    g, s = _phase_factors(dist, np.stack([np.zeros_like(x), x], axis=-1))
    phi = g[..., 1] * s[..., 1, 0]
    return complex(phi[0]) if np.ndim(r) == 0 else phi


def _phase_factors(dist: TimeDistribution, energies: np.ndarray, T=None) -> tuple[np.ndarray, np.ndarray]:
    """Half-angle factors: g = exp(ikET/2) per energy and S_jk =
    sinc((E_j - E_k) T/2)^k per pair, sinc(0) = 1, so Phi(E_k - E_j) =
    conj(g_j) g_k S_jk; S is real and symmetric. Over a stack of energies
    (B, G), S is (B, G, G), and a (B, 1) column T gives each matrix its own T
    in place of dist.T. Two G x G buffers: the pairwise differences, scaled
    in place to the half-angle arguments and then turned into |sinc|^k, and
    sinc itself; the caller owns the one returned."""
    T, T_gap = (dist.T, dist.T) if T is None else (T, T[..., None])
    g = np.exp((0.5j * dist.k * T) * energies)
    h = energies[..., :, None] - energies[..., None, :]
    h *= 0.5 * T_gap
    s = np.sin(h)
    np.divide(s, h, out=s, where=h != 0)
    s[h == 0] = 1.0
    # pow takes a far slower path on a negative base: raise |sinc|, then restore the sign
    sk = np.abs(s, out=h)
    sk **= dist.k
    return g, (np.copysign(sk, s, out=sk) if dist.k % 2 else sk)


def _phi(g: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Phi[g, h] = conj(g_g) g_h S_gh over the groups, from the half-angle
    factors at the group energies, with its diagonal exactly 1, per matrix
    of a stack."""
    phi = np.conj(g)[..., :, None] * g[..., None, :] * s
    phi[..., range(g.shape[-1]), range(g.shape[-1])] = 1.0
    return phi


def _exact_averages(a: np.ndarray, overlaps: np.ndarray, g: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Exact time average sum_r sum_{gh} a_rg conj(a_rh) Phi(E_h - E_g) over
    the groups of each walk of a stack = sum_r Re(b_r) S Re(b_r) +
    Im(b_r) S Im(b_r) with b = a conj(g), plus overlaps (1 - |g|^2): on the
    diagonal S is 1 and the form weighs each group's overlap by |g|^2, where
    Phi is 1. a holds the group columns, (R, G) for one walk or (B, R, G)
    for a stack, overlaps each group's sum_r |a_rg|^2, and (g, s) the
    half-angle factors of _phase_factors at the group energies. Unchecked.
    O(R G^2) time per walk; two real G x G buffers per walk."""
    b = a * np.conj(g)[..., None, :]
    parts = np.concatenate([b.real, b.imag], axis=-2)
    p = ((parts @ s) * parts).reshape(*parts.shape[:-2], -1).sum(axis=-1)
    return p + (overlaps * (1.0 - (np.conj(g) * g).real)).sum(axis=-1)


def _check_probabilities(p, what: str) -> np.ndarray:
    """p, each entry checked to lie in [0, 1] up to TOL_PROB (NaN fails); in a
    stack the error names the first failing entry's index."""
    p = np.asarray(p, dtype=np.float64)
    outside = ~((p >= -TOL_PROB) & (p <= 1.0 + TOL_PROB))
    spectral._raise_first(outside, InconsistencyError, lambda at: f"{what} = {p[at]:.12g} outside [0,1] beyond tolerance {TOL_PROB:g}")
    return p


def _group_overlaps(sums: np.ndarray) -> list[float]:
    """sum_r |s_rg|^2 for each group g of the group columns s (R, G), s_rg =
    sum_{j in g} c_j rows[r, j]: the target weight of P_g psi0. Squared by
    float_power, which is libm pow as Python's x**2 (numpy's square differs
    from it in the last bit), and summed left to right by cumsum."""
    return np.float_power(np.abs(sums), 2.0).cumsum(axis=0)[-1].tolist()


def _norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each vector along the last axis, bitwise: sqrt(re.re
    + im.im) as stacked (..., 1, d) @ (..., d, 1) products, the ddot that
    norm itself calls (norm's own axis= form differs in the last bit)."""
    re, im = x.real[..., None, :], x.imag[..., None, :]
    return np.sqrt((re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0])


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
    eigenbasis, needs it. dim and spectral_range are the walk's before
    reduced_walk drops what its start misses, and prune_bound bounds that.

    The degeneracy tolerance, the partition of the energies with its gaps
    and group energies, the group overlaps, the limiting probability and the
    sampler's fold are worked out on first use, each O(d + R d) for R target
    rows; every other number is that of the walk snapped to the partition.
    """

    energies: np.ndarray
    c: np.ndarray
    rows: np.ndarray
    decomposition: SpectralDecomposition | None
    dim: int | None = None
    spectral_range: float | None = None
    prune_bound: float = 0.0

    def __post_init__(self):
        if self.dim is None:  # built whole: nothing dropped
            object.__setattr__(self, "dim", self.energies.shape[0])
            object.__setattr__(self, "spectral_range", float(self.energies[-1] - self.energies[0]))

    @cached_property
    def tol_degen(self) -> float:
        """Energies this close count as degenerate: 1e-8 of the spectral range as built."""
        return spectral.degeneracy_tol(self.spectral_range)

    @cached_property
    def _group_columns(self) -> np.ndarray:
        """(R, G): sum_{j in g} c_j rows[:, j] per group g, which the overlaps,
        the exact averages and the fold read."""
        return spectral._segment_sums(self.rows * self.c, self.partition.lengths)

    @cached_property
    def _fold(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """(sigma, M, zero, weight): the walk in the real form the sampler
        evaluates.

        Its energies u are the group energies and its columns the group
        columns. A distinct energy u_i = -u_{-1-i} pairs with its mirror,
        which finds every pair of a symmetric spectrum; an unpaired energy
        keeps a phase of its own. sigma holds the unpaired positive
        energies, then the paired ones, then the magnitudes of the unpaired
        negative ones. The folded column a+_i is the group column at
        E = +sigma_i, a-_i that at E = -sigma_i and a0 that at E = 0; a+_i
        or a-_i is 0 where sigma_i has no such group.

        A shot at time t has the amplitude cos(t sigma) Pc + sin(t sigma) Ps
        + a0, Pc = a+ + a- and Ps = -i (a+ - a-): its real and imaginary
        parts are [cos, sin] M + zero, M = [[Re Pc, Im Pc], [Re Ps, Im Ps]],
        zero = [Re a0, Im a0]. A phase error of at most e moves the amplitude
        by at most e weight, weight = sum_i ||Pc_i|| + ||Ps_i||. With more
        target rows than folded columns A, A^H = Q R gives |W A| = |W R^H|
        for any phases W, so R^H takes A's place before the padding.

        No sort or search, and a QR only where it compresses, so a walk
        with one target row (the glued-trees column walk) pages in no sort
        or LAPACK kernel: paging in numpy's sort kernels (np.unique also
        imports numpy.ma) cost the glued-trees run about 0.25 MB of peak RSS."""
        u, fold = self.partition.energies, self._group_columns.T
        mirrored = u == -u[::-1]
        plus_only, pair, minus_only = (u > 0) & ~mirrored, (u > 0) & mirrored, (u < 0) & ~mirrored
        sigma = np.concatenate([u[plus_only], u[pair], -u[minus_only]])
        zero = fold[u == 0].sum(axis=0)[None, :]
        columns = np.concatenate([fold[plus_only], fold[pair], fold[::-1][pair], fold[minus_only], zero])
        if columns.shape[1] > columns.shape[0]:
            columns = np.linalg.qr(columns.conj().T, mode="r").conj().T
        # A's rows padded to all of sigma: a+ leads it, a- trails it
        n_only, n_plus = int(plus_only.sum()), int(plus_only.sum() + pair.sum())
        plus, minus = np.zeros((2, sigma.shape[0], columns.shape[1]), dtype=np.complex128)
        plus[:n_plus], minus[n_only:] = columns[:n_plus], columns[n_plus:-1]
        pc, ps = plus + minus, -1j * (plus - minus)
        weight = float(np.linalg.norm(pc, axis=1).sum() + np.linalg.norm(ps, axis=1).sum())
        m = np.block([[pc.real, pc.imag], [ps.real, ps.imag]])
        return sigma, m, np.concatenate([columns[-1].real, columns[-1].imag]), weight

    @cached_property
    def _shot_screen(self) -> tuple[bool, np.ndarray, np.ndarray, float, np.ndarray]:
        """(sin_only, M', zero', dropped, turn): the part of the fold (_fold)
        that the float32 screen of hits evaluates.

        The cos rows of M weigh cos(t sigma) and the sin rows sin(t sigma);
        the l1 mass of the cos half is the sum of its rows' norms, its share
        of the fold's weight. Where that mass is at most DROP_MASS the
        screen keeps the sin half alone (sin_only) and dropped is that mass:
        leaving it out moves the amplitude by at most that. Where start and
        target sit an odd number of steps apart on a bipartite graph, as
        the column walk's entrance and exit do, only odd powers of H
        connect them, so the cos half is zero up to rounding (about 1e-16
        on the column walk). Otherwise both halves stay and dropped is 0.
        M' holds the kept rows less every column that is exactly zero there
        and in zero, zero' the rest of zero, and turn = sigma / 2 pi."""
        sigma, m, zero, _ = self._fold
        n = sigma.shape[0]
        cos_mass = float(np.linalg.norm(m[:n], axis=1).sum())
        sin_only = cos_mass <= DROP_MASS
        rows, dropped = (m[n:], cos_mass) if sin_only else (m, 0.0)
        live = rows.any(axis=0) | (zero != 0)
        return sin_only, np.ascontiguousarray(rows[:, live]), zero[live], dropped, sigma * (0.5 / np.pi)

    def _hit_probabilities(self, ts: np.ndarray, dtype) -> np.ndarray:
        """Each shot's clipped hit probability at its time in ts, SAMPLE_BLOCK
        shots at a time.

        float64 takes the cos and sin of each unreduced phase t sigma over
        the whole fold (_fold). float32 evaluates the screen (_shot_screen):
        the turns t (sigma / 2 pi) less their nearest integer, times 2 pi,
        four float64 passes, then the sin, and the cos unless the screen
        keeps the sin half alone, in float32.
        Each float64 step rounds by a relative u = 2^-53 at most: the turns
        are off by 4u of t sigma / 2 pi (pi, 1 / 2 pi, sigma / 2 pi and the
        product each rounded once); subtracting the integer is exact; the
        scaling by 2 pi, a rounded constant, adds 2u of the reduced phase,
        at most pi. So the phase misses t sigma mod 2 pi by at most
        4u |t sigma| + 2 pi u, and the float64 phase, itself u |t sigma|
        off, by at most 5u |t sigma| + 2 pi u: the first term lies within
        the max|t sigma| 2^-50 of hits, the second, pi 2^-52, within
        TRIG32_ERROR's room above the measured float32 error. A block holds
        its phases (8 B per shot and phase) and the trig values (8 B per
        kept half)."""
        if dtype is np.float32:
            sin_only, columns, zero, _, turn = self._shot_screen
            n = turn.shape[0]
        else:
            sigma, columns, zero, _ = self._fold
            sin_only, n = False, sigma.shape[0]
        size = min(SAMPLE_BLOCK, ts.shape[0])
        x_block, trig_block = np.empty((size, n)), np.empty((size, n if sin_only else 2 * n))
        p = np.empty(ts.shape)
        for lo in range(0, ts.shape[0], SAMPLE_BLOCK):
            block = ts[lo : lo + SAMPLE_BLOCK]
            x, trig = x_block[: block.shape[0]], trig_block[: block.shape[0]]
            sin = trig[:, trig.shape[1] - n :]
            if dtype is np.float32:
                # the whole turns sit in the sin half of trig until sin overwrites them
                np.multiply.outer(block, turn, out=x)
                x -= np.rint(x, out=sin)
                x *= 2.0 * np.pi
            else:
                np.multiply.outer(block, sigma, out=x)
            if not sin_only:
                np.cos(x, out=trig[:, :n], dtype=dtype, casting="same_kind")
            np.sin(x, out=sin, dtype=dtype, casting="same_kind")
            amps = trig @ columns
            amps += zero
            p[lo : lo + SAMPLE_BLOCK] = np.square(amps, out=amps).sum(axis=1)
        return np.clip(p, 0.0, 1.0, out=p)

    @property
    def mc_phases(self) -> int:
        """Phases the sampler evaluates per shot: one per distinct nonzero
        |E| of the group energies."""
        return int(self._fold[0].shape[0])

    def probability(self, dist: TimeDistribution) -> float:
        """Exact time average at dist (_exact_averages of this one walk over
        its group columns). O(R G^2) time for R target rows and G groups, and
        two real G x G buffers, the pair kernel of _phase_factors, none of
        which outlives the call."""
        p = _exact_averages(self._group_columns, np.array(self.overlaps), *_phase_factors(dist, self.partition.energies))
        return float(_check_probabilities(p, "time-averaged probability"))

    def hitting_time(self, T_grid, k: int) -> HittingTimeEstimate:
        """Minimize total evolution time k T over averaged success probability.

        Every grid point is checked as a TimeDistribution. p(T) <= p_inf +
        D(T) + slack (_envelope) bounds each ratio from below; the point of
        the lowest bound gets an exact average, then each point whose bound,
        less a 2^-40 rounding margin, is not above its ratio. The rest cannot
        win and read as NaN, so the estimate is the whole grid's, bitwise.
        DegenerateProbabilityError if every grid probability is below 1e-15.
        """
        grid = np.asarray(T_grid, dtype=np.float64)
        if grid.ndim != 1 or grid.shape[0] == 0 or np.any(grid <= 0):
            raise ValidationError("T_grid must be a non-empty 1-d array of positive times")
        dists = [TimeDistribution(T=float(t), k=k) for t in grid]
        upper = self.limiting_probability + self._envelope(grid, k)
        # a point whose p(T) cannot exceed 1e-15 reads as +inf, evaluated or not
        lower = np.divide(k * grid, upper, out=np.full(grid.shape, np.inf), where=upper > 1e-15)
        probs = np.full(grid.shape, np.nan)
        first = int(np.argmin(lower))
        if lower[first] < np.inf:
            probs[first] = self.probability(dists[first])
            ratio = k * grid[first] / probs[first] if probs[first] > 1e-15 else np.inf
            for i in np.flatnonzero((lower < np.inf) & (lower * (1.0 - 2.0**-40) <= ratio)):
                if i != first:
                    probs[i] = self.probability(dists[i])
        unreachable = DegenerateProbabilityError(f"all {grid.shape[0]} grid probabilities below 1e-15; target unreachable")
        tau, best = _grid_minimum(grid, k, probs, 1e-15, unreachable)
        return HittingTimeEstimate(
            tau=tau,
            argmin_T=float(grid[best]),
            probability_at_argmin=float(probs[best]),
            k_at_argmin=int(k),
            grid_description=f"geometric[{grid[0]:.6g},{grid[-1]:.6g}]x{grid.shape[0]}",
        )

    def _envelope(self, grid: np.ndarray, k: int) -> np.ndarray:
        """D(T) + slack at each T of grid, a bound on |p(T) - p_inf| as computed.

        |Phi(x)| = |sinc(xT/2)|^k <= min(1, 2/(T|x|))^k, so |p - p_inf| <=
        D(T) = sum_{g != h} W_gh min(1, 2/(T|E_g - E_h|))^k, W_gh = sum_r
        |a_rg| |a_rh| over the group columns a. The weights of the pairs g < h
        are binned by gap, SCREEN_BLOCK rows at a time, and each bin reads the
        gap one bin below its own, which a rounded log2 cannot pass. slack =
        (G^2 + 2(R + 2) G + 4k + 64) 2^-52 A, A = sum_r (sum_g |a_rg|)^2 >=
        p_inf + D, covers the float64 rounding of p, p_inf and D."""
        a, e = np.abs(self._group_columns), self.partition.energies
        rows, groups = a.shape
        slack = (groups**2 + 2 * (rows + 2) * groups + 4 * k + 64) * 2.0**-52 * float(np.square(a.sum(axis=1)).sum())
        if groups < 2:
            return np.full(grid.shape, slack)
        # each pair gap lies between the smallest adjacent gap and the range
        lo_bin = int(np.floor(SCREEN_BINS * np.log2(np.diff(e).min()))) - 2
        weights = np.zeros(int(np.ceil(SCREEN_BINS * np.log2(e[-1] - e[0]))) + 2 - lo_bin)
        for lo in range(0, groups - 1, SCREEN_BLOCK):
            hi = min(lo + SCREEN_BLOCK, groups - 1)
            above = np.arange(groups - lo - 1) >= np.arange(hi - lo)[:, None]
            gaps = (e[lo + 1 :] - e[lo:hi, None])[above]
            bins = np.floor(SCREEN_BINS * np.log2(gaps)).astype(np.int64) - lo_bin
            weights += np.bincount(bins, (a[:, lo:hi].T @ a[:, lo + 1 :])[above], weights.shape[0])
        used = np.flatnonzero(weights)
        edges = np.exp2((used + lo_bin - 1) / SCREEN_BINS)
        env = np.minimum(2.0 / np.multiply.outer(grid, edges), 1.0) ** k
        return 2.0 * (env @ weights[used]) + slack

    @cached_property
    def partition(self) -> EigenspacePartition:
        """Eigenspace groups of the energies at tol_degen, with their gaps."""
        return spectral.group_eigenspaces(self.energies, self.tol_degen)

    @cached_property
    def overlaps(self) -> tuple[float, ...]:
        """Per eigenspace group g, the target weight of P_g psi0:
        |<y|P_g|psi0>|^2 for a state target."""
        return tuple(_group_overlaps(self._group_columns))

    @cached_property
    def limiting_probability(self) -> float:
        """T -> infinity limit of the averaged probability: the summed overlaps."""
        return float(_check_probabilities(sum(self.overlaps), "limiting probability"))

    def sample(
        self, dist: TimeDistribution, rng: np.random.Generator, shots: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Monte Carlo: draw a time, evolve, measure; whether each shot hit.

        Each chunk of SAMPLE_CHUNK shots draws its times, then one uniform u
        per shot, and hits decides them. Returns (times, hit).
        """
        check_count(shots, "shots")
        times, hit = np.empty(shots), np.empty(shots, dtype=bool)
        for lo in range(0, shots, SAMPLE_CHUNK):
            m = min(SAMPLE_CHUNK, shots - lo)
            ts = rng.random((m, dist.k)).sum(axis=1) * dist.T
            times[lo : lo + m] = ts
            hit[lo : lo + m] = self.hits(ts, rng.random(m))
        return times, hit

    def hits(self, ts: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Whether each shot, at its time in ts with its uniform in u, hits:
        lands in the span of the target rows, u below its total probability
        there. One phase t sigma per distinct nonzero group |E| serves both
        signs, and the target rows are compressed to the folded columns'
        rank (_fold). ts and u are 1-d of one length; ValidationError if
        they are not, or if a time is not finite.

        Each shot is screened in float32 on the part of the fold that
        carries mass (_shot_screen, _hit_probabilities): each phase it
        keeps is off by at most e = TRIG32_ERROR + max|t sigma| 2^-50, and
        a cos half it drops moves the amplitude by at most its mass, so the
        amplitude is off by at most eps = e weight (_fold) + dropped and
        the probability by at most
        margin = 2 eps (1 + prune_bound) + eps^2 + 2^-40, the last term
        for float64 rounding. A shot with u farther than margin from its
        probability is decided by it; the others are evaluated again with
        float64 cos and sin over the whole fold. So every shot decides as
        the float64 walk does, whichever shots share the call. At most
        SAMPLE_BLOCK x 3 mc_phases floats and the block's amplitudes are
        held at once, SAMPLE_BLOCK x 2 mc_phases where the screen keeps the
        sin half alone.
        """
        if ts.ndim != 1 or u.shape != ts.shape:
            raise ValidationError(f"need one uniform per shot time, 1-d: got times {ts.shape} and uniforms {u.shape}")
        if ts.shape[0] == 0:
            return np.zeros(0, dtype=bool)
        # the margin's max |t|: a NaN or an infinite time makes an end non-finite
        t_lo, t_hi = float(ts.min()), float(ts.max())
        if not (np.isfinite(t_lo) and np.isfinite(t_hi)):
            raise ValidationError(f"shot times must be finite, got min {t_lo} and max {t_hi}")
        t_max = max(t_hi, -t_lo)
        sigma, _, _, weight = self._fold
        p = self._hit_probabilities(ts, np.float32)
        eps = (TRIG32_ERROR + t_max * float(sigma.max(initial=0.0)) * 2.0**-50) * weight + self._shot_screen[3]
        # eps * eps, not eps**2, which raises OverflowError: an infinite margin sends every shot to float64
        margin = 2.0 * eps * (1.0 + self.prune_bound) + eps * eps + 2.0**-40
        # written ~(x > margin), so that a NaN goes to float64
        close = ~(np.abs(u - p) > margin)
        if close.any():
            p[close] = self._hit_probabilities(ts[close], np.float64)
        return u < p

def _grid_minimum(grid: np.ndarray, k: int, values: np.ndarray, floor: float, error: Exception) -> tuple[float, int]:
    """(min k T / value, its index) over a grid of times T and the values at
    them: a value at or below floor, or NaN, reads as +inf, and the first
    minimum wins. Raises error if every value does."""
    above = values > floor
    if not above.any():
        raise error
    ratios = np.divide(k * grid, values, out=np.full(grid.shape, np.inf), where=above)
    best = int(np.argmin(ratios))
    return float(ratios[best]), best


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


def reduced_walk(energies: np.ndarray, c: np.ndarray, rows: np.ndarray) -> SpectralWalk:
    """The SpectralWalk (energies, c, rows) less the energies the start
    misses, |c_j| <= dim 2^-52: zero by symmetry up to rounding (a NaN is
    kept, and fails downstream). Each column rows[:, j] has norm at most 1,
    so dropping columns of l1 mass delta moves the target amplitude by at
    most delta, and every probability, exact average, overlap and shot by
    at most prune_bound = 2 delta + delta^2. dim and spectral_range are
    those before the cut, so tol_degen does not move."""
    missed = np.abs(c) <= energies.shape[0] * 2.0**-52
    kept, delta = ~missed, float(np.abs(c[missed]).sum())
    return SpectralWalk(energies[kept], c[kept], rows[:, kept], None, len(energies), float(energies[-1] - energies[0]), 2 * delta + delta**2)


class WalkStack(SimpleNamespace):
    """The walks of a (B, d, d) stack as arrays, built by spectral_walks."""

    # decomposition: the stacked one; T, k: each walk's time law; group_starts
    # (B, d) and n_groups; overlaps and delta_e_star: all walks' groups in turn
    # (G,); limiting_probability; averages: exact averages at (T, 1), then at
    # (T, k), (2, B); factors: the half-angle factors (g, s) of _phase_factors
    # of each walk at its group energies and its own (T, k), (B, G_max) and
    # (B, G_max, G_max) for the most groups G_max of a walk, each walk's
    # defined up to its n_groups


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
    starts, n_groups, lengths, energies, stars = spectral._group_runs(e, spectral.degeneracy_tol(e[:, -1] - e[:, 0]))
    # the group columns and overlaps of all walks' groups in turn: each walk's _group_columns and overlaps
    sums = spectral._segment_sums((np.conj(ya) * c).reshape(1, -1), lengths)
    overlaps = np.array(_group_overlaps(sums))
    # summed left to right, as the per-walk Python sum: a 0.0 past the last group changes nothing
    limits = _check_probabilities(_padded(overlaps, n_groups, 0.0).cumsum(axis=1)[:, -1], "limiting probability")
    T, k = np.array([d.T for d in dists]), np.array([d.k for d in dists])
    width = int(n_groups.max())
    g, s = np.zeros((k.shape[0], width), dtype=np.complex128), np.zeros((k.shape[0], width, width))
    averages = np.empty((2, k.shape[0]))
    # one substack per group count G, never padded (a padded matmul sums in another
    # order): every walk at (T, 1), then each other k on the walks at (T, k), whose
    # factors then take the place of their (T, 1) ones
    for m in dict.fromkeys(n_groups.tolist()):
        walks = np.flatnonzero(n_groups == m)
        at = (np.cumsum(n_groups) - n_groups)[walks, None] + np.arange(m)
        a, o, u = sums[0, at][:, None, :], overlaps[at], energies[at]
        gm, sm = _phase_factors(TimeDistribution(T=dists[0].T, k=1), u, T[walks, None])
        averages[:, walks] = _exact_averages(a, o, gm, sm)
        for kk in dict.fromkeys(k[walks].tolist()):
            if kk != 1:
                sub = np.flatnonzero(k[walks] == kk)
                gm[sub], sm[sub] = factors = _phase_factors(dists[walks[sub[0]]], u[sub], T[walks[sub], None])
                averages[1, walks[sub]] = _exact_averages(a[sub], o[sub], *factors)
        g[walks, :m], s[walks, :m, :m] = gm, sm
    _check_probabilities(averages[0], "time-averaged probability")
    _check_probabilities(averages[1], "time-averaged probability")
    return WalkStack(
        decomposition=dec, T=T, k=k, group_starts=starts, n_groups=n_groups, overlaps=overlaps,
        delta_e_star=stars, limiting_probability=limits, averages=averages, factors=(g, s),
    )


def avg_probability_exact(h, psi0: PureState, y: PureState, dist: TimeDistribution) -> float:
    """Closed-form time-averaged probability of measuring y.

    Sum over pairs of eigenspace groups of a_g conj(a_h) Phi(E_h - E_g) with
    a_g = <y|P_g|psi0>; cost one eigendecomposition plus O(G^2) for G groups.
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
    """Average of exp(-iH't) rho0 exp(iH't) over the time law, for H
    snapped to its eigenspace partition, H' = sum_g E_g P_g.

    In the eigenbasis the element (j, k) picks up Phi(E'_k - E'_j) of the
    group energies, exactly 1 within a group (coherences there survive).
    """
    dec = _decompose_one(h)
    e = dec.eigenvalues
    part = spectral.group_eigenspaces(e, spectral.degeneracy_tol(e[-1] - e[0]))
    phi = _phi(*_phase_factors(dist, part.energies))
    return _weighted_density(dec.eigenvectors, _eigenbasis(dec.eigenvectors, rho0), phi, part.group_of)


def _eigenbasis(v: np.ndarray, rho0: DensityOperator) -> np.ndarray:
    """m[j, k] = <E_j|rho0|E_k> for the eigenvector columns v, per matrix of a stack."""
    if rho0.entries.shape != v.shape:
        raise ValidationError(f"rho0 shape {rho0.entries.shape} != {v.shape} of the eigenvectors")
    return v.conj().swapaxes(-1, -2) @ rho0.entries @ v


def _weighted_density(v: np.ndarray, m: np.ndarray, weight: np.ndarray, group_of: np.ndarray) -> DensityOperator:
    """The state whose eigenbasis element (j, k) is m[j, k] * weight[g_j, g_k],
    m from _eigenbasis and g_j = group_of[j], per matrix of a stack (weight
    may lead with axes of its own); the result is computed, so a failed
    invariant is an internal inconsistency."""
    at = group_of.reshape((1,) * (weight.ndim - group_of.ndim - 1) + group_of.shape + (1,))
    weight = np.take_along_axis(np.take_along_axis(weight, at, axis=-2), at.swapaxes(-1, -2), axis=-1)
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
