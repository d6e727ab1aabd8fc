"""Quantum spatial search built from a reversible chain.

The search walk is defined on the doubled register space (dimension n^2,
basis |x, y>). A block reflection V(s) prepares each row distribution of the
interpolated chain P_s, an edge swap S exchanges the registers on supported
pairs, and A = V^T S V is a real symmetric involution whose |x,0> block is
the discriminant D = sqrt(P_s o P_s^T). The search generator is
H = i(A P0 - P0 A), with P0 the projector onto the |x,0> states.

run_search evaluates the walk in the H-invariant span of {|x,0>, A|x,0>},
which holds the start |pi,0> and has dimension at most 2n. Write
D = sum_j lambda_j v_j v_j^T. For |lambda_j| < 1, with
s_j = sqrt(1 - lambda_j^2) and |w_j> = (A - lambda_j)|v_j,0> / s_j, H maps
|v_j,0> to i s_j |w_j> and |w_j> to -i s_j |v_j,0>, so
(|v_j,0> +- i|w_j>)/sqrt(2) are eigenvectors with energies +-s_j. The
Perron eigenvalue 1, simple for a lazy irreducible chain, is the one energy
0 (|v_1,0> alone), so the subspace has dimension 2n - 1; a lambda_2 within
n 2^-52 of 1, which eigh cannot resolve, is refused. The start amplitudes are
<v_j|sqrt(pi)>, and the marked-register rows of these eigenvectors follow
from row and column m of P_s, whatever completion V uses. So the exact
average and the Monte Carlo need only the n x n discriminant: O(n^3) time
and O(n^2) memory, where the edge space costs O(n^6) and O(n^4). Row y is
exactly zero unless P_s[m, y] or P_s[y, m] is positive, so only the rows of
that marked neighbourhood are kept: 3 on a lazy cycle, all n on the
complete chain. The Monte Carlo counts the shots that land in their span;
the sampler measures that span at its rank (3 on the complete chain) and
evaluates only the phases the start reaches, 1 on the complete chain and
about n/2 on the cycle (SpectralWalk.sample).

Outside that span H vanishes: its zero eigenspace has dimension
(n-1)^2 + 1 for lazy chains, and the spectral gap is quadratically amplified
relative to the classical one. Evolving the stationary start for a random
time of scale sqrt(hitting time) leaves at least 1/4 - epsilon of the
averaged population on the marked rows. The dense edge-space operators
(block_reflection, swap_operator, search_operators, start_state,
marked_subspace_basis, spectrum_report) are kept as the small-n oracle that
the reduction is tested against.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import markov, spectral, walk
from .errors import AssertionFailure, InconsistencyError, ValidationError, check_count
from .markov import InterpolatedChain, ReversibleChain
from .rng import rng_stream
from .walk import TimeDistribution

__all__ = [
    "SEARCH_TIME_FACTOR",
    "SearchOperators",
    "SearchSpectrumReport",
    "SearchRecord",
    "OverlapReport",
    "swap_operator",
    "block_reflection",
    "search_operators",
    "spectrum_report",
    "start_state",
    "marked_subspace_basis",
    "overlap_preconditions",
    "run_search",
]

#: evolution-time scale c in T = c sqrt(HT); smallest value in {1, 2, 4, 8}
#: for which the averaged success floor 1/4 - epsilon holds across the
#: reference families (complete, cycle, random-reversible; n <= 32,
#: epsilon >= 0.025). Frozen; never auto-tuned during runs.
SEARCH_TIME_FACTOR = 1.0

INVOLUTION_TOL = 1e-12
ZERO_ENERGY_TOL = 1e-8
#: spectrum_report, the dense oracle, gives energy 0 to each |lambda| >= 1 - UNIT_EIGENVALUE_TOL
UNIT_EIGENVALUE_TOL = 1e-12
#: certificates of the reduced walk: start-amplitude norm, marked-row Gram spectrum
REDUCED_TOL = 1e-12
#: the overlap preconditions: start overlap >= 1/2 - tol, marked weight 1/2 +- tol
OVERLAP_TOL = 1e-9
#: the Perron certificate max |D sqrt(pi_s) - sqrt(pi_s)| of the overlap
#: preconditions at s*; measured at most 2.2e-14 (the complete chain at
#: N = 2048) on the complete, cycle and random-reversible chains up to N = 2048
PERRON_TOL = 1e-12


def _householder_column(w: np.ndarray) -> np.ndarray:
    """Real orthogonal matrix whose first column is the unit vector w."""
    n = w.shape[0]
    u = w - np.eye(n)[:, 0]
    nrm = np.linalg.norm(u)
    if nrm < 1e-14:
        return np.eye(n)
    u = u / nrm
    return np.eye(n) - 2.0 * np.outer(u, u)


def _random_orthogonal(n: int, rng) -> np.ndarray:
    g = rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diag(r))


def block_reflection(
    p_s: np.ndarray, completion: str = "householder", completion_seed: int | None = None
) -> np.ndarray:
    """Block-diagonal V(s): the x-th block maps e_0 to sqrt of the x-th row.

    Only the first column of each block is pinned by the construction;
    completion "randomized" multiplies the remaining columns by a random
    orthogonal mixer, which must leave every walk observable unchanged.
    """
    n = p_s.shape[0]
    if completion == "randomized":
        if completion_seed is None:
            raise ValidationError("randomized completion requires completion_seed")
        rng = rng_stream(completion_seed, 29)
    elif completion != "householder":
        raise ValidationError(f"unknown completion {completion!r}")
    v = np.zeros((n * n, n * n))
    for x in range(n):
        w = np.sqrt(p_s[x])
        u = _householder_column(w)
        if completion == "randomized":
            mix = np.eye(n)
            mix[1:, 1:] = _random_orthogonal(n - 1, rng)
            u = u @ mix
        v[x * n : (x + 1) * n, x * n : (x + 1) * n] = u
    return v


def swap_operator(base_p: np.ndarray) -> np.ndarray:
    """Register swap on pairs supported by the base chain, identity elsewhere.

    Built from the un-interpolated support so the same involution serves
    every interpolation value (interpolation only removes edges and adds the
    marked self-loop, which the swap fixes anyway).
    """
    n = base_p.shape[0]
    support = (base_p > 0) | (base_p.T > 0)
    perm = np.arange(n * n)
    for x in range(n):
        for y in range(x + 1, n):
            if support[x, y]:
                perm[x * n + y], perm[y * n + x] = y * n + x, x * n + y
    return np.eye(n * n)[perm]


class SearchOperators(NamedTuple):
    """Walk operators for one interpolated chain."""

    interpolated: InterpolatedChain
    V: np.ndarray
    S: np.ndarray
    A: np.ndarray
    H: np.ndarray

    @property
    def n(self) -> int:
        return self.interpolated.base.n

    @property
    def dim(self) -> int:
        return self.H.shape[0]


def search_operators(
    chain: ReversibleChain,
    marked: int,
    s: float,
    completion: str = "householder",
    completion_seed: int | None = None,
) -> SearchOperators:
    """Assemble V, S, A and the search generator H for P(s).

    Certifies A = V^T S V is a symmetric involution and that its |x,0> block
    equals the interpolated discriminant before handing back H.
    """
    inter = markov.interpolate(chain, marked, s)
    n = chain.n
    v = block_reflection(inter.P_s, completion, completion_seed)
    sw = swap_operator(chain.P)
    a = v.T @ sw @ v
    a = 0.5 * (a + a.T)
    dev = float(np.max(np.abs(a @ a - np.eye(n * n))))
    if dev > INVOLUTION_TOL * n:
        raise InconsistencyError(f"A fails to square to identity (deviation {dev:.3g})")
    d_block = a[::n, ::n]
    d_expect = markov.discriminant(inter.P_s)
    blk = float(np.max(np.abs(d_block - d_expect)))
    if blk > 1e-10:
        raise InconsistencyError(f"discriminant block deviates by {blk:.3g}")

    p0 = np.zeros(n * n)
    p0[[x * n for x in range(n)]] = 1.0
    ap0 = a * p0[None, :]
    p0a = a * p0[:, None]
    h = 1j * (ap0 - p0a)
    return SearchOperators(interpolated=inter, V=v, S=sw, A=a, H=h)


def start_state(chain: ReversibleChain) -> walk.PureState:
    """|pi, 0>: square-root stationary weights on the first register."""
    n = chain.n
    vec = np.zeros(n * n, dtype=np.complex128)
    vec[[x * n for x in range(n)]] = np.sqrt(chain.pi)
    return walk.pure_state(vec)


def marked_subspace_basis(n: int, marked: int) -> np.ndarray:
    """Orthonormal columns spanning the marked first-register rows."""
    b = np.zeros((n * n, n), dtype=np.complex128)
    for y in range(n):
        b[marked * n + y, y] = 1.0
    return b


class SearchSpectrumReport(NamedTuple):
    """Structure of the search generator's spectrum at one (marked, s)."""

    n: int
    dim: int
    s: float
    zero_multiplicity: int
    expected_zero_multiplicity: int
    simple_zero_formula: int  # (n-1)^2 + 1, exact when only the top discriminant eigenvalue sits at +-1
    formula_matches: bool
    pairing_residual: float
    spectrum_match_residual: float
    eigenpair_residual: float
    top_discriminant_residual: float
    top_eigvec_residual: float  # top eigenvector vs entrywise sqrt(pi_s)
    discriminant_gap: float
    amplified_gap: float
    amplification_ratio: float  # amplified_gap / sqrt(discriminant_gap)
    ratio_in_range: bool  # within [1, sqrt(2)]


def spectrum_report(chain: ReversibleChain, marked: int, s: float) -> SearchSpectrumReport:
    """Measure the spectral structure of H against the discriminant's.

    Checks performed: paired +-energies, zero multiplicity, agreement of the
    nonzero energies with +-sqrt(1 - lambda^2), explicit eigenvector pairs
    (|v,0> +- i |w>)/sqrt(2), and the quadratic gap amplification ratio.
    """
    ops = search_operators(chain, marked, s)
    n = ops.n
    dec = spectral.decompose(spectral.hermitian(ops.H))
    energies = dec.eigenvalues

    disc = markov.discriminant(ops.interpolated.P_s)
    lam, vecs = np.linalg.eigh(disc)
    nonzero_pred = []
    for l in lam:
        if abs(float(l)) >= 1.0 - UNIT_EIGENVALUE_TOL:
            continue  # magnitude-1 eigenvalue: contributes an exact zero energy
        val = math.sqrt(max(0.0, 1.0 - float(l) ** 2))
        if val > ZERO_ENERGY_TOL:
            nonzero_pred.extend((-val, val))
    nonzero_pred = np.sort(np.array(nonzero_pred))
    expected_zero = n * n - nonzero_pred.shape[0]

    zero_mult = int(np.sum(np.abs(energies) <= ZERO_ENERGY_TOL))
    measured_nonzero = np.sort(energies[np.abs(energies) > ZERO_ENERGY_TOL])
    if measured_nonzero.shape[0] != nonzero_pred.shape[0]:
        raise InconsistencyError(
            f"{measured_nonzero.shape[0]} nonzero energies, predicted {nonzero_pred.shape[0]}"
        )
    match_resid = float(np.max(np.abs(measured_nonzero - nonzero_pred))) if nonzero_pred.size else 0.0
    pairing = float(np.max(np.abs(np.sort(energies) + np.sort(energies)[::-1])))

    # explicit eigenvectors from discriminant pairs
    eig_resid = 0.0
    for idx in range(lam.shape[0]):
        l = float(lam[idx])
        if abs(l) >= 1.0 - UNIT_EIGENVALUE_TOL:
            continue
        amp = math.sqrt(max(0.0, 1.0 - l * l))
        if amp <= ZERO_ENERGY_TOL:
            continue
        v0 = np.zeros(n * n, dtype=np.complex128)
        v0[[x * n for x in range(n)]] = vecs[:, idx]
        w = (ops.A @ v0 - l * v0) / amp
        for sign in (+1.0, -1.0):
            psi = (v0 + sign * 1j * w) / math.sqrt(2.0)
            resid = float(np.linalg.norm(ops.H @ psi - sign * amp * psi))
            eig_resid = max(eig_resid, resid)

    top_resid = float(abs(lam[-1] - 1.0))
    u = vecs[:, -1]
    if u.sum() < 0:
        u = -u
    top_vec_resid = float(np.max(np.abs(u - np.sqrt(ops.interpolated.pi_s))))
    disc_gap = float(1.0 - lam[-2])
    amplified = math.sqrt(max(0.0, 1.0 - float(lam[-2]) ** 2))
    ratio = amplified / math.sqrt(disc_gap) if disc_gap > 0 else float("nan")
    in_range = bool(disc_gap > 0 and 1.0 - 1e-9 <= ratio <= math.sqrt(2.0) + 1e-9)
    return SearchSpectrumReport(
        n=n,
        dim=n * n,
        s=float(s),
        zero_multiplicity=zero_mult,
        expected_zero_multiplicity=int(expected_zero),
        simple_zero_formula=(n - 1) ** 2 + 1,
        formula_matches=bool(zero_mult == (n - 1) ** 2 + 1),
        pairing_residual=pairing,
        spectrum_match_residual=match_resid,
        eigenpair_residual=eig_resid,
        top_discriminant_residual=top_resid,
        top_eigvec_residual=top_vec_resid,
        discriminant_gap=disc_gap,
        amplified_gap=amplified,
        amplification_ratio=ratio,
        ratio_in_range=in_range,
    )


def _discriminant_walk(
    inter: InterpolatedChain, start: np.ndarray
) -> tuple[walk.SpectralWalk, spectral.SpectralDecomposition]:
    """The search walk in its invariant subspace, built from D(P_s) alone.

    start holds the first-register amplitudes of the start state |start, 0>.
    Returns the walk.reduced_walk over the reduced eigenvectors psi_k, in
    ascending energy and less those the start misses, and D's decomposition.
    The walk's start amplitudes are <psi_k|start, 0> and its rows[i, k] =
    <marked, y_i|V|psi_k> the marked rows in edge coordinates for the
    ascending y_i in supp P_s[m] u supp P_s[:, m], those not exactly zero.

    Certified: D's decomposition reconstructs D; the amplitudes have unit
    norm, so the start lies inside the subspace; rows^dagger rows, the
    marked projector on the subspace, has its spectrum in [0, 1]. Each holds
    within REDUCED_TOL, else InconsistencyError. Only the top (Perron)
    eigenvalue has energy 0, so a second one within dim 2^-52 of 1, closer
    than eigh resolves, is an InconsistencyError too.
    """
    p_s, m = inter.P_s, inter.marked
    dec = spectral.decompose(spectral.hermitian(markov.discriminant(p_s)))
    lam, v = dec.eigenvalues, dec.eigenvectors
    c = v.conj().T @ start
    keep = np.flatnonzero((p_s[m] > 0) | (p_s[:, m] > 0))
    row_v = np.sqrt(p_s[m, keep])[:, None] * v[m]  # V|v_j,0> on the marked block
    row_av = np.sqrt(p_s[keep, m])[:, None] * v[keep]  # V A|v_j,0> = S V|v_j,0> on it
    paired = lam.shape[0] - 1  # all but the top eigenvalue, the Perron 1: its energy is 0
    # eigh resolves the eigenvalues of this norm-1 matrix only to about dim 2^-52 (backward stability, Weyl)
    resolved = 1.0 - lam.shape[0] * 2.0**-52
    if not np.abs(lam[:paired]).max(initial=0.0) <= resolved:
        raise InconsistencyError(
            f"D's lambda_2 = {lam[-2]:.17g} lies within {lam.shape[0]} * 2^-52 of 1: its gap is beyond float64 precision"
        )
    s = np.sqrt(1.0 - lam[:paired] ** 2)
    half_v = row_v[:, :paired] / math.sqrt(2.0)
    half_iw = 1j * (row_av[:, :paired] - lam[:paired] * row_v[:, :paired]) / (s * math.sqrt(2.0))
    half_c = c[:paired] / math.sqrt(2.0)
    energies = np.concatenate([-s, np.zeros(lam.shape[0] - paired), s])
    amplitudes = np.concatenate([half_c, c[paired:], half_c])
    rows = np.hstack([half_v - half_iw, row_v[:, paired:], half_v + half_iw])
    order = np.argsort(energies, kind="stable")
    energies, amplitudes, rows = energies[order], amplitudes[order], rows[:, order]

    norm_err = abs(float(np.linalg.norm(amplitudes)) - 1.0)
    if norm_err > REDUCED_TOL:
        raise InconsistencyError(f"start state leaves the reduced subspace: norm off 1 by {norm_err:.3g}")
    # rows rows^dagger (len(keep) x len(keep)) has the nonzero spectrum of rows^dagger rows
    gram = np.linalg.eigvalsh(rows @ rows.conj().T)
    if gram[0] < -REDUCED_TOL or gram[-1] > 1.0 + REDUCED_TOL:
        raise InconsistencyError(
            f"marked projector on the reduced subspace has spectrum [{gram[0]:.17g}, {gram[-1]:.17g}]"
        )
    return walk.reduced_walk(energies, amplitudes, rows), dec


class OverlapReport(NamedTuple):
    """Start-state and marked-state overlaps with the stationary eigenvector
    at the half-weight interpolation point."""

    n: int
    marked: int
    s: float
    overlap_start: float  # |<top eigvec of D(P_s) | sqrt(base pi)>|^2
    overlap_marked: float  # |<marked | top eigvec>|^2 = pi_s[marked]
    closed_form_residual: float  # max |D sqrt(pi_s) - sqrt(pi_s)|, the Perron certificate


def overlap_preconditions(ic: InterpolatedChain) -> OverlapReport:
    """Certify the two overlap conditions the success floor rests on.

    At s*, the top discriminant eigenvector is sqrt(pi_s) in closed form. It
    is certified in O(N^2) by the residual |D sqrt(pi_s) - sqrt(pi_s)| <=
    PERRON_TOL: a positive eigenvector of a nonnegative irreducible matrix
    belongs to its top eigenvalue (Perron-Frobenius), else
    InconsistencyError. Its squared overlap with the stationary start must
    be >= 1/2 (else AssertionFailure); its marked weight pi_s[m] must be 1/2
    within OVERLAP_TOL, the half-weight point (else ValidationError).
    """
    pv = float(ic.pi_s[ic.marked])
    if not abs(pv - 0.5) <= OVERLAP_TOL:
        raise ValidationError(
            f"overlap preconditions need the half-weight point; marked weight is {pv:.12g}"
        )
    u = np.sqrt(ic.pi_s)
    resid = float(np.max(np.abs(markov.discriminant(ic.P_s) @ u - u)))
    if not resid <= PERRON_TOL:
        raise InconsistencyError(f"sqrt(pi_s) is not the Perron vector of D(P_s): residual {resid:.3g}")
    overlap_start = float((u @ np.sqrt(ic.base.pi)) ** 2)
    if not overlap_start >= 0.5 - OVERLAP_TOL:
        raise AssertionFailure(f"start overlap {overlap_start:.12g} fell below 1/2")
    return OverlapReport(
        n=ic.base.n,
        marked=int(ic.marked),
        s=float(ic.s),
        overlap_start=overlap_start,
        overlap_marked=pv,
        closed_form_residual=resid,
    )


class SearchRecord(NamedTuple):
    """One search experiment: exact averaged success and its Monte Carlo check."""

    family: str
    n: int
    marked: int
    epsilon: float
    s_star: float
    gap_s_star: float
    hitting_time: float
    time_factor: float
    T: float
    k: int
    total_time: float  # k T, the per-run evolution-time budget
    p_exact: float
    success_floor: float  # 1/4 - epsilon
    floor_holds: bool
    overlap_start: float  # |<top eigvec at s*|start>|^2, >= 1/2
    overlap_marked: float  # marked weight at s*, = 1/2
    mc_shots: int
    mc_freq: float | None
    mc_std_error: float | None
    mc_within_3sigma: bool | None
    mc_phases: int | None  # phases evaluated per shot: the distinct nonzero group |E| the start reaches
    mc_prune_bound: float  # most by which the energies the start misses move p_exact and each shot's hit probability
    rng_seed: int
    walk_dim: int  # reduced eigenvectors before the cut to the start's reach: 2n - 1, as only the Perron eigenvalue has energy 0


def run_search(
    chain: ReversibleChain,
    marked: int,
    epsilon: float,
    rng_seed: int,
    family: str = "",
    shots: int = 100000,
    time_factor: float | None = None,
) -> SearchRecord:
    """Search for the marked vertex by the randomized-time averaged walk.

    Pipeline: lazify, interpolate to s* where the marked
    stationary weight is 1/2, evolve |pi, 0> under the search generator for
    t summed from k = ceil(log2(1/epsilon)) uniforms on [0, T] with
    T = time_factor sqrt(HT), and measure the first register. The walk is
    evaluated in the discriminant's invariant subspace (see the module
    docstring); no edge-space array is built. The exact averaged success
    probability is compared with the 1/4 - epsilon floor as floor_holds,
    never raised on; shots > 0 adds a Bernoulli Monte Carlo estimate of
    the same number, the fraction of shots that hit the marked rows, with
    the phases per shot (shots = 0 skips it); the walk's prune bound covers both.
    """
    if not (isinstance(marked, (int, np.integer)) and 0 <= marked < chain.n):
        raise ValidationError(f"marked vertex {marked} out of range for n={chain.n}")
    if not 0.0 < epsilon < 0.25:
        raise ValidationError(f"epsilon must lie in (0, 1/4), got {epsilon}")
    check_count(shots, "shots", least=0)
    check_count(rng_seed, "seed", least=0)
    work = markov.lazify(chain)

    n = work.n
    inter = markov.half_weight(work, marked)
    ht = markov.classical_hitting_time(work, marked)
    c = SEARCH_TIME_FACTOR if time_factor is None else float(time_factor)
    T = c * math.sqrt(ht)
    k = max(1, math.ceil(math.log2(1.0 / epsilon)))
    dist = TimeDistribution(T=T, k=k)

    reduced, d_dec = _discriminant_walk(inter, np.sqrt(work.pi))
    # spectral gap 1 - lambda_2 of D(P_s*), off the same decomposition
    gap = 1.0 - d_dec.eigenvalues[-2]
    p_exact = reduced.probability(dist)
    floor = 0.25 - epsilon
    holds = bool(p_exact >= floor - 1e-9)
    ov = overlap_preconditions(inter)

    mc_freq = mc_err = within = phases = None
    if shots > 0:
        _, hit = reduced.sample(dist, rng_stream(rng_seed, 23), shots)
        mc_freq = int(np.count_nonzero(hit)) / float(shots)
        mc_err = math.sqrt(max(mc_freq * (1.0 - mc_freq), 1e-12) / shots)
        sigma_exact = math.sqrt(max(p_exact * (1.0 - p_exact), 1e-12) / shots)
        within = bool(abs(mc_freq - p_exact) <= 3.0 * sigma_exact + 1e-12)
        phases = reduced.mc_phases

    return SearchRecord(
        family=family,
        n=n,
        marked=int(marked),
        epsilon=float(epsilon),
        s_star=inter.s,
        gap_s_star=float(gap),
        hitting_time=float(ht),
        time_factor=float(c),
        T=float(T),
        k=int(k),
        total_time=float(k) * float(T),
        p_exact=float(p_exact),
        success_floor=float(floor),
        floor_holds=holds,
        overlap_start=ov.overlap_start,
        overlap_marked=ov.overlap_marked,
        mc_shots=int(shots),
        mc_freq=mc_freq,
        mc_std_error=mc_err,
        mc_within_3sigma=within,
        mc_phases=phases,
        mc_prune_bound=reduced.prune_bound,
        rng_seed=int(rng_seed),
        walk_dim=int(reduced.dim),
    )
