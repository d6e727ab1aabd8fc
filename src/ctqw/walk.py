"""Time-averaged continuous-time quantum walk quantities.

The walk evolves a state under a Hermitian generator for a random time drawn
as the sum of k independent uniforms on [0, T]; measurement statistics are
averaged over that draw. Everything here is exact in the eigenbasis: the
average of exp(-i(E_j - E_k)t) is the characteristic function of the time
law evaluated at the gap, so averaged probabilities and averaged density
operators are finite sums, no numerical integration involved. A quadrature
fallback exists purely as an independent oracle. Every Monte Carlo
measurement goes through one chunked sampler, _sample.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import integrate

from . import spectral
from .errors import DegenerateProbabilityError, InconsistencyError, ValidationError
from .rng import rng_stream
from .spectral import EigenspacePartition, SpectralDecomposition

__all__ = [
    "PureState",
    "DensityOperator",
    "TimeDistribution",
    "HittingTimeEstimate",
    "pure_state",
    "density_operator",
    "basis_state",
    "characteristic",
    "avg_probability_exact",
    "avg_projector_probability_exact",
    "avg_probability_quadrature",
    "time_averaged_density",
    "limiting_probability",
    "sample_walk",
    "hitting_time_estimate",
    "geometric_grid",
]

TOL_NORM = 1e-10
TOL_TRACE = 1e-9
TOL_PSD = 1e-9
#: |rT| below this switches the characteristic function to its series form
SERIES_THRESHOLD = 1e-8
#: probabilities must land in [-TOL_PROB, 1 + TOL_PROB]
TOL_PROB = 1e-9
#: Monte Carlo shots per chunk: bounds the chunk x dim phase matrix
SAMPLE_CHUNK = 5000


@dataclass(frozen=True)
class PureState:
    """A unit vector in the walk Hilbert space."""

    amplitudes: np.ndarray

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


def pure_state(vec: np.ndarray) -> PureState:
    v = np.asarray(vec, dtype=np.complex128)
    if v.ndim != 1 or v.shape[0] == 0:
        raise ValidationError(f"state must be a non-empty vector, got shape {v.shape}")
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > TOL_NORM:
        raise ValidationError(f"state norm {norm:.12g} deviates from 1 by more than {TOL_NORM:g}")
    return PureState(amplitudes=v)


def basis_state(dim: int, index: int) -> PureState:
    if not 0 <= index < dim:
        raise ValidationError(f"basis index {index} outside 0..{dim - 1}")
    v = np.zeros(dim, dtype=np.complex128)
    v[index] = 1.0
    return PureState(amplitudes=v)


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, unit-trace, positive-semidefinite matrix."""

    entries: np.ndarray

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def density_operator(matrix: np.ndarray) -> DensityOperator:
    op = spectral.hermitian(matrix)
    tr = np.trace(op.entries).real
    if abs(tr - 1.0) > TOL_TRACE:
        raise ValidationError(f"trace {tr:.12g} deviates from 1 by more than {TOL_TRACE:g}")
    lo = float(np.linalg.eigvalsh(op.entries)[0])
    if lo < -TOL_PSD:
        raise ValidationError(f"matrix is not PSD: lowest eigenvalue {lo:.3g}")
    return DensityOperator(entries=op.entries)


def _computed_density(matrix: np.ndarray) -> DensityOperator:
    """density_operator for a computed result: a failed invariant is an
    internal inconsistency, not bad input."""
    try:
        return density_operator(matrix)
    except ValidationError as exc:
        raise InconsistencyError(f"computed density operator is invalid: {exc}") from None


@dataclass(frozen=True)
class TimeDistribution:
    """Evolution time t = t_1 + ... + t_k with t_j i.i.d. uniform on [0, T]."""

    T: float
    k: int = 1

    def __post_init__(self):
        if not self.T > 0:
            raise ValidationError(f"T must be positive, got {self.T}")
        if not (isinstance(self.k, (int, np.integer)) and self.k >= 1):
            raise ValidationError(f"k must be an integer >= 1, got {self.k}")


def characteristic(dist: TimeDistribution, r) -> np.ndarray | complex:
    """E[exp(i r t)] for t distributed per dist.

    Equals ((exp(irT) - 1) / (irT))^k; evaluated by series for |rT| below
    SERIES_THRESHOLD so the removable singularity at r = 0 is exact.
    """
    r_arr = np.asarray(r, dtype=np.float64)
    x = r_arr * dist.T
    small = np.abs(x) < SERIES_THRESHOLD
    xs = np.where(small, x, 0.0)
    # series of (e^{ix}-1)/(ix) = 1 + ix/2 - x^2/6 - ix^3/24; truncation error < 1e-33
    out_small = 1.0 + 0.5j * xs - xs**2 / 6.0 - 1j * xs**3 / 24.0
    xl = np.where(small, 1.0, x)
    out_large = (np.exp(1j * xl) - 1.0) / (1j * xl)
    out = np.where(small, out_small, out_large)
    out = out**dist.k
    if np.isscalar(r) or np.ndim(r) == 0:
        return complex(out)
    return out


def _phi_matrix(dist: TimeDistribution, energies: np.ndarray, tol_degen: float) -> np.ndarray:
    """Matrix Phi[j, k] = characteristic(E_k - E_j), with exact 1 on
    near-degenerate pairs (|E_k - E_j| <= tol_degen)."""
    diff = energies[None, :] - energies[:, None]
    phi = characteristic(dist, diff)
    phi[np.abs(diff) <= tol_degen] = 1.0
    return phi


def _resolve(h, dec: SpectralDecomposition | None) -> SpectralDecomposition:
    if dec is not None:
        return dec
    return spectral.decompose(h)


def _check_probability(p: float, what: str) -> float:
    if p < -TOL_PROB or p > 1.0 + TOL_PROB:
        raise InconsistencyError(f"{what} = {p:.12g} outside [0,1] beyond tolerance {TOL_PROB:g}")
    return float(p)


def _check_state_dim(state: PureState, dim: int) -> None:
    if state.dim != dim:
        raise ValidationError(f"state dimension {state.dim} != operator dimension {dim}")


def avg_probability_exact(
    h,
    psi0: PureState,
    y: PureState,
    dist: TimeDistribution,
    dec: SpectralDecomposition | None = None,
    tol_degen: float | None = None,
) -> float:
    """Closed-form time-averaged probability of measuring y.

    Sum over eigenpairs of a_j conj(a_k) Phi(E_k - E_j) with
    a_j = <y|E_j><E_j|psi0>; cost one eigendecomposition plus O(dim^2).
    """
    dec = _resolve(h, dec)
    _check_state_dim(psi0, dec.dim)
    _check_state_dim(y, dec.dim)
    if tol_degen is None:
        tol_degen = spectral.default_degeneracy_tol(dec)
    v = dec.eigenvectors
    a = np.conj(v.conj().T @ y.amplitudes) * (v.conj().T @ psi0.amplitudes)
    phi = _phi_matrix(dist, dec.eigenvalues, tol_degen)
    p = np.real(np.einsum("j,k,jk->", a, np.conj(a), phi))
    return _check_probability(p, "time-averaged probability")


def avg_projector_probability_exact(
    h,
    psi0: PureState,
    target_basis: np.ndarray,
    dist: TimeDistribution,
    dec: SpectralDecomposition | None = None,
    tol_degen: float | None = None,
) -> float:
    """Time-averaged probability of landing in a subspace.

    target_basis holds orthonormal columns spanning the measured subspace;
    the averaged projector expectation is sum_{jk} conj(c_k) c_j M_kj
    Phi(E_k - E_j) with M the projector in the eigenbasis. Reduces to
    avg_probability_exact when the subspace is one-dimensional.
    """
    b = np.asarray(target_basis, dtype=np.complex128)
    if b.ndim != 2 or b.shape[0] == 0 or b.shape[1] == 0:
        raise ValidationError(f"target basis must be a non-empty matrix, got shape {b.shape}")
    gram = b.conj().T @ b
    if np.max(np.abs(gram - np.eye(b.shape[1]))) > 1e-10:
        raise ValidationError("target basis columns are not orthonormal")
    dec = _resolve(h, dec)
    if b.shape[0] != dec.dim:
        raise ValidationError(f"target basis dimension {b.shape[0]} != operator dimension {dec.dim}")
    if tol_degen is None:
        tol_degen = spectral.default_degeneracy_tol(dec)
    v = dec.eigenvectors
    return _rows_probability(dec.eigenvalues, v.conj().T @ psi0.amplitudes, b.conj().T @ v, dist, tol_degen)


def _rows_probability(
    energies: np.ndarray, c: np.ndarray, rows: np.ndarray, dist: TimeDistribution, tol_degen: float
) -> float:
    """Time-averaged probability of the measured rows, in an eigenbasis.

    c[j] = <E_j|psi0> and rows[r, j] = <b_r|E_j> for orthonormal measured
    vectors b_r; the eigenvectors E_j need only span an invariant subspace
    that holds psi0. The result is sum_{jk} conj(c_k) c_j M_kj Phi(E_k - E_j)
    with M = rows^dagger rows.
    """
    m = rows.conj().T @ rows
    phi = _phi_matrix(dist, energies, tol_degen)
    p = np.real(np.einsum("k,j,kj,jk->", np.conj(c), c, m, phi))
    return _check_probability(p, "time-averaged subspace probability")


def avg_probability_quadrature(h, psi0: PureState, y: PureState, T: float) -> float:
    """Oracle: (1/T) integral_0^T |<y|exp(-iHt)|psi0>|^2 dt by adaptive
    quadrature (k = 1 only), absolute tolerance 1e-8."""
    if not T > 0:
        raise ValidationError(f"T must be positive, got {T}")
    dec = spectral.decompose(h)
    _check_state_dim(psi0, dec.dim)
    _check_state_dim(y, dec.dim)
    v = dec.eigenvectors
    a = np.conj(v.conj().T @ y.amplitudes) * (v.conj().T @ psi0.amplitudes)
    e = dec.eigenvalues

    def p_t(t: float) -> float:
        amp = np.sum(a * np.exp(-1j * e * t))
        return float(np.abs(amp) ** 2)

    val, _ = integrate.quad(p_t, 0.0, T, epsabs=1e-9, epsrel=1e-11, limit=2000)
    return _check_probability(val / T, "quadrature probability")


def time_averaged_density(
    h,
    rho0: DensityOperator,
    dist: TimeDistribution,
    dec: SpectralDecomposition | None = None,
    tol_degen: float | None = None,
) -> DensityOperator:
    """Average of exp(-iHt) rho0 exp(iHt) over the time law.

    In the eigenbasis the element (j, k) picks up Phi(E_k - E_j);
    near-degenerate pairs are left untouched (coherences survive).
    """
    dec = _resolve(h, dec)
    if tol_degen is None:
        tol_degen = spectral.default_degeneracy_tol(dec)
    v = dec.eigenvectors
    rho_eig = v.conj().T @ rho0.entries @ v
    phi = _phi_matrix(dist, dec.eigenvalues, tol_degen)
    damped = rho_eig * phi
    out = v @ damped @ v.conj().T
    return _computed_density(out)


def limiting_probability(
    h,
    psi0: PureState,
    y: PureState,
    partition: EigenspacePartition | None = None,
    tol_degen: float | None = None,
) -> float:
    """T -> infinity limit: sum over eigenspace groups of |<y|P_g|psi0>|^2."""
    if partition is None:
        dec = spectral.decompose(h)
        partition = spectral.group_eigenspaces(dec, tol_degen)
    _check_state_dim(psi0, partition.decomposition.dim)
    _check_state_dim(y, partition.decomposition.dim)
    v = partition.decomposition.eigenvectors
    ybar = v.conj().T @ y.amplitudes
    c = v.conj().T @ psi0.amplitudes
    total = 0.0
    for members in partition.groups:
        idx = list(members)
        total += float(np.abs(np.sum(np.conj(ybar[idx]) * c[idx])) ** 2)
    return _check_probability(total, "limiting probability")


def _sample(
    energies: np.ndarray,
    c: np.ndarray,
    rows: np.ndarray,
    dist: TimeDistribution,
    rng: np.random.Generator,
    shots: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo: draw a time, evolve, measure; one outcome per shot.

    c[j] = <E_j|psi0> and rows[r, j] = <b_r|E_j> for the measured basis
    vectors b_r, with the eigenvectors E_j spanning an invariant subspace
    that holds psi0 (the whole space, or a reduction of it). Each chunk of
    SAMPLE_CHUNK shots draws its times, then one uniform u per shot; the
    outcome is the first r whose cumulative probability exceeds u, or
    len(rows) ("none of them") when u reaches their total. Only the chunk x
    dim phases and chunk x len(rows) probabilities are ever held. Returns
    (times, outcomes).
    """
    last = rows.shape[0]
    times = np.empty(shots)
    outcomes = np.empty(shots, dtype=np.int64)
    for lo in range(0, shots, SAMPLE_CHUNK):
        m = min(SAMPLE_CHUNK, shots - lo)
        ts = rng.random((m, dist.k)).sum(axis=1) * dist.T
        amps = (np.exp(-1j * np.outer(ts, energies)) * c) @ rows.T
        probs = np.abs(amps) ** 2
        total = np.clip(np.sum(probs, axis=1), 0.0, 1.0)
        u = rng.random(m)
        first = np.minimum((probs.cumsum(axis=1) <= u[:, None]).sum(axis=1), last - 1)
        times[lo : lo + m] = ts
        outcomes[lo : lo + m] = np.where(u < total, first, last)
    return times, outcomes


def sample_walk(
    h,
    psi0: PureState,
    dist: TimeDistribution,
    rng_seed: int,
    trials: int,
    measurement_basis: np.ndarray | None = None,
    dec: SpectralDecomposition | None = None,
) -> np.ndarray:
    """Monte Carlo: draw times, evolve, measure; returns empirical frequencies.

    measurement_basis columns define the measurement (default: computational
    basis). Deterministic for a fixed (rng_seed, trials).
    """
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    dec = _resolve(h, dec)
    _check_state_dim(psi0, dec.dim)
    rows = dec.eigenvectors
    if measurement_basis is not None:
        b = np.asarray(measurement_basis, dtype=np.complex128)
        if b.shape != (dec.dim, dec.dim) or np.max(np.abs(b.conj().T @ b - np.eye(dec.dim))) > 1e-10:
            raise ValidationError(f"measurement basis must be {dec.dim} x {dec.dim} with orthonormal columns")
        rows = b.conj().T @ rows
    c = dec.eigenvectors.conj().T @ psi0.amplitudes
    _, outcomes = _sample(dec.eigenvalues, c, rows, dist, rng_stream(rng_seed), trials)
    # a complete basis leaves only rounding for "none of them"; it is dropped
    return np.bincount(outcomes, minlength=dec.dim + 1)[: dec.dim] / float(trials)


def geometric_grid(t_lo: float, t_hi: float, per_decade: int = 40) -> np.ndarray:
    """Geometric time grid, default 40 points per decade, endpoints included."""
    if not (t_lo > 0 and t_hi > t_lo):
        raise ValidationError(f"need 0 < t_lo < t_hi, got ({t_lo}, {t_hi})")
    decades = np.log10(t_hi / t_lo)
    n = max(2, int(np.ceil(decades * per_decade)) + 1)
    return np.geomspace(t_lo, t_hi, n)


@dataclass(frozen=True)
class HittingTimeEstimate:
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
    h,
    psi0: PureState,
    y: PureState,
    T_grid: np.ndarray,
    k: int | object = 1,
    dec: SpectralDecomposition | None = None,
    tol_degen: float | None = None,
) -> HittingTimeEstimate:
    """Minimize total evolution time over averaged success probability.

    k may be an integer or a callable T -> int (schedules where the segment
    count grows with the scale). Raises DegenerateProbabilityError if every
    grid probability is below 1e-15.
    """
    grid = np.asarray(T_grid, dtype=np.float64)
    if grid.ndim != 1 or grid.shape[0] == 0 or np.any(grid <= 0):
        raise ValidationError("T_grid must be a non-empty 1-d array of positive times")
    dec = _resolve(h, dec)
    best = None
    floor = 1e-15
    any_above = False
    for t in grid:
        kk = int(k(t)) if callable(k) else int(k)
        p = avg_probability_exact(h, psi0, y, TimeDistribution(T=float(t), k=kk), dec=dec, tol_degen=tol_degen)
        if p <= floor:
            continue
        any_above = True
        ratio = kk * float(t) / p
        if best is None or ratio < best[0]:
            best = (ratio, float(t), p, kk)
    if not any_above:
        raise DegenerateProbabilityError(
            f"all {grid.shape[0]} grid probabilities below {floor:g}; target unreachable"
        )
    tau, argmin_t, p_at, k_at = best
    desc = f"geometric[{grid[0]:.6g},{grid[-1]:.6g}]x{grid.shape[0]}"
    return HittingTimeEstimate(
        tau=float(tau),
        argmin_T=argmin_t,
        probability_at_argmin=p_at,
        k_at_argmin=k_at,
        grid_description=desc,
    )
