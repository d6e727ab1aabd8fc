"""Time-averaged continuous-time quantum walk quantities.

The walk evolves a state under a Hermitian generator for a random time drawn
as the sum of k independent uniforms on [0, T]; measurement statistics are
averaged over that draw. Everything here is exact in the eigenbasis: the
average of exp(-i(E_j - E_k)t) is the characteristic function of the time
law evaluated at the gap, so averaged probabilities and averaged density
operators are finite sums, no numerical integration involved. A quadrature
fallback exists purely as an independent oracle.

A SpectralWalk holds one walk read off one eigenbasis: the energies, the
start amplitudes and the target rows. Every exact average, limiting
probability, gap report and Monte Carlo measurement is a method of it, so a
spectrum is decomposed, grouped and gapped once however many times T it is
evaluated at. The one-shot functions below each build one and ask it once.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import spectral
from .errors import DegenerateProbabilityError, InconsistencyError, ValidationError
from .rng import rng_stream
from .spectral import EigenspacePartition, GapReport, SpectralDecomposition

__all__ = [
    "PureState",
    "DensityOperator",
    "TimeDistribution",
    "HittingTimeEstimate",
    "SpectralWalk",
    "spectral_walk",
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


def _check_probability(p: float, what: str) -> float:
    if not -TOL_PROB <= p <= 1.0 + TOL_PROB:  # NaN fails too
        raise InconsistencyError(f"{what} = {p:.12g} outside [0,1] beyond tolerance {TOL_PROB:g}")
    return float(p)


def _check_state_dim(state: PureState, dim: int) -> None:
    if state.dim != dim:
        raise ValidationError(f"state dimension {state.dim} != operator dimension {dim}")


@dataclass(frozen=True, eq=False)
class SpectralWalk:
    """A walk from one start towards one target, in one eigenbasis.

    energies[j] are the ascending eigenvalues E_j, c[j] = <E_j|psi0> and
    rows[r, j] = <b_r|E_j> for the orthonormal target vectors b_r. The
    eigenvectors E_j need only span an invariant subspace that holds psi0
    (the whole space, or a reduction of it). decomposition is the full
    eigendecomposition the walk was read from, None for a reduced walk;
    only the eigenspace partition, and what is derived from it, needs it.

    The degeneracy tolerance, the partition, the group overlaps, the
    limiting probability and the gap report are worked out on first use;
    each exact average is kept per time law, so one (T, k) is evaluated
    once however many bounds are certified against it.
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
    def _amplitudes(self) -> np.ndarray:
        # a[r, j] = <b_r|E_j><E_j|psi0>
        return self.rows * self.c

    def probability(self, dist: TimeDistribution) -> float:
        """Exact time-averaged probability of the target.

        sum_r sum_{jk} a_rj conj(a_rk) Phi(E_k - E_j): one
        characteristic-function matrix per time law, O(len(rows) dim^2).
        """
        p = self._exact.get(dist)
        if p is None:
            a = self._amplitudes
            phi = _phi_matrix(dist, self.energies, self.tol_degen)
            p = np.real(np.einsum("rj,rk,jk->", a, np.conj(a), phi))
            p = self._exact[dist] = _check_probability(p, "time-averaged probability")
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
        """Eigenspace groups of the full decomposition at tol_degen."""
        if self.decomposition is None:
            raise ValidationError("a reduced walk has no full eigendecomposition to group")
        return spectral.group_eigenspaces(self.decomposition, self.tol_degen)

    @cached_property
    def gap_report(self) -> GapReport:
        return spectral.gaps(self.partition)

    @cached_property
    def overlaps(self) -> tuple[float, ...]:
        """Per eigenspace group g, the target weight of P_g psi0:
        |<y|P_g|psi0>|^2 for a state target."""
        return tuple(
            sum(float(np.abs(np.sum(row[idx] * self.c[idx])) ** 2) for row in self.rows)
            for idx in (list(members) for members in self.partition.groups)
        )

    @cached_property
    def limiting_probability(self) -> float:
        """T -> infinity limit of the averaged probability: the summed overlaps."""
        return _check_probability(sum(self.overlaps), "limiting probability")

    def sample(
        self, dist: TimeDistribution, rng: np.random.Generator, shots: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Monte Carlo: draw a time, evolve, measure; one outcome per shot.

        Each chunk of SAMPLE_CHUNK shots draws its times, then one uniform u
        per shot; the outcome is the first row r whose cumulative
        probability exceeds u, or len(rows) ("none of them") when u reaches
        their total. Only the chunk x dim phases and chunk x len(rows)
        probabilities are ever held. Returns (times, outcomes).
        """
        last = self.rows.shape[0]
        times = np.empty(shots)
        outcomes = np.empty(shots, dtype=np.int64)
        for lo in range(0, shots, SAMPLE_CHUNK):
            m = min(SAMPLE_CHUNK, shots - lo)
            ts = rng.random((m, dist.k)).sum(axis=1) * dist.T
            amps = (np.exp(-1j * np.outer(ts, self.energies)) * self.c) @ self.rows.T
            probs = np.abs(amps) ** 2
            total = np.clip(np.sum(probs, axis=1), 0.0, 1.0)
            u = rng.random(m)
            first = np.minimum((probs.cumsum(axis=1) <= u[:, None]).sum(axis=1), last - 1)
            times[lo : lo + m] = ts
            outcomes[lo : lo + m] = np.where(u < total, first, last)
        return times, outcomes


def spectral_walk(h, psi0: PureState, target) -> SpectralWalk:
    """Decompose h once and read off the walk from psi0 towards target.

    target is a PureState y, or a matrix whose orthonormal columns span the
    measured subspace.
    """
    dec = spectral.decompose(h)
    _check_state_dim(psi0, dec.dim)
    v = dec.eigenvectors
    if isinstance(target, PureState):
        _check_state_dim(target, dec.dim)
        rows = np.conj(v.conj().T @ target.amplitudes)[None, :]
    else:
        b = np.asarray(target, dtype=np.complex128)
        if b.ndim != 2 or b.shape[0] == 0 or b.shape[1] == 0:
            raise ValidationError(f"target basis must be a non-empty matrix, got shape {b.shape}")
        if np.max(np.abs(b.conj().T @ b - np.eye(b.shape[1]))) > 1e-10:
            raise ValidationError("target basis columns are not orthonormal")
        if b.shape[0] != dec.dim:
            raise ValidationError(f"target basis dimension {b.shape[0]} != operator dimension {dec.dim}")
        rows = b.conj().T @ v
    return SpectralWalk(dec.eigenvalues, v.conj().T @ psi0.amplitudes, rows, dec)


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


def time_averaged_density(h, rho0: DensityOperator, dist: TimeDistribution) -> DensityOperator:
    """Average of exp(-iHt) rho0 exp(iHt) over the time law.

    In the eigenbasis the element (j, k) picks up Phi(E_k - E_j);
    near-degenerate pairs are left untouched (coherences survive).
    """
    dec = spectral.decompose(h)
    return _averaged_density(dec, rho0, dist, spectral.default_degeneracy_tol(dec))


def _averaged_density(dec: SpectralDecomposition, rho0: DensityOperator, dist: TimeDistribution, tol: float) -> DensityOperator:
    """time_averaged_density on a decomposition at hand, degeneracy tolerance tol."""
    v = dec.eigenvectors
    rho_eig = v.conj().T @ rho0.entries @ v
    phi = _phi_matrix(dist, dec.eigenvalues, tol)
    damped = rho_eig * phi
    out = v @ damped @ v.conj().T
    return _computed_density(out)


def limiting_probability(h, psi0: PureState, y: PureState) -> float:
    """T -> infinity limit: sum over eigenspace groups of |<y|P_g|psi0>|^2."""
    return spectral_walk(h, psi0, y).limiting_probability


def sample_walk(
    h,
    psi0: PureState,
    dist: TimeDistribution,
    rng_seed: int,
    trials: int,
    measurement_basis: np.ndarray | None = None,
) -> np.ndarray:
    """Monte Carlo: draw times, evolve, measure; returns empirical frequencies.

    measurement_basis columns define the measurement (default: computational
    basis). Deterministic for a fixed (rng_seed, trials).
    """
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    dim = psi0.dim
    basis = np.eye(dim) if measurement_basis is None else np.asarray(measurement_basis)
    if basis.shape != (dim, dim):
        raise ValidationError(f"measurement basis must be {dim} x {dim} with orthonormal columns")
    _, outcomes = spectral_walk(h, psi0, basis).sample(dist, rng_stream(rng_seed), trials)
    # a complete basis leaves only rounding for "none of them"; it is dropped
    return np.bincount(outcomes, minlength=dim + 1)[:dim] / float(trials)


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
    h, psi0: PureState, y: PureState, T_grid: np.ndarray, k: int = 1
) -> HittingTimeEstimate:
    """Minimize total evolution time over averaged success probability
    (SpectralWalk.hitting_time on the walk from psi0 towards y)."""
    return spectral_walk(h, psi0, y).hitting_time(T_grid, k)
