"""Hermitian validation, deterministic eigendecomposition, and the eigenspace
partition of a walk's energies with its spectral gaps.

Conventions fixed here and relied on everywhere else:

* eigenvalues ascending, eigenvectors as columns, global phase fixed so the
  first component above threshold is real and positive;
* degeneracy grouping of ascending energies alone, at an absolute tolerance
  (degeneracy_tol: 1e-8 times the spectral range), split at adjacent gaps
  and validated both ways; no eigenvector is needed, so a reduced walk is
  grouped like a fully decomposed one. Only this partition reads the
  tolerance: every walk number is that of the walk snapped to it, each
  energy at its group's mean;
* gaps always work on group representative energies, never raw eigenvalues,
  and are read off the partition itself.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    AmbiguousDegeneracyError,
    EmptyOperatorError,
    GapUndefinedError,
    InconsistencyError,
    NonHermitianError,
    ValidationError,
    stack_error,
)

__all__ = [
    "HermitianOperator",
    "SpectralDecomposition",
    "EigenspacePartition",
    "hermitian",
    "decompose",
    "group_eigenspaces",
    "degeneracy_tol",
]

#: relative tolerance for the hermiticity check
TOL_HERM = 1e-10
#: Frobenius tolerance (relative) for reconstruction checks
TOL_RECON = 1e-9
#: phase convention: first component with modulus above this is made real positive
PHASE_THRESHOLD = 1e-12


@dataclass(frozen=True)
class HermitianOperator:
    """A validated Hermitian matrix, or a (..., dim, dim) stack of them.

    entries is the symmetrized matrix 0.5 * (H + H^dagger); construction
    rejects input whose asymmetry exceeds TOL_HERM relative to the largest
    entry magnitude.
    """

    entries: np.ndarray
    dim: int

    def __post_init__(self):
        if self.entries.shape[-2:] != (self.dim, self.dim):
            raise ValidationError(
                f"entries shape {self.entries.shape} does not match dim {self.dim}"
            )


def _raise_first(bad, error: type, describe) -> None:
    """Raise error(describe(at)) for the first matrix flagged in bad, at its
    stack index at (() for a single matrix), which the message then names
    (errors.stack_error)."""
    if bad.any():
        at = tuple(np.argwhere(bad)[0])
        raise stack_error(error, at, describe(at))


def _frobenius(x: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack, as one dot product of its real view (einsum buffers raised peak RSS)."""
    y = np.ascontiguousarray(x, dtype=np.complex128).view(np.float64).reshape(*x.shape[:-2], 1, -1)
    return np.sqrt((y @ y.swapaxes(-1, -2))[..., 0, 0])


def hermitian(matrix: np.ndarray) -> HermitianOperator:
    """Validate and symmetrize a matrix, or each matrix of a (..., d, d) stack,
    into a HermitianOperator.

    Raises
    ------
    EmptyOperatorError
        for 0 x 0 input.
    ValidationError
        for a non-finite entry, which the message names.
    NonHermitianError
        if |H - H^dagger| exceeds TOL_HERM relative to max|H|; the message
        names the worst offending entry pair, and in a stack the first
        offending matrix's index.
    """
    m = np.asarray(matrix)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[-1] == 0:
        raise EmptyOperatorError("operator has dimension zero")
    m = m.astype(np.complex128, copy=False)
    finite = np.isfinite(m)

    def describe_entry(at):
        i, j = np.argwhere(~finite[at])[0]
        return f"entry ({i}, {j}) is {m[at][i, j]}, not finite"

    _raise_first(~finite.all(axis=(-2, -1)), ValidationError, describe_entry)
    scale = np.abs(m).max(axis=(-2, -1))
    asym = np.abs(m - m.conj().swapaxes(-1, -2))
    worst = asym.max(axis=(-2, -1))

    def describe(at):
        i, j = np.unravel_index(np.argmax(asym[at]), asym.shape[-2:])
        return (
            f"matrix is not Hermitian: entry ({i},{j})={m[at][i, j]:.6g} vs "
            f"({j},{i})*={np.conj(m[at][j, i]):.6g}, asymmetry {worst[at]:.3g} "
            f"exceeds {TOL_HERM:g} * max|H| = {TOL_HERM * scale[at]:.3g}"
        )

    _raise_first((scale > 0) & (worst > TOL_HERM * scale), NonHermitianError, describe)
    sym = 0.5 * (m + m.conj().swapaxes(-1, -2))
    return HermitianOperator(entries=sym, dim=sym.shape[-1])


def _as_operator(h) -> HermitianOperator:
    if isinstance(h, HermitianOperator):
        return h
    return hermitian(np.asarray(h))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvector columns of H, or of
    each matrix of a stack."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    operator: HermitianOperator

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[-1]


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its first component above threshold is real positive."""
    above = np.abs(vectors) > PHASE_THRESHOLD
    pivot = np.take_along_axis(vectors, np.argmax(above, axis=-2)[..., None, :], axis=-2)
    factor = np.divide(np.conj(pivot), np.abs(pivot), out=np.ones_like(pivot), where=above.any(axis=-2, keepdims=True))
    return vectors * factor


def decompose(h) -> SpectralDecomposition:
    """Deterministic eigendecomposition of a Hermitian operator, or of each
    matrix of a (..., d, d) stack in one pass.

    Postconditions (checked per matrix): eigenvalues ascending; eigenvector
    columns orthonormal; V diag(E) V^dagger reconstructs H within TOL_RECON
    relative Frobenius error. A NaN eigenpair fails them: InconsistencyError.
    """
    op = _as_operator(h)
    evals, evecs = np.linalg.eigh(op.entries)
    evecs = _fix_phases(evecs)
    dec = SpectralDecomposition(eigenvalues=evals, eigenvectors=evecs, operator=op)
    _check_reconstruction(dec)
    return dec


def _check_reconstruction(dec: SpectralDecomposition) -> None:
    v, e = dec.eigenvectors, dec.eigenvalues
    vh = v.conj().swapaxes(-1, -2)
    gram = vh @ v
    gram[..., range(dec.dim), range(dec.dim)] -= 1.0
    ortho_err = np.abs(gram).max(axis=(-2, -1))
    # written ~(x <= tol), so that a NaN fails the check
    _raise_first(~(ortho_err <= 1e-10), InconsistencyError, lambda at: f"eigenvectors not orthonormal: error {ortho_err[at]:.3g}")
    # one more dim x dim buffer besides vh: the reconstruction reuses gram's
    recon = np.matmul(v * e[..., None, :], vh, out=gram)
    recon -= dec.operator.entries
    err = _frobenius(recon) / np.maximum(_frobenius(dec.operator.entries), 1.0)
    _raise_first(~(err <= TOL_RECON), InconsistencyError, lambda at: f"spectral reconstruction error {err[at]:.3g} exceeds {TOL_RECON:g}")


@dataclass(frozen=True)
class EigenspacePartition:
    """Ascending energies clustered into (near-)degenerate groups, with the
    gaps between them.

    Group g holds lengths[g] consecutive energies and energies[g] is their
    mean, ascending: the energies of the snapped walk, one per group. The
    gaps work on the group energies; they and group_of are worked out on
    first use. With fewer than two groups the gaps are undefined and raise
    GapUndefinedError.
    """

    lengths: tuple[int, ...]
    energies: np.ndarray

    @property
    def n_groups(self) -> int:
        return len(self.lengths)

    @cached_property
    def group_of(self) -> np.ndarray:
        """Each energy's group index."""
        return np.repeat(np.arange(self.n_groups), self.lengths)

    @cached_property
    def delta_e_star(self) -> tuple[float, ...]:
        """Per group, the gap to the nearest other group."""
        m = self.n_groups
        if m < 2:
            raise GapUndefinedError(f"gaps undefined: spectrum has {m} eigenspace group(s), need at least 2")
        return tuple(_gap_stars(self.energies, [m]).tolist())

    @cached_property
    def delta_e_min(self) -> float:
        """The smallest gap between any two groups."""
        return min(self.delta_e_star)

    def subset_gap(self, subset) -> tuple[tuple[int, ...], float]:
        """(sorted subset, delta_e_s) for a non-empty subset S of group
        indices: the smallest gap over pairs with an endpoint in S, which is
        the smallest delta_e_star over S, so no second pass over the energies
        is needed."""
        star = self.delta_e_star
        s = tuple(np.flatnonzero(_subset_mask(subset, self.n_groups)).tolist())
        return s, min(star[i] for i in s)


def degeneracy_tol(spectral_range):
    """1e-8 times the spectral range (absolute floor 1e-12 for flat spectra);
    elementwise over an array of ranges, one per matrix of a stack."""
    tol = np.maximum(1e-8 * np.asarray(spectral_range, dtype=np.float64), 1e-12)
    return tol if tol.ndim else float(tol)


def group_eigenspaces(energies, tol_degen: float) -> EigenspacePartition:
    """Cluster ascending energies into groups separated by more than tol_degen.

    Groups split wherever adjacent energies differ by more than tol_degen;
    afterwards both invariants are enforced: within-group spread <=
    tol_degen and between-group gap > tol_degen. A spectrum violating both
    simultaneously (a chain of near-ties wider than the tolerance) raises
    AmbiguousDegeneracyError.
    """
    e = np.asarray(energies, dtype=np.float64)
    if e.ndim != 1 or e.shape[0] == 0 or not (np.isfinite(e).all() and (np.diff(e) >= 0).all()):
        raise ValidationError("energies must be a non-empty ascending 1-d array of finite values")
    if not tol_degen >= 0:
        raise ValidationError(f"tol_degen must be non-negative, got {tol_degen}")
    _, _, lengths, group_energies, _ = _group_runs(e, tol_degen)
    return EigenspacePartition(lengths=tuple(lengths.tolist()), energies=group_energies)


def _subset_mask(subsets, n_groups) -> np.ndarray:
    """Subsets of group indices as a boolean mask over the groups: (n,) for
    one subset of n_groups = n groups, or (B, max groups) for subsets[i] of
    n_groups[i] groups over a (B,) array n_groups. An index outside the
    groups or an empty subset raises ValidationError; in a stack the error
    names the walk's index."""
    n = np.asarray(n_groups)
    rows = [subsets] if n.ndim == 0 else subsets
    walk_of = np.repeat(np.arange(len(rows)), [len(row) for row in rows])
    index = np.array([int(i) for row in rows for i in row], dtype=np.int64)
    outside = (index < 0) | (index >= n.reshape(-1)[walk_of])
    bad = np.zeros(len(rows), dtype=bool)
    bad[walk_of[outside]] = True

    def describe(at):
        i = index[outside & (walk_of == (at[0] if at else 0))][0]
        return f"subset index {i} outside group range 0..{n[at] - 1}"

    _raise_first(bad.reshape(n.shape), ValidationError, describe)
    member = np.zeros((len(rows), int(n.max())), dtype=bool)
    member[walk_of, index] = True
    member = member.reshape(n.shape + member.shape[-1:])
    _raise_first(~member.any(axis=-1), ValidationError, lambda at: "subset must be non-empty")
    return member


def _group_starts(e: np.ndarray, tol) -> np.ndarray:
    """Mask of the eigenvalues that begin a group, over ascending eigenvalues
    e (..., d) with one tolerance per matrix, tol (...). Both invariants of
    group_eigenspaces are checked per matrix; in a stack the error names the
    first failing matrix's index."""
    tol = np.asarray(tol, dtype=np.float64)[..., None]
    diff = np.diff(e, axis=-1)
    cut = diff > tol
    edge = np.ones(e.shape[:-1] + (1,), dtype=bool)
    starts = np.concatenate([edge, cut], axis=-1)
    ends = np.concatenate([cut, edge], axis=-1)
    # first[..., i]: where the group holding eigenvalue i begins
    first = np.maximum.accumulate(np.where(starts, np.arange(e.shape[-1]), 0), axis=-1)
    spread = e - np.take_along_axis(e, first, axis=-1)
    wide = ends & (spread > tol)
    # the gap from a group's last member to the next group's first is its cut's difference:
    # the second invariant holds by construction and is checked all the same
    close = cut & (diff <= tol)

    def describe(at):
        if wide[at].any():
            i = int(np.argmax(wide[at]))
            return (
                f"eigenvalue cluster {e[at][first[at][i]]:.12g}..{e[at][i]:.12g} has spread "
                f"{spread[at][i]:.3g} > tol_degen {tol[at][0]:.3g} but no internal gap above it"
            )
        return f"adjacent clusters separated by {diff[at][np.argmax(close[at])]:.3g} <= tol_degen {tol[at][0]:.3g}"

    _raise_first(wide.any(axis=-1) | close.any(axis=-1), AmbiguousDegeneracyError, describe)
    return starts


def _segment_sums(x: np.ndarray, lengths) -> np.ndarray:
    """Sum of each run of the last axis of x, for consecutive runs of the
    given lengths that tile it: each bitwise the 1-d sum of its run. Runs of
    one length are summed as the rows of one 2-d block, which keeps the
    pairwise order of a 1-d sum (a 3-d block need not)."""
    lengths = np.asarray(lengths)
    sizes = set(lengths.tolist())
    if len(sizes) == 1:  # the runs are the rows of x itself
        return x.reshape(-1, sizes.pop()).sum(axis=-1).reshape(x.shape[:-1] + lengths.shape)
    starts = np.cumsum(lengths) - lengths
    out = np.empty(x.shape[:-1] + lengths.shape, dtype=x.dtype)
    for n in sizes:
        at = np.flatnonzero(lengths == n)
        block = x[..., starts[at, None] + np.arange(n)]
        out[..., at] = block.reshape(-1, n).sum(axis=-1).reshape(x.shape[:-1] + at.shape)
    return out


def _group_runs(e: np.ndarray, tol) -> tuple[np.ndarray, ...]:
    """group_eigenspaces of each matrix of e (..., d) at its tolerance, as
    arrays: the group starts (..., d), each matrix's number of groups, and
    the lengths, mean energies and delta_e_star of all groups in turn (G,)."""
    starts = _group_starts(e, tol)
    flat = starts.reshape(-1, e.shape[-1])
    lengths = np.diff(np.append(np.flatnonzero(flat), flat.size))
    energies = _segment_sums(e.reshape(-1), lengths) / lengths  # each group's mean
    n_groups = flat.sum(axis=-1)
    return starts, n_groups, lengths, energies, _gap_stars(energies, n_groups)


def _gap_stars(energies: np.ndarray, n_groups) -> np.ndarray:
    """delta_e_star of every group of consecutive partitions, given their
    ascending group energies one partition after the other and each one's
    number of groups; a partition's delta_e_min is the smallest of its own."""
    adjacent = np.diff(energies)
    # energies ascend, so each group's nearest other group is a neighbour
    left, right = np.append(np.inf, adjacent), np.append(adjacent, np.inf)
    ends = np.cumsum(n_groups)
    left[ends[:-1]] = np.inf  # a partition's first group has no neighbour below
    right[ends - 1] = np.inf  # nor its last one above
    return np.minimum(left, right)
