"""Lower bounds on time-averaged measurement probabilities.

Three bounds of increasing selectivity, each certified against the exact
averaged probability:

* mixing_bound: keep every eigenspace, pay 2/(T * smallest gap);
* eigenspace_bound: keep one eigenspace, pay its own overlap times
  4/(T * that eigenspace's isolation gap);
* subset_bound: keep a subset S of eigenspaces and average over a sum of k
  independent uniform times, paying sqrt(3) * (2/(T * gap touching S))^k.

dephased_reference builds the reference state whose distance to the true
time-averaged state drives subset_bound; residual_bound is that distance cap.
Negative bound values are reported as-is (vacuously true), never clamped.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectral, walk
from .errors import ValidationError
from .spectral import EigenspacePartition, SpectralDecomposition
from .walk import DensityOperator, PureState, TimeDistribution

__all__ = [
    "BoundReport",
    "ComparisonReport",
    "mixing_bound",
    "eigenspace_bound",
    "subset_bound",
    "residual_bound",
    "dephased_reference",
    "bound_comparison",
]

#: a bound "holds" when actual - bound >= -SLACK_TOL
SLACK_TOL = 1e-9


@dataclass(frozen=True)
class BoundReport:
    """One certified inequality: bound_value <= actual_value (up to SLACK_TOL)."""

    bound_value: float
    actual_value: float
    slack: float
    holds: bool
    inputs: dict

    @staticmethod
    def build(bound: float, actual: float, inputs: dict) -> "BoundReport":
        slack = actual - bound
        return BoundReport(
            bound_value=float(bound),
            actual_value=float(actual),
            slack=float(slack),
            holds=bool(slack >= -SLACK_TOL),
            inputs=inputs,
        )


def _prep(h, dec, partition, tol_degen):
    if partition is not None:
        return partition.decomposition, partition
    dec = dec if dec is not None else spectral.decompose(h)
    return dec, spectral.group_eigenspaces(dec, tol_degen)


def mixing_bound(
    h,
    psi0: PureState,
    y: PureState,
    T: float,
    dec: SpectralDecomposition | None = None,
    partition: EigenspacePartition | None = None,
    tol_degen: float | None = None,
) -> BoundReport:
    """Averaged probability >= limiting probability - 2/(T * delta_e_min)."""
    if not T > 0:
        raise ValidationError(f"T must be positive, got {T}")
    dec, part = _prep(h, dec, partition, tol_degen)
    report = spectral.gaps(part)
    p_inf = walk.limiting_probability(h, psi0, y, partition=part)
    bound = p_inf - 2.0 / (T * report.delta_e_min)
    actual = walk.avg_probability_exact(
        h, psi0, y, TimeDistribution(T=T, k=1), dec=dec, tol_degen=part.tol_degen
    )
    return BoundReport.build(
        bound,
        actual,
        {
            "kind": "mixing",
            "T": T,
            "limiting_probability": p_inf,
            "delta_e_min": report.delta_e_min,
        },
    )


def _group_overlap(part: EigenspacePartition, psi0: PureState, y: PureState, g: int) -> float:
    v = part.decomposition.eigenvectors
    idx = list(part.groups[g])
    ybar = v[:, idx].conj().T @ y.amplitudes
    c = v[:, idx].conj().T @ psi0.amplitudes
    return float(np.abs(np.sum(np.conj(ybar) * c)) ** 2)


def eigenspace_bound(
    h,
    psi0: PureState,
    y: PureState,
    T: float,
    group: int,
    dec: SpectralDecomposition | None = None,
    partition: EigenspacePartition | None = None,
    tol_degen: float | None = None,
) -> BoundReport:
    """Averaged probability >= |<y|P_g|psi0>|^2 * (1 - 4/(T * delta_e_star_g))."""
    if not T > 0:
        raise ValidationError(f"T must be positive, got {T}")
    dec, part = _prep(h, dec, partition, tol_degen)
    report = spectral.gaps(part)
    if not 0 <= group < part.n_groups:
        raise ValidationError(f"group {group} outside 0..{part.n_groups - 1}")
    overlap = _group_overlap(part, psi0, y, group)
    star = report.delta_e_star[group]
    bound = overlap * (1.0 - 4.0 / (T * star))
    actual = walk.avg_probability_exact(
        h, psi0, y, TimeDistribution(T=T, k=1), dec=dec, tol_degen=part.tol_degen
    )
    return BoundReport.build(
        bound,
        actual,
        {
            "kind": "eigenspace",
            "T": T,
            "group": group,
            "overlap": overlap,
            "delta_e_star": star,
        },
    )


def subset_bound(
    h,
    psi0: PureState,
    y: PureState,
    dist: TimeDistribution,
    subset,
    dec: SpectralDecomposition | None = None,
    partition: EigenspacePartition | None = None,
    tol_degen: float | None = None,
) -> BoundReport:
    """Averaged probability over k summed uniform times
    >= sum_{g in S} |<y|P_g|psi0>|^2 - sqrt(3) * (2/(T * delta_e_s))^k."""
    dec, part = _prep(h, dec, partition, tol_degen)
    report = spectral.gaps(part, subset=subset)
    s = report.subset
    overlap = sum(_group_overlap(part, psi0, y, g) for g in s)
    err = math.sqrt(3.0) * (2.0 / (dist.T * report.delta_e_s)) ** dist.k
    bound = overlap - err
    actual = walk.avg_probability_exact(h, psi0, y, dist, dec=dec, tol_degen=part.tol_degen)
    return BoundReport.build(
        bound,
        actual,
        {
            "kind": "subset",
            "T": dist.T,
            "k": dist.k,
            "subset": list(s),
            "overlap": overlap,
            "delta_e_s": report.delta_e_s,
            "error_term": err,
        },
    )


def dephased_reference(
    h,
    rho0: DensityOperator,
    subset,
    dist: TimeDistribution,
    dec: SpectralDecomposition | None = None,
    partition: EigenspacePartition | None = None,
    tol_degen: float | None = None,
) -> DensityOperator:
    """Reference state: inside S keep only same-energy matrix elements,
    between S and its complement drop everything, outside S keep the fully
    damped block (characteristic function applied per gap)."""
    dec, part = _prep(h, dec, partition, tol_degen)
    m = part.n_groups
    s = set(int(i) for i in subset)
    for i in s:
        if not 0 <= i < m:
            raise ValidationError(f"subset index {i} outside group range 0..{m - 1}")
    v = dec.eigenvectors
    rho_eig = v.conj().T @ rho0.entries @ v
    group_of = np.empty(dec.dim, dtype=np.int64)
    for g, members in enumerate(part.groups):
        for j in members:
            group_of[j] = g
    in_s = np.isin(group_of, list(s))
    same_group = group_of[:, None] == group_of[None, :]
    phi = walk._phi_matrix(dist, dec.eigenvalues, part.tol_degen)
    weight = np.where(same_group, 1.0, 0.0).astype(np.complex128)
    both_out = ~in_s[:, None] & ~in_s[None, :]
    weight[both_out] = phi[both_out]
    out = v @ (rho_eig * weight) @ v.conj().T
    return walk._computed_density(out)


def residual_bound(
    h,
    rho0: DensityOperator,
    subset,
    dist: TimeDistribution,
    dec: SpectralDecomposition | None = None,
    partition: EigenspacePartition | None = None,
    tol_degen: float | None = None,
) -> BoundReport:
    """Frobenius distance between the true time-averaged state and the
    dephased reference is at most sqrt(3) * (2/(T * delta_e_s))^k.

    Reported with bound/actual roles flipped into BoundReport form:
    holds <=> distance <= cap (slack = cap - distance >= -SLACK_TOL).
    """
    dec, part = _prep(h, dec, partition, tol_degen)
    report = spectral.gaps(part, subset=subset)
    avg = walk.time_averaged_density(h, rho0, dist, dec=dec, tol_degen=part.tol_degen)
    ref = dephased_reference(h, rho0, subset, dist, dec=dec, partition=part)
    distance = float(np.linalg.norm(avg.entries - ref.entries))
    cap = math.sqrt(3.0) * (2.0 / (dist.T * report.delta_e_s)) ** dist.k
    slack = cap - distance
    return BoundReport(
        bound_value=float(distance),
        actual_value=float(cap),
        slack=float(slack),
        holds=bool(slack >= -SLACK_TOL),
        inputs={
            "kind": "residual",
            "T": dist.T,
            "k": dist.k,
            "subset": list(report.subset),
            "delta_e_s": report.delta_e_s,
        },
    )


@dataclass(frozen=True)
class ComparisonReport:
    """Trade-off between the single-eigenspace and full-mixing bounds.

    condition_holds: averaged probability at T exceeds
    (delta_e_star / delta_e_min) * limiting probability. Because
    delta_e_star >= delta_e_min, this is strictly stronger than the tight
    crossover p_T > (delta_e_min / delta_e_star) * p_inf, so it is a
    sufficient condition for the selective route to win, never an
    equivalence: tau_selective = T / p_T beats tau_mixing_scale =
    (delta_e_star / delta_e_min) * T / p_inf whenever the condition holds,
    and may also beat it when the condition fails. implication_ok records
    the provable direction (condition -> selective wins) on this instance.
    Raw bound values at the same T are reported alongside.
    """

    T: float
    avg_probability: float
    limiting_probability: float
    delta_e_star: float
    delta_e_min: float
    condition_holds: bool
    tau_selective: float
    tau_mixing_scale: float
    selective_beats_mixing: bool
    implication_ok: bool
    eigenspace_bound_value: float
    mixing_bound_value: float
    eigenspace_bound_better: bool


def bound_comparison(
    h,
    psi0: PureState,
    y: PureState,
    T: float,
    group: int,
    dec: SpectralDecomposition | None = None,
    partition: EigenspacePartition | None = None,
    tol_degen: float | None = None,
) -> ComparisonReport:
    """Evaluate the selectivity trade-off at time T for one eigenspace."""
    dec, part = _prep(h, dec, partition, tol_degen)
    report = spectral.gaps(part)
    star = report.delta_e_star[group]
    dmin = report.delta_e_min
    p_inf = walk.limiting_probability(h, psi0, y, partition=part)
    p_avg = walk.avg_probability_exact(
        h, psi0, y, TimeDistribution(T=T, k=1), dec=dec, tol_degen=part.tol_degen
    )
    condition = p_avg > (star / dmin) * p_inf
    tau_sel = T / p_avg if p_avg > 0 else math.inf
    tau_mix = (star / dmin) * T / p_inf if p_inf > 0 else math.inf
    beats = tau_sel < tau_mix
    b2 = eigenspace_bound(h, psi0, y, T, group, dec=dec, partition=part)
    b1 = mixing_bound(h, psi0, y, T, dec=dec, partition=part)
    return ComparisonReport(
        T=float(T),
        avg_probability=p_avg,
        limiting_probability=p_inf,
        delta_e_star=star,
        delta_e_min=dmin,
        condition_holds=bool(condition),
        tau_selective=float(tau_sel),
        tau_mixing_scale=float(tau_mix),
        selective_beats_mixing=bool(beats),
        implication_ok=bool(beats or not condition),
        eigenspace_bound_value=b2.bound_value,
        mixing_bound_value=b1.bound_value,
        eigenspace_bound_better=bool(b2.bound_value > b1.bound_value),
    )
