"""Lower bounds on time-averaged measurement probabilities.

Three bounds of increasing selectivity on the walk held by a SpectralWalk.
Each *_floor function is the pure floor, read off the evaluator's limiting
probability, overlaps and gaps without any exact average, so a search over
T costs nothing per point; each *_bound certifies its floor against the
exact averaged probability at one time law:

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

from . import walk
from .errors import ValidationError
from .spectral import EigenspacePartition
from .walk import DensityOperator, SpectralWalk, TimeDistribution

__all__ = [
    "BoundReport",
    "ComparisonReport",
    "mixing_floor",
    "mixing_bound",
    "eigenspace_floor",
    "eigenspace_bound",
    "subset_floor",
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


def _certify(w: SpectralWalk, dist: TimeDistribution, floor: tuple[float, dict]) -> BoundReport:
    bound, inputs = floor
    return BoundReport.build(bound, w.probability(dist), inputs)


def mixing_floor(w: SpectralWalk, T: float) -> tuple[float, dict]:
    """limiting probability - 2/(T * delta_e_min), with its inputs."""
    if not T > 0:
        raise ValidationError(f"T must be positive, got {T}")
    report = w.gap_report
    p_inf = w.limiting_probability
    bound = p_inf - 2.0 / (T * report.delta_e_min)
    return bound, {
        "kind": "mixing",
        "T": T,
        "limiting_probability": p_inf,
        "delta_e_min": report.delta_e_min,
    }


def mixing_bound(w: SpectralWalk, T: float) -> BoundReport:
    """Averaged probability >= limiting probability - 2/(T * delta_e_min)."""
    return _certify(w, TimeDistribution(T=T, k=1), mixing_floor(w, T))


def eigenspace_floor(w: SpectralWalk, T: float, group: int) -> tuple[float, dict]:
    """|<y|P_g|psi0>|^2 * (1 - 4/(T * delta_e_star_g)), with its inputs."""
    if not T > 0:
        raise ValidationError(f"T must be positive, got {T}")
    report = w.gap_report
    n_groups = len(report.delta_e_star)
    if not 0 <= group < n_groups:
        raise ValidationError(f"group {group} outside 0..{n_groups - 1}")
    overlap = w.overlaps[group]
    star = report.delta_e_star[group]
    bound = overlap * (1.0 - 4.0 / (T * star))
    return bound, {
        "kind": "eigenspace",
        "T": T,
        "group": group,
        "overlap": overlap,
        "delta_e_star": star,
    }


def eigenspace_bound(w: SpectralWalk, T: float, group: int) -> BoundReport:
    """Averaged probability >= |<y|P_g|psi0>|^2 * (1 - 4/(T * delta_e_star_g))."""
    return _certify(w, TimeDistribution(T=T, k=1), eigenspace_floor(w, T, group))


def _error_term(dist: TimeDistribution, delta_e_s: float) -> float:
    """sqrt(3) * (2/(T * delta_e_s))^k; past the float range no record can hold it: bad input."""
    try:
        err = math.sqrt(3.0) * (2.0 / (dist.T * delta_e_s)) ** dist.k
    except (OverflowError, ZeroDivisionError):
        err = math.inf
    if math.isinf(err):
        raise ValidationError(f"error term sqrt(3)*(2/(T*delta_e_s))^k overflows at T = {dist.T!r}, k = {dist.k}, delta_e_s = {delta_e_s!r}")
    return err


def subset_floor(w: SpectralWalk, dist: TimeDistribution, subset) -> tuple[float, dict]:
    """sum_{g in S} |<y|P_g|psi0>|^2 - sqrt(3) * (2/(T * delta_e_s))^k, with its inputs."""
    s, delta_e_s = w.gap_report.subset_gap(subset)
    overlap = sum(w.overlaps[g] for g in s)
    err = _error_term(dist, delta_e_s)
    return overlap - err, {
        "kind": "subset",
        "T": dist.T,
        "k": dist.k,
        "subset": list(s),
        "overlap": overlap,
        "delta_e_s": delta_e_s,
        "error_term": err,
    }


def subset_bound(w: SpectralWalk, dist: TimeDistribution, subset) -> BoundReport:
    """Averaged probability over k summed uniform times
    >= sum_{g in S} |<y|P_g|psi0>|^2 - sqrt(3) * (2/(T * delta_e_s))^k."""
    return _certify(w, dist, subset_floor(w, dist, subset))


def _dephased_weight(partitions, subsets, phi: np.ndarray) -> np.ndarray:
    """Eigenbasis weights of the dephased reference, one per matrix of the phi
    stack: 1 on same-group pairs, phi on pairs with both ends outside the
    subset, 0 elsewhere."""
    group_of, out = [], []
    for partition, subset in zip(partitions, subsets):
        m = partition.n_groups
        s = set(int(i) for i in subset)
        for i in s:
            if not 0 <= i < m:
                raise ValidationError(f"subset index {i} outside group range 0..{m - 1}")
        # groups are consecutive runs of the ascending eigenvalues
        group_of.append([g for g, members in enumerate(partition.groups) for _ in members])
        out.append([g not in s for g in group_of[-1]])
    group_of, out = np.array(group_of), np.array(out)
    same_group = group_of[:, :, None] == group_of[:, None, :]
    both_out = out[:, :, None] & out[:, None, :]
    return np.where(both_out, phi, same_group)


def dephased_reference(partition: EigenspacePartition, rho0: DensityOperator, subset, dist: TimeDistribution) -> DensityOperator:
    """Reference state: inside S keep only same-energy matrix elements,
    between S and its complement drop everything, outside S keep the fully
    damped block (characteristic function applied per gap)."""
    v = partition.decomposition.eigenvectors
    phi = walk._phi_matrix(dist, partition.decomposition.eigenvalues, partition.tol_degen)
    weight = _dephased_weight([partition], [subset], phi)[0]
    return walk._weighted_density(v, walk._eigenbasis(v, rho0), weight)


def residual_bound(partition: EigenspacePartition, rho0: DensityOperator, subset, dist: TimeDistribution) -> BoundReport:
    """Frobenius distance between the true time-averaged state and the
    dephased reference is at most sqrt(3) * (2/(T * delta_e_s))^k.

    Reported with bound/actual roles flipped into BoundReport form:
    holds <=> distance <= cap (slack = cap - distance >= -SLACK_TOL).
    rho0 is rotated into the eigenbasis once for both states.
    """
    return _residual_stack([partition], DensityOperator(rho0.entries[None]), [subset], [dist])[0]


def _residual_stack(partitions, rho0: DensityOperator, subsets, dists) -> list[BoundReport]:
    """residual_bound of B instances at one k, with a (B, d, d) rho0 stack and
    B partitions, subsets and time laws: each kernel runs once over the stack."""
    if len({d.k for d in dists}) != 1:
        raise ValidationError(f"a residual stack needs one k, got {sorted({d.k for d in dists})}")
    gaps = [p.gap_report.subset_gap(s) for p, s in zip(partitions, subsets)]
    v = np.stack([p.decomposition.eigenvectors for p in partitions])
    energies = np.stack([p.decomposition.eigenvalues for p in partitions])
    T, tol = np.array([[d.T] for d in dists]), np.array([[[p.tol_degen]] for p in partitions])
    phi = walk._phi_matrix(dists[0], energies, tol, T)
    # both states in one (2, B, d, d) stack: the time average, then the reference
    weights = np.stack([phi, _dephased_weight(partitions, [s for s, _ in gaps], phi)])
    avg, ref = walk._weighted_density(v, walk._eigenbasis(v, rho0), weights).entries
    reports = []
    for diff, d, (s, delta_e_s) in zip(avg - ref, dists, gaps):
        # one norm per matrix: the stacked axis= form differs in the last bit
        distance = float(np.linalg.norm(diff))
        cap = _error_term(d, delta_e_s)
        slack = cap - distance
        inputs = {"kind": "residual", "T": d.T, "k": d.k, "subset": list(s), "delta_e_s": float(delta_e_s)}
        reports.append(BoundReport(float(distance), float(cap), float(slack), bool(slack >= -SLACK_TOL), inputs))
    return reports


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


def bound_comparison(w: SpectralWalk, T: float, group: int) -> ComparisonReport:
    """Evaluate the selectivity trade-off at time T for one eigenspace."""
    report = w.gap_report
    star = report.delta_e_star[group]
    dmin = report.delta_e_min
    p_inf = w.limiting_probability
    p_avg = w.probability(TimeDistribution(T=T, k=1))
    condition = p_avg > (star / dmin) * p_inf
    tau_sel = T / p_avg if p_avg > 0 else math.inf
    tau_mix = (star / dmin) * T / p_inf if p_inf > 0 else math.inf
    beats = tau_sel < tau_mix
    b2, _ = eigenspace_floor(w, T, group)
    b1, _ = mixing_floor(w, T)
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
        eigenspace_bound_value=b2,
        mixing_bound_value=b1,
        eigenspace_bound_better=bool(b2 > b1),
    )
