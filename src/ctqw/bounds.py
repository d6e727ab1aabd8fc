"""Lower bounds on time-averaged measurement probabilities.

Three bounds of increasing selectivity on the walk held by a SpectralWalk.
Each *_floor function is the pure floor as a formula in T, read off the
walk's limiting probability, overlaps and the gaps of its eigenspace
partition without any exact average; it takes one time or an array of
times, so a search over T is one call. Each *_bound certifies its floor
against the exact averaged probability at one time law:

* mixing_bound: keep every eigenspace, pay 2/(T * smallest gap);
* eigenspace_bound: keep one eigenspace, pay its own overlap times
  4/(T * that eigenspace's isolation gap);
* subset_bound: keep a subset S of eigenspaces and average over a sum of k
  independent uniform times, paying sqrt(3) * (2/(T * gap touching S))^k.

dephased_reference builds the reference state whose distance to the true
time-averaged state drives subset_bound; residual_bound is that distance cap.
Both rotate a density operator into the walk's eigenbasis, so they need its
full decomposition: a reduced walk is refused.
certify_stack certifies every bound of a walk.WalkStack at once, as arrays;
the per-walk functions are the one-instance case of the same formulas.
Negative bound values are reported as-is (vacuously true), never clamped.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import spectral, walk
from .errors import GapUndefinedError, ValidationError, check_count, stack_error
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
    "certify_stack",
]

#: a bound "holds" when actual - bound >= -SLACK_TOL
SLACK_TOL = 1e-9
#: walks times d^2 per chunk of a stacked residual: bounds its (2, walks, d, d) temporaries
RESIDUAL_CHUNK = 1 << 16


# reports are named tuples: a frozen dataclass costs about three times the import-time memory
class BoundReport(NamedTuple):
    """One certified inequality: bound_value <= actual_value (up to SLACK_TOL)."""

    bound_value: float
    actual_value: float
    slack: float
    holds: bool


def _certified(bound, actual) -> tuple:
    """(bound, actual, slack, holds) of floats or arrays."""
    slack = actual - bound
    return bound, actual, slack, slack >= -SLACK_TOL


def _report(bound, actual) -> BoundReport:
    bound, actual, slack, holds = _certified(bound, actual)
    return BoundReport(float(bound), float(actual), float(slack), bool(holds))


def _check_times(T) -> None:
    if not np.all(np.asarray(T) > 0):
        raise ValidationError(f"T must be positive, got {T}")


def _mixing(p_inf, T, delta_e_min):
    """limiting probability - 2/(T * delta_e_min), of floats or arrays."""
    return p_inf - 2.0 / (T * delta_e_min)


def _eigenspace(overlap, T, star):
    """overlap * (1 - 4/(T * delta_e_star)), of floats or arrays."""
    return overlap * (1.0 - 4.0 / (T * star))


def mixing_floor(w: SpectralWalk, T):
    """limiting probability - 2/(T * delta_e_min), at a time T or an array of times."""
    _check_times(T)
    return _mixing(w.limiting_probability, T, w.partition.delta_e_min)


def mixing_bound(w: SpectralWalk, T: float) -> BoundReport:
    """Averaged probability >= limiting probability - 2/(T * delta_e_min)."""
    return _report(mixing_floor(w, T), w.probability(TimeDistribution(T=T, k=1)))


def eigenspace_floor(w: SpectralWalk, T, group: int):
    """|<y|P_g|psi0>|^2 * (1 - 4/(T * delta_e_star_g)), at a time T or an array of times."""
    _check_times(T)
    stars = w.partition.delta_e_star
    if not 0 <= group < len(stars):
        raise ValidationError(f"group {group} outside 0..{len(stars) - 1}")
    return _eigenspace(w.overlaps[group], T, stars[group])


def eigenspace_bound(w: SpectralWalk, T: float, group: int) -> BoundReport:
    """Averaged probability >= |<y|P_g|psi0>|^2 * (1 - 4/(T * delta_e_star_g))."""
    return _report(eigenspace_floor(w, T, group), w.probability(TimeDistribution(T=T, k=1)))


def _error_term(T: float, k: int, delta_e_s: float, at=None) -> float:
    """sqrt(3) * (2/(T * delta_e_s))^k, the power Python's for a numpy k as
    well; past the float range no record can hold it: bad input, naming the
    stack index at, if given."""
    try:
        err = math.sqrt(3.0) * (2.0 / (T * delta_e_s)) ** int(k)
    except (OverflowError, ZeroDivisionError):
        err = math.inf
    if math.isinf(err):
        raise stack_error(ValidationError, () if at is None else (at,), f"error term sqrt(3)*(2/(T*delta_e_s))^k overflows at T = {T!r}, k = {k}, delta_e_s = {delta_e_s!r}")
    return err


def subset_floor(w: SpectralWalk, T, k: int, subset):
    """sum_{g in S} |<y|P_g|psi0>|^2 - sqrt(3) * (2/(T * delta_e_s))^k, at a
    time T or an array of times, with k summed uniform times."""
    _check_times(T)
    check_count(k, "k")
    s, delta_e_s = w.partition.subset_gap(subset)
    # summed left to right, as the stacked cumsum of certify_stack
    overlap = sum(w.overlaps[g] for g in s)
    # the power in Python, once per T: numpy's power differs from it in the last bit
    err = [_error_term(t, k, delta_e_s) for t in np.ravel(T).tolist()]
    return overlap - (err[0] if np.ndim(T) == 0 else np.array(err).reshape(np.shape(T)))


def subset_bound(w: SpectralWalk, dist: TimeDistribution, subset) -> BoundReport:
    """Averaged probability over k summed uniform times
    >= sum_{g in S} |<y|P_g|psi0>|^2 - sqrt(3) * (2/(T * delta_e_s))^k."""
    return _report(subset_floor(w, dist.T, dist.k, subset), w.probability(dist))


def _dephased_weight(phi: np.ndarray, member: np.ndarray) -> np.ndarray:
    """Group weights of the dephased reference: 1 within a group, phi
    between two groups outside the subset, 0 elsewhere."""
    outside = ~member
    return np.where(outside[..., :, None] & outside[..., None, :], phi, np.eye(member.shape[-1], dtype=bool))


def _reference_inputs(w: SpectralWalk, dist: TimeDistribution) -> tuple[np.ndarray, ...]:
    """(eigenvectors, phi over the groups, each eigenvalue's group) of a walk with
    its full decomposition; a reduced walk has no eigenbasis to rotate rho0 into."""
    if w.decomposition is None:
        raise ValidationError("a reduced walk has no full eigendecomposition to rotate rho0 into")
    phi = walk._phi(*walk._phase_factors(dist, w.partition.energies))
    return w.decomposition.eigenvectors, phi, w.partition.group_of


def dephased_reference(w: SpectralWalk, rho0: DensityOperator, subset, dist: TimeDistribution) -> DensityOperator:
    """Reference state: inside S keep only same-energy matrix elements,
    between S and its complement drop everything, outside S keep the fully
    damped block (characteristic function applied per gap)."""
    v, phi, group_of = _reference_inputs(w, dist)
    member = spectral._subset_mask(subset, w.partition.n_groups)
    return walk._weighted_density(v, walk._eigenbasis(v, rho0), _dephased_weight(phi, member), group_of)


def _residual_distances(v: np.ndarray, rho0: DensityOperator, phi: np.ndarray, member: np.ndarray, group_of: np.ndarray) -> np.ndarray:
    """Frobenius distance of the time-averaged state (group weights phi) to the
    dephased reference, per matrix of a stack; one rotation of rho0 serves both."""
    # both states' group weights in one (2, B, G, G) stack: the time average, then the reference
    weights = np.stack([phi, _dephased_weight(phi, member)])
    avg, ref = walk._weighted_density(v, walk._eigenbasis(v, rho0), weights, group_of).entries
    return walk._norms((avg - ref).reshape(avg.shape[0], -1))


def residual_bound(w: SpectralWalk, rho0: DensityOperator, subset, dist: TimeDistribution) -> BoundReport:
    """Frobenius distance between the true time-averaged state and the
    dephased reference is at most sqrt(3) * (2/(T * delta_e_s))^k.

    Reported with bound/actual roles flipped into BoundReport form:
    holds <=> distance <= cap (slack = cap - distance >= -SLACK_TOL).
    """
    v, phi, group_of = _reference_inputs(w, dist)
    s, delta_e_s = w.partition.subset_gap(subset)
    member = spectral._subset_mask(s, w.partition.n_groups)[None]
    distance = _residual_distances(v[None], DensityOperator(rho0.entries[None]), phi[None], member, group_of[None]).item()
    return _report(distance, _error_term(dist.T, dist.k, delta_e_s))


class ComparisonReport(NamedTuple):
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


def _comparison(T, p_avg, p_inf, star, dmin) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(condition, tau_selective, tau_mixing_scale) over arrays; a tau is infinite past a nonpositive probability."""
    ratio = star / dmin
    inf = np.full(np.shape(p_avg), math.inf)
    tau_sel = np.divide(T, p_avg, out=inf.copy(), where=p_avg > 0)
    tau_mix = np.divide(ratio * T, p_inf, out=inf, where=p_inf > 0)
    return p_avg > ratio * p_inf, tau_sel, tau_mix


def bound_comparison(w: SpectralWalk, T: float, group: int) -> ComparisonReport:
    """Evaluate the selectivity trade-off at time T for one eigenspace."""
    b2 = eigenspace_floor(w, T, group)
    b1 = mixing_floor(w, T)
    star = w.partition.delta_e_star[group]
    dmin = w.partition.delta_e_min
    p_inf = w.limiting_probability
    p_avg = w.probability(TimeDistribution(T=T, k=1))
    condition, tau_sel, tau_mix = (x.item() for x in _comparison(np.array([T]), np.array([p_avg]), np.array([p_inf]), star, dmin))
    beats = tau_sel < tau_mix
    return ComparisonReport(
        T=float(T),
        avg_probability=p_avg,
        limiting_probability=p_inf,
        delta_e_star=star,
        delta_e_min=dmin,
        condition_holds=condition,
        tau_selective=tau_sel,
        tau_mixing_scale=tau_mix,
        selective_beats_mixing=beats,
        implication_ok=beats or not condition,
        eigenspace_bound_value=b2,
        mixing_bound_value=b1,
        eigenspace_bound_better=bool(b2 > b1),
    )


@np.errstate(over="ignore", divide="ignore")  # as the per-walk float arithmetic: an overflow is inf, silently
def certify_stack(stack: walk.WalkStack, subsets, groups, rho0: DensityOperator) -> dict:
    """Every bound of every walk of a stack at its own time law, as a table
    of columns bitwise equal to the per-walk functions; a failed check names
    its stack index.

    subsets[i] and groups[i] are walk i's subset and comparison group, rho0
    the (B, d, d) start states. The table holds the reports of each walk in
    turn: mixing, eigenspace of each group, subset, residual, comparison,
    each with its walk, T, k, kind, bound_value, actual_value, slack and
    holds. The residual reports the distance, then its cap; the comparison
    tau_mixing_scale, then tau_selective, with slack 0 if the implication
    holds, else -1.
    """
    n, T, k = stack.n_groups, stack.T, stack.k
    spectral._raise_first(n < 2, GapUndefinedError, lambda at: f"gaps undefined: spectrum has {n[at]} eigenspace group(s), need at least 2")
    groups = np.asarray(groups, dtype=np.int64)
    spectral._raise_first((groups < 0) | (groups >= n), ValidationError, lambda at: f"group {groups[at]} outside 0..{n[at] - 1}")
    member = spectral._subset_mask(subsets, n)
    p1, pk = stack.averages
    star, lo = stack.delta_e_star, np.cumsum(n) - n
    dmin = np.minimum.reduceat(star, lo)
    delta_e_s = np.where(member, walk._padded(star, n, np.inf), np.inf).min(axis=1)
    # summed left to right, as the per-walk Python sum: a 0.0 outside the subset changes nothing
    overlap_s = np.where(member, walk._padded(stack.overlaps, n, 0.0), 0.0).cumsum(axis=1)[:, -1]
    # the power in Python: numpy's power differs from it in the last bit
    err = np.array([_error_term(*law, at=at) for at, law in enumerate(zip(T.tolist(), k.tolist(), delta_e_s.tolist()))])
    # the residual a chunk of walks at a time, each eigenvalue's group from the group starts
    group_of, (g, s), v = np.cumsum(stack.group_starts, axis=1) - 1, stack.factors, stack.decomposition.eigenvectors
    distance, step = np.empty(n.shape), max(1, RESIDUAL_CHUNK // v.shape[-1] ** 2)
    for start in range(0, n.shape[0], step):
        at = slice(start, start + step)
        phi = walk._phi(g[at], s[at])
        distance[at] = _residual_distances(v[at], DensityOperator(rho0.entries[at]), phi, member[at], group_of[at])
    condition, tau_sel, tau_mix = _comparison(T, p1, stack.limiting_probability, star[lo + groups], dmin)
    ok = (tau_sel < tau_mix) | ~condition
    found = {
        "mixing": _certified(_mixing(stack.limiting_probability, T, dmin), p1),
        "eigenspace": _certified(_eigenspace(stack.overlaps, np.repeat(T, n), star), np.repeat(p1, n)),
        "subset": _certified(overlap_s - err, pk),
        "residual": _certified(distance, err),
        "comparison": (tau_mix, tau_sel, np.where(ok, 0.0, -1.0), ok),
    }
    # each walk's reports in turn, at these rows of the table
    first, size = np.cumsum(n + 4) - (n + 4), int(np.sum(n + 4))
    at = {"mixing": first, "eigenspace": np.arange(star.shape[0]) + np.repeat(first + 1 - lo, n)}
    at.update(subset=first + n + 1, residual=first + n + 2, comparison=first + n + 3)
    table = {"walk": np.repeat(np.arange(n.shape[0]), n + 4), "T": np.repeat(T, n + 4), "k": np.ones(size, dtype=np.int64)}
    table.update(kind=np.empty(size, dtype=object), bound_value=np.empty(size), actual_value=np.empty(size))
    table.update(slack=np.empty(size), holds=np.empty(size, dtype=bool))
    for kind, reports in found.items():
        table["kind"][at[kind]] = kind
        for key, values in zip(("bound_value", "actual_value", "slack", "holds"), reports):
            table[key][at[kind]] = values
    table["k"][at["subset"]] = table["k"][at["residual"]] = k
    return table
