"""Reversible Markov chains: validation, discriminant, interpolation, hitting times.

A chain enters the quantum pipeline as a row-stochastic matrix. Validation
establishes, in order: entries and row sums, strong connectivity, edges in
both directions, and detailed balance against the stationary distribution
read off it; it records aperiodicity without requiring it. The diagnosis
order is part of the contract: a directed 3-cycle is reported as
irreversible, for its one-way edges.

The discriminant sqrt(P o P^T) (elementwise) is symmetric for reversible
chains and shares its top eigenvector with sqrt(pi). Interpolation toward an
absorbing marked vertex only rewrites the marked row, which keeps the rest
of the chain untouched and makes the interpolated stationary distribution
available in closed form.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import (
    InconsistencyError,
    IrreversibleChainError,
    MarkedWeightError,
    NonErgodicError,
    ValidationError,
    check_count,
)
from .rng import rng_stream

__all__ = [
    "ReversibleChain",
    "InterpolatedChain",
    "validate_chain",
    "lazify",
    "discriminant",
    "interpolate",
    "half_weight",
    "classical_hitting_time",
    "sample_hitting_time",
    "complete_chain",
    "cycle_chain",
    "random_reversible_chain",
    "chain_family",
    "chain_from_payload",
    "CHAIN_FAMILIES",
]

ROW_SUM_TOL = 1e-12
BALANCE_TOL = 1e-10
STATIONARY_TOL = 1e-10


class ReversibleChain(NamedTuple):
    """Validated reversible chain with its stationary distribution."""

    P: np.ndarray
    pi: np.ndarray
    detailed_balance_residual: float
    aperiodic: bool
    lazified: bool = False

    @property
    def n(self) -> int:
        return self.P.shape[0]


def _levels(support: np.ndarray) -> np.ndarray:
    """Breadth-first distance from vertex 0 along the edges u -> v with
    support[u, v]; -1 marks the vertices that are not reached."""
    level = np.full(support.shape[0], -1)
    level[0] = 0
    frontier, depth = np.array([0]), 0
    while frontier.size:
        depth += 1
        frontier = np.flatnonzero(support[frontier].any(axis=0) & (level < 0))
        level[frontier] = depth
    return level


def _connected_levels(support: np.ndarray) -> np.ndarray:
    """Levels from vertex 0 of a strongly connected support.

    Strongly connected means every vertex is reached from vertex 0 and
    reaches it; otherwise NonErgodicError names the first vertex that fails.
    """
    level = _levels(support)
    for levels, how in ((level, "is not reached from"), (_levels(support.T), "does not reach")):
        missed = np.flatnonzero(levels < 0)
        if missed.size:
            raise NonErgodicError(f"chain is not strongly connected: vertex {missed[0]} {how} vertex 0")
    return level


def _period(support: np.ndarray, level: np.ndarray) -> int:
    """Period of a strongly connected chain: gcd of level[u] + 1 - level[v]
    over the directed edges u -> v, with the breadth-first levels from 0."""
    rows, cols = np.nonzero(support)
    g = int(np.gcd.reduce(level[rows] + 1 - level[cols]))
    return g if g > 0 else 1


def _tree_stationary(p: np.ndarray, level: np.ndarray) -> np.ndarray:
    """Stationary vector of a reversible chain by detailed balance along the
    breadth-first levels: pi_v = pi_u P_uv / P_vu for the first neighbour u
    of v one level nearer vertex 0, then normalized. Needs P_vu > 0 on every
    edge u -> v; weights beyond float64's range come out as 0 or NaN."""
    pi = np.ones(p.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for depth in range(1, int(level.max()) + 1):
            near, here = np.flatnonzero(level == depth - 1), np.flatnonzero(level == depth)
            u = near[np.argmax(p[np.ix_(near, here)] > 0, axis=0)]
            pi[here] = pi[u] * (p[u, here] / p[here, u])
        return pi / pi.sum()


def _check_finite(m: np.ndarray, what: str) -> None:
    """Raise ValidationError naming the first non-finite entry of the matrix m."""
    bad = np.argwhere(~np.isfinite(m))
    if bad.size:
        i, j = bad[0]
        raise ValidationError(f"{what} at ({i}, {j}) is {m[i, j]}, not finite")


def validate_chain(matrix) -> ReversibleChain:
    """Validate a row-stochastic matrix into a ReversibleChain.

    Checks run in a fixed diagnosis order: shape and entries (finite, then
    nonnegative), row sums, strong connectivity (NonErgodicError), edges in
    both directions, then detailed balance on all pairs
    (IrreversibleChainError). pi is read off detailed balance along the
    breadth-first levels of the connectivity check and certified positive,
    balanced and stationary, all in O(N^2). Aperiodicity is recorded, not
    required: lazify makes any chain aperiodic.
    """
    p = np.asarray(matrix, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1] or p.shape[0] < 1:
        raise ValidationError(f"transition matrix must be square, got {p.shape}")
    _check_finite(p, "transition probability")
    if np.any(p < -1e-12):
        i, j = np.unravel_index(np.argmin(p), p.shape)
        raise ValidationError(f"negative transition probability at ({i}, {j}): {p[i, j]:.3g}")
    p = np.clip(p, 0.0, None)
    sums = p.sum(axis=1)
    worst = int(np.argmax(np.abs(sums - 1.0)))
    if abs(sums[worst] - 1.0) > ROW_SUM_TOL:
        raise ValidationError(f"row {worst} sums to {sums[worst]:.17g}, not 1")
    p = p / sums[:, None]

    support = p > 0
    level = _connected_levels(support)
    one_way = np.argwhere(support & ~support.T)
    if one_way.size:
        i, j = one_way[0]
        raise IrreversibleChainError(f"edge ({i}, {j}) is one way: P_ji = 0, but detailed balance needs both")

    pi = _tree_stationary(p, level)
    if not np.all(pi > 0):
        raise InconsistencyError("stationary weights span beyond float64: pi is not positive")
    flow = pi[:, None] * p
    imbalance = np.abs(flow - flow.T)
    resid = float(np.max(imbalance))
    if not resid <= BALANCE_TOL:
        i, j = np.unravel_index(np.argmax(imbalance), flow.shape)
        raise IrreversibleChainError(
            f"detailed balance fails at ({i}, {j}): "
            f"pi_i P_ij = {flow[i, j]:.6g} vs pi_j P_ji = {flow[j, i]:.6g}"
        )
    stat = float(np.max(np.abs(pi @ p - pi)))
    if not stat <= STATIONARY_TOL:
        raise InconsistencyError(f"stationary residual {stat:.3g} exceeds {STATIONARY_TOL:g}")
    aperiodic = _period(support, level) == 1
    return ReversibleChain(P=p, pi=pi, detailed_balance_residual=resid, aperiodic=aperiodic)


def lazify(chain: ReversibleChain) -> ReversibleChain:
    """Lazy version (I + P) / 2: same stationary distribution, aperiodic by
    construction, classical hitting times exactly doubled."""
    lazy = 0.5 * (np.eye(chain.n) + chain.P)
    return validate_chain(lazy)._replace(lazified=True)


def discriminant(p: np.ndarray) -> np.ndarray:
    """Elementwise sqrt(P o P^T). Symmetric for any nonnegative P."""
    p = np.asarray(p, dtype=float)
    return np.sqrt(p * p.T)


class InterpolatedChain(NamedTuple):
    """Chain with the marked row interpolated toward absorption.

    P_s agrees with the base chain away from the marked vertex; the marked
    row is (1-s) P[v] + s e_v. pi_s is the closed-form stationary vector.
    """

    base: ReversibleChain
    marked: int
    s: float
    P_s: np.ndarray
    pi_s: np.ndarray


def interpolate(chain: ReversibleChain, marked: int, s: float) -> InterpolatedChain:
    if not 0 <= marked < chain.n:
        raise ValidationError(f"marked vertex {marked} out of range for n={chain.n}")
    if not 0.0 <= s <= 1.0:
        raise ValidationError(f"interpolation parameter must lie in [0, 1], got {s}")
    return _interpolated(chain, marked, s, 1.0 - s)


def _interpolated(chain: ReversibleChain, marked: int, s: float, r: float) -> InterpolatedChain:
    """The chain interpolated at s, given r = 1 - s as its caller carries it."""
    p_s = chain.P.copy()
    p_s[marked] *= r
    p_s[marked, marked] += s

    pv = float(chain.pi[marked])
    z = r * (1.0 - pv) + pv
    pi_s = r * chain.pi / z
    pi_s[marked] = pv / z
    if s < 1.0:
        resid = float(np.max(np.abs(pi_s @ p_s - pi_s)))
        if resid > 1e-10:
            raise InconsistencyError(f"interpolated stationary residual {resid:.3g}")
    return InterpolatedChain(base=chain, marked=marked, s=float(s), P_s=p_s, pi_s=pi_s)


def half_weight(chain: ReversibleChain, marked: int) -> InterpolatedChain:
    """The chain interpolated at s*, where the marked stationary weight reaches 1/2.

    s* = 1 - r for r = pi_v / (1 - pi_v), and the marked row is scaled by r
    itself, never by 1 - s* formed again, which cancels at a tiny pi_v.
    Requires pi_v <= 1/2 (MarkedWeightError above that, since no s in
    [0, 1] can lift the weight to 1/2); at pi_v = 1/2 exactly s* is the
    boundary value 0.
    """
    if not 0 <= marked < chain.n:
        raise ValidationError(f"marked vertex {marked} out of range for n={chain.n}")
    pv = float(chain.pi[marked])
    if pv > 0.5 + 1e-9:
        raise MarkedWeightError(
            f"marked vertex holds stationary weight {pv:.6g} > 1/2; s* is undefined"
        )
    r = min(1.0, pv / (1.0 - pv))
    return _interpolated(chain, marked, 1.0 - r, r)


def classical_hitting_time(chain: ReversibleChain, marked: int) -> float:
    """Expected steps to reach the marked vertex from a stationary start.

    Solves (I - Q) h = 1 on the unmarked block Q and returns pi . h (the
    marked start contributes zero). A singular solve, or an entry of h
    that is not positive and finite, means a hitting time beyond float64
    precision: InconsistencyError."""
    if not 0 <= marked < chain.n:
        raise ValidationError(f"marked vertex {marked} out of range for n={chain.n}")
    keep = [i for i in range(chain.n) if i != marked]
    if not keep:  # single-state chain: already there
        return 0.0
    q = chain.P[np.ix_(keep, keep)]
    try:
        h = np.linalg.solve(np.eye(len(keep)) - q, np.ones(len(keep)))
    except np.linalg.LinAlgError:
        h = np.array([np.nan])  # singular: refused below
    if not np.all((h > 0) & (h < np.inf)):
        raise InconsistencyError("hitting-time solve is singular or not positive and finite: beyond float64 precision")
    return float(chain.pi[keep] @ h)


def sample_hitting_time(
    chain: ReversibleChain,
    marked: int,
    rng_seed: int,
    walks: int,
    max_steps: int | None = None,
) -> dict:
    """Monte Carlo hitting-time estimate from stationary starts.

    Simulates all walks in lockstep, retiring each on arrival. Each step
    draws one uniform u per running walk, in walk order, and moves it to the
    first supported column whose cumulative row probability reaches u, or
    to the row's last supported column when rounding leaves the row total
    below u. The step cap defaults to a large multiple of the exact value;
    hitting it raises InconsistencyError rather than truncating the estimate.
    """
    check_count(walks, "walks")
    if max_steps is not None:
        check_count(max_steps, "max_steps", least=0)
    exact = classical_hitting_time(chain, marked)
    if max_steps is None:
        max_steps = int(200 * exact + 200 * math.log(max(walks, 2)) + 1000)
    rng = rng_stream(rng_seed, 17)
    # supported entries row by row (CSR order) with their cumulative row sums
    row_of, cols = np.nonzero(chain.P)
    cum = np.cumsum(chain.P, axis=1)[row_of, cols]
    start = np.searchsorted(row_of, np.arange(chain.n))
    nnz = np.bincount(row_of, minlength=chain.n)
    depth = int(nnz.max() - 1).bit_length()
    cum_pi = np.cumsum(chain.pi)
    pos = np.searchsorted(cum_pi, rng.random(walks), side="right").astype(np.int64)
    pos = np.minimum(pos, chain.n - 1)
    steps = np.zeros(walks, dtype=np.int64)
    running = np.flatnonzero(pos != marked)
    pos = pos[running]
    t = 0
    while running.size:
        t += 1
        if t > max_steps:
            raise InconsistencyError(f"{running.size} walks still running after {max_steps} steps")
        u = rng.random(running.size)
        # branchless binary search of each walk's row; the answer (the first
        # entry with cum >= u, else the row's last) stays in [base, base + width)
        base, width = start[pos], nnz[pos]
        for _ in range(depth):
            half = width >> 1
            base += (cum[base + half - 1] < u) * half
            width -= half
        pos = cols[base]
        arrived = pos == marked
        steps[running[arrived]] = t
        running, pos = running[~arrived], pos[~arrived]
    mean = float(steps.mean())
    stderr = float(steps.std(ddof=1) / math.sqrt(walks)) if walks > 1 else float("inf")
    return {
        "walks": int(walks),
        "mean": mean,
        "std_error": stderr,
        "exact": exact,
        "max_steps": int(max_steps),
    }


# ---------------------------------------------------------------------------
# chain families


def complete_chain(n: int) -> ReversibleChain:
    """Uniform walk on the complete graph (no self loops); periodic at n=2."""
    if n < 2:
        raise ValidationError(f"complete chain needs n >= 2, got {n}")
    p = (np.ones((n, n)) - np.eye(n)) / (n - 1)
    return validate_chain(p)


def cycle_chain(n: int) -> ReversibleChain:
    """Symmetric walk on an n-cycle; periodic for even n."""
    if n < 3:
        raise ValidationError(f"cycle chain needs n >= 3, got {n}")
    p = np.zeros((n, n))
    for i in range(n):
        p[i, (i + 1) % n] += 0.5
        p[i, (i - 1) % n] += 0.5
    return validate_chain(p)


def random_reversible_chain(n: int, seed: int) -> ReversibleChain:
    """Dense random reversible chain from a symmetric positive weight matrix.

    Self loops keep it aperiodic; stationary weights are the row sums of the
    weight matrix, so they vary from vertex to vertex.
    """
    if n < 2:
        raise ValidationError(f"random chain needs n >= 2, got {n}")
    rng = rng_stream(seed, 19)
    w = rng.random((n, n)) + 0.05  # bounded away from zero
    w = 0.5 * (w + w.T)
    p = w / w.sum(axis=1, keepdims=True)
    return validate_chain(p)


CHAIN_FAMILIES = ("complete", "cycle", "random-reversible")


def chain_family(name: str, n: int, seed: int = 0) -> ReversibleChain:
    """Factory for the named chain families used by the search experiments."""
    if name == "complete":
        return complete_chain(n)
    if name == "cycle":
        return cycle_chain(n)
    if name == "random-reversible":
        return random_reversible_chain(n, seed)
    raise ValidationError(f"unknown chain family {name!r}; known: {CHAIN_FAMILIES}")


def chain_from_payload(payload: dict) -> tuple[ReversibleChain, int]:
    """Load a chain from a payload dict.

    Two formats: "dense" carries a row-stochastic matrix; "weighted-graph"
    carries undirected edges [i, j, w] (or a symmetric weight matrix) that
    are turned into the weighted random walk.
    """
    try:
        n, marked, fmt, data = (payload[key] for key in ("n", "marked", "format", "data"))
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"chain payload missing or malformed field: {exc}") from None
    for key, value in (("n", n), ("marked", marked)):
        # 3, or 3.0 as JSON may carry it; no bools, fractions, NaN or strings
        whole = isinstance(value, int) or isinstance(value, float) and value.is_integer()
        if isinstance(value, bool) or not whole:
            raise ValidationError(f"chain payload field {key!r} must be a whole number, got {value!r}")
    n, marked = int(n), int(marked)
    if n < 1 or 16 * n * n > np.iinfo(np.intp).max:
        raise ValidationError(f"chain payload needs n >= 1 whose n x n arrays numpy can index, got {n}")
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"chain payload field 'data' must be a rectangular array of numbers: {exc}") from None
    if fmt == "dense":
        p = arr
        if p.shape != (n, n):
            raise ValidationError(f"dense data shape {p.shape} != ({n}, {n})")
    elif fmt == "weighted-graph":
        # an edge list of n triples also has shape (n, n) when n = 3; only a
        # symmetric square can be meant as a weight matrix, so asymmetric
        # squares fall through to the triple reading; NaN counts as equal to
        # itself so that a non-finite weight matrix is named as such below
        if arr.ndim == 2 and arr.shape == (n, n) and np.allclose(arr, arr.T, rtol=0.0, atol=1e-12, equal_nan=True):
            w = arr
        elif arr.ndim == 2 and arr.shape[1] == 3:
            w = np.zeros((n, n))
            for i, j, wt in arr:
                if not (i.is_integer() and j.is_integer()):
                    raise ValidationError(f"edge ({i:g}, {j:g}) needs whole-number vertex indices")
                a, b = int(i), int(j)
                if not (0 <= a < n and 0 <= b < n):
                    raise ValidationError(f"edge ({a}, {b}) out of range for n={n}")
                if wt <= 0:
                    raise ValidationError(f"edge ({a}, {b}) carries nonpositive weight {wt}")
                w[a, b] += wt
                if a != b:
                    w[b, a] += wt
        else:
            raise ValidationError(
                "weighted-graph data must be an n x n weight matrix or [i, j, w] triples"
            )
        _check_finite(w, "weighted-graph weight")
        sums = w.sum(axis=1)
        if np.any(sums <= 0):
            raise ValidationError("isolated vertex: zero weighted degree")
        p = w / sums[:, None]
    else:
        raise ValidationError(f"unknown chain format {fmt!r}")
    if not 0 <= marked < n:
        raise ValidationError(f"marked vertex {marked} out of range for n={n}")
    return validate_chain(p), marked
