"""Reversible Markov chains: validation, discriminant, interpolation, hitting times.

A chain enters the quantum pipeline as a row-stochastic matrix. Validation
establishes, in order: entries and row sums, strong connectivity, a unique
stationary distribution, detailed balance, and (unless waived) aperiodicity.
The diagnosis order is part of the contract: a directed 3-cycle is reported
as irreversible, not as periodic.

The discriminant sqrt(P o P^T) (elementwise) is symmetric for reversible
chains and shares its top eigenvector with sqrt(pi). Interpolation toward an
absorbing marked vertex only rewrites the marked row, which keeps the rest
of the chain untouched and makes the interpolated stationary distribution
available in closed form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    AssertionFailure,
    InconsistencyError,
    IrreversibleChainError,
    MarkedWeightError,
    NonErgodicError,
    ValidationError,
)
from .rng import rng_stream

__all__ = [
    "ReversibleChain",
    "InterpolatedChain",
    "GapHittingTimeRecord",
    "validate_chain",
    "lazify",
    "discriminant",
    "interpolate",
    "s_star",
    "classical_hitting_time",
    "gap_vs_hitting_time",
    "interpolated_gap",
    "interpolation_sweep",
    "write_interpolation_sweep",
    "sample_hitting_time",
    "complete_chain",
    "cycle_chain",
    "random_reversible_chain",
    "chain_family",
    "chain_to_payload",
    "chain_from_payload",
    "CHAIN_FAMILIES",
]

ROW_SUM_TOL = 1e-12
BALANCE_TOL = 1e-10
STATIONARY_TOL = 1e-10
#: linear-solve stationary vector vs discriminant top eigenvector, squared
STATIONARY_CROSS_TOL = 1e-8


@dataclass(frozen=True)
class ReversibleChain:
    """Validated reversible chain with its stationary distribution."""

    P: np.ndarray
    pi: np.ndarray
    detailed_balance_residual: float
    aperiodic: bool
    lazified: bool = False

    @property
    def n(self) -> int:
        return self.P.shape[0]


def _stationary(p: np.ndarray) -> np.ndarray:
    """Unique stationary row vector of an irreducible stochastic matrix.

    Solves (P^T - I) pi = 0 with the normalization row appended in place of
    the last equation; polish and residual check follow.
    """
    n = p.shape[0]
    a = p.T - np.eye(n)
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    pi = np.linalg.solve(a, b)
    pi = np.where(np.abs(pi) < 1e-15, 0.0, pi)
    if np.any(pi <= 0):
        raise InconsistencyError("stationary solve produced nonpositive mass")
    pi /= pi.sum()
    resid = float(np.max(np.abs(pi @ p - pi)))
    if resid > STATIONARY_TOL:
        raise InconsistencyError(f"stationary residual {resid:.3g} exceeds {STATIONARY_TOL:g}")
    return pi


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


def validate_chain(matrix, require_aperiodic: bool = True) -> ReversibleChain:
    """Validate a row-stochastic matrix into a ReversibleChain.

    Checks run in a fixed diagnosis order: shape and entries, row sums,
    strong connectivity (NonErgodicError), detailed balance against the
    stationary distribution (IrreversibleChainError), then aperiodicity
    (NonErgodicError, unless require_aperiodic=False for chains that will
    be lazified before use). The stationary vector is solved linearly and
    cross-checked against the squared top eigenvector of the discriminant.
    """
    p = np.asarray(matrix, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1] or p.shape[0] < 1:
        raise ValidationError(f"transition matrix must be square, got {p.shape}")
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

    pi = _stationary(p)
    flow = pi[:, None] * p
    resid = float(np.max(np.abs(flow - flow.T)))
    if resid > BALANCE_TOL:
        i, j = np.unravel_index(np.argmax(np.abs(flow - flow.T)), flow.shape)
        raise IrreversibleChainError(
            f"detailed balance fails at ({i}, {j}): "
            f"pi_i P_ij = {flow[i, j]:.6g} vs pi_j P_ji = {flow[j, i]:.6g}"
        )

    # independent route to pi: for a reversible chain the discriminant's top
    # eigenvector is sqrt(pi) entrywise
    top = np.linalg.eigh(discriminant(p))[1][:, -1]
    pi_disc = top**2
    pi_disc /= pi_disc.sum()
    cross = float(np.max(np.abs(pi_disc - pi)))
    if cross > STATIONARY_CROSS_TOL:
        raise InconsistencyError(
            f"stationary solve disagrees with discriminant eigenvector by {cross:.3g}"
        )

    aperiodic = _period(support, level) == 1
    if require_aperiodic and not aperiodic:
        raise NonErgodicError("chain is periodic; lazify it or pass require_aperiodic=False")
    return ReversibleChain(P=p, pi=pi, detailed_balance_residual=resid, aperiodic=aperiodic)


def lazify(chain: ReversibleChain) -> ReversibleChain:
    """Lazy version (I + P) / 2: same stationary distribution, aperiodic by
    construction, classical hitting times exactly doubled."""
    lazy = 0.5 * (np.eye(chain.n) + chain.P)
    out = validate_chain(lazy, require_aperiodic=True)
    return replace(out, lazified=True)


def discriminant(p: np.ndarray) -> np.ndarray:
    """Elementwise sqrt(P o P^T). Symmetric for any nonnegative P."""
    p = np.asarray(p, dtype=float)
    return np.sqrt(p * p.T)


@dataclass(frozen=True)
class InterpolatedChain:
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
    p_s = chain.P.copy()
    p_s[marked] *= 1.0 - s
    p_s[marked, marked] += s

    pv = float(chain.pi[marked])
    z = (1.0 - s) * (1.0 - pv) + pv
    pi_s = (1.0 - s) * chain.pi / z
    pi_s[marked] = pv / z
    if s < 1.0:
        resid = float(np.max(np.abs(pi_s @ p_s - pi_s)))
        if resid > 1e-10:
            raise InconsistencyError(f"interpolated stationary residual {resid:.3g}")
    return InterpolatedChain(base=chain, marked=marked, s=float(s), P_s=p_s, pi_s=pi_s)


def s_star(chain: ReversibleChain, marked: int) -> float:
    """Interpolation value where the marked stationary weight reaches 1/2.

    s* = 1 - pi_v / (1 - pi_v); requires pi_v <= 1/2 (MarkedWeightError
    above that, since no s in [0, 1] can lift the weight to 1/2). At
    pi_v = 1/2 exactly the answer is the boundary value 0.
    """
    pv = float(chain.pi[marked])
    if pv > 0.5 + 1e-9:
        raise MarkedWeightError(
            f"marked vertex holds stationary weight {pv:.6g} > 1/2; s* is undefined"
        )
    return max(0.0, 1.0 - pv / (1.0 - pv))


def classical_hitting_time(chain: ReversibleChain, marked: int) -> float:
    """Expected steps to reach the marked vertex from a stationary start.

    Solves (I - Q) h = 1 on the unmarked block Q and returns pi . h (the
    marked start contributes zero)."""
    if not 0 <= marked < chain.n:
        raise ValidationError(f"marked vertex {marked} out of range for n={chain.n}")
    keep = [i for i in range(chain.n) if i != marked]
    if not keep:  # single-state chain: already there
        return 0.0
    q = chain.P[np.ix_(keep, keep)]
    h = np.linalg.solve(np.eye(len(keep)) - q, np.ones(len(keep)))
    if np.any(h <= 0):
        raise InconsistencyError("hitting-time solve produced nonpositive entries")
    return float(chain.pi[keep] @ h)


def interpolated_gap(chain: ReversibleChain, marked: int, s: float) -> float:
    """Spectral gap 1 - lambda_2 of the interpolated discriminant, where
    lambda_2 is the second-largest eigenvalue."""
    d = discriminant(interpolate(chain, marked, s).P_s)
    eigs = np.linalg.eigvalsh(d)
    return float(1.0 - eigs[-2])


@dataclass(frozen=True)
class GapHittingTimeRecord:
    """Product check: the gap at the half-weight interpolation point must not
    collapse faster than the reciprocal hitting time."""

    n: int
    marked: int
    s_star: float
    gap_at_s_star: float
    hitting_time: float
    product: float


def gap_vs_hitting_time(
    chain: ReversibleChain, marked: int, floor: float | None = None
) -> GapHittingTimeRecord:
    """Compute gap(s*) * HT for a chain; optionally assert a lower floor.

    The product staying bounded below across a family is what makes the
    sqrt(HT) evolution-time choice work, so the record exposes it directly.
    """
    s = s_star(chain, marked)
    gap = interpolated_gap(chain, marked, s)
    ht = classical_hitting_time(chain, marked)
    product = gap * ht
    if floor is not None and product < floor:
        raise AssertionFailure(
            f"gap(s*) * HT = {product:.6g} below the required floor {floor:g}"
        )
    return GapHittingTimeRecord(
        n=chain.n,
        marked=int(marked),
        s_star=s,
        gap_at_s_star=gap,
        hitting_time=ht,
        product=float(product),
    )


def interpolation_sweep(chain: ReversibleChain, marked: int, points: int = 101) -> list[tuple[float, float, float]]:
    """Rows (s, gap(s), pi_marked(s)) over a uniform grid on [0, 1].

    Plot-ready sweep of the interpolated discriminant gap and the marked
    vertex's stationary weight.
    """
    if points < 2:
        raise ValidationError(f"points must be >= 2, got {points}")
    rows = []
    for s in np.linspace(0.0, 1.0, points):
        ic = interpolate(chain, marked, float(s))
        eigs = np.linalg.eigvalsh(discriminant(ic.P_s))
        rows.append((float(s), float(1.0 - eigs[-2]), float(ic.pi_s[marked])))
    return rows


def write_interpolation_sweep(
    path, chain: ReversibleChain, marked: int, points: int = 101
) -> None:
    """Write an interpolation_sweep as CSV with columns (s, gap, pi_marked)."""
    from .records import write_csv

    rows = interpolation_sweep(chain, marked, points=points)
    write_csv(
        path,
        ("s", "gap", "pi_marked"),
        [{"s": s, "gap": g, "pi_marked": p} for s, g, p in rows],
        comment=f"interpolated chain sweep, n={chain.n}, marked={marked}",
    )


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
    if walks < 1:
        raise ValidationError(f"walks must be >= 1, got {walks}")
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
    return validate_chain(p, require_aperiodic=False)


def cycle_chain(n: int) -> ReversibleChain:
    """Symmetric walk on an n-cycle; periodic for even n."""
    if n < 3:
        raise ValidationError(f"cycle chain needs n >= 3, got {n}")
    p = np.zeros((n, n))
    for i in range(n):
        p[i, (i + 1) % n] += 0.5
        p[i, (i - 1) % n] += 0.5
    return validate_chain(p, require_aperiodic=False)


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
    return validate_chain(p, require_aperiodic=False)


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


# ---------------------------------------------------------------------------
# serialization


def chain_to_payload(chain: ReversibleChain, marked: int) -> dict:
    """JSON-ready payload: {n, format: "dense", data: rows, marked}."""
    return {
        "n": chain.n,
        "format": "dense",
        "data": [[float(x) for x in row] for row in chain.P],
        "marked": int(marked),
    }


def chain_from_payload(payload: dict) -> tuple[ReversibleChain, int]:
    """Load a chain from a payload dict.

    Two formats: "dense" carries a row-stochastic matrix; "weighted-graph"
    carries undirected edges [i, j, w] (or a symmetric weight matrix) that
    are turned into the weighted random walk. Aperiodicity is not required
    here; callers lazify when they need it.
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
    if n < 1:
        raise ValidationError(f"chain payload needs n >= 1, got {n}")
    if fmt == "dense":
        p = np.asarray(data, dtype=float)
        if p.shape != (n, n):
            raise ValidationError(f"dense data shape {p.shape} != ({n}, {n})")
    elif fmt == "weighted-graph":
        arr = np.asarray(data, dtype=float)
        # an edge list of n triples also has shape (n, n) when n = 3; only a
        # symmetric square can be meant as a weight matrix, so asymmetric
        # squares fall through to the triple reading
        if arr.ndim == 2 and arr.shape == (n, n) and np.max(np.abs(arr - arr.T)) <= 1e-12:
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
        sums = w.sum(axis=1)
        if np.any(sums <= 0):
            raise ValidationError("isolated vertex: zero weighted degree")
        p = w / sums[:, None]
    else:
        raise ValidationError(f"unknown chain format {fmt!r}")
    if not 0 <= marked < n:
        raise ValidationError(f"marked vertex {marked} out of range for n={n}")
    return validate_chain(p, require_aperiodic=False), marked
