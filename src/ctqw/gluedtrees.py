"""Glued binary trees: instances, column-space reduction, closed-form spectrum.

Two depth-d complete binary trees joined leaf-to-leaf by a random alternating
cycle. The walk generator on the full graph is the adjacency matrix scaled by
1/sqrt(2); on the invariant column subspace it reduces to a (2n = 2(d+1))
dimensional tridiagonal matrix with unit couplings and a single sqrt(2) bond
in the middle (Childs et al., "Exponential algorithmic speedup by a quantum
walk", 2003). Eigenvectors in the column space are sine profiles whose
momenta solve sin((n+1)p) = +-sqrt(2) sin(np); two additional hyperbolic
states sit outside the band. The column walk is read off this closed-form
spectrum, with no matrix built and nothing decomposed; the dense column
generator serves only as a test oracle. The certified hitting times read
each route's floor over its whole time grid, as a formula in T, and take
the grid minimum that the walk's own hitting time takes. The traversal
experiment repeats the column walk from the entrance column until each
run's first exit hit, and the exact engine certifies its per-shot exit
probability; the full-graph traversal, which measures every vertex, is a
test oracle.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import bounds, walk
from .errors import InconsistencyError, InvalidLabelError, ValidationError, check_count
from .rng import rng_stream
from .walk import TimeDistribution

__all__ = [
    "GluedTreesInstance",
    "MomentaReport",
    "SubspaceReport",
    "EquivalenceRecord",
    "alpha_sq",
    "column_hamiltonian",
    "column_walk",
    "solve_momenta",
    "column_spectrum_check",
    "certified_hitting_times",
    "subspace_S",
    "generate_instance",
    "validate_instance",
    "oracle_neighbors",
    "discover_graph",
    "full_hamiltonian",
    "full_vs_column_equivalence",
    "traversal_success_stats",
    "default_schedule",
]

SQRT2 = math.sqrt(2.0)
#: bound on each momentum certificate: a band root's Newton step, the hyperbolic ratio residual
MOMENTUM_RESIDUAL_TOL = 1e-10
#: check tolerances of column_spectrum_check and full_vs_column_equivalence
SPECTRUM_ATOL = 1e-9
EQUIVALENCE_TOL = 1e-8
#: bound on each closed-form certificate of column_walk: completeness and the entrance-exit entries of I and H
WALK_CERTIFICATE_TOL = 1e-12
#: time-grid points per route in certified_hitting_times (the subset route adds 8)
CERTIFY_GRID_POINTS = 25


def column_hamiltonian(two_n: int) -> np.ndarray:
    """Reduced walk generator on the 2n column states.

    Tridiagonal, zero diagonal, off-diagonal 1 everywhere except the middle
    bond (n, n+1) which carries sqrt(2).
    """
    if two_n < 2 or two_n % 2 != 0:
        raise ValidationError(f"two_n must be an even integer >= 2, got {two_n}")
    n = two_n // 2
    h = np.zeros((two_n, two_n))
    for j in range(two_n - 1):
        h[j, j + 1] = h[j + 1, j] = SQRT2 if j == n - 1 else 1.0
    return h


def column_walk(two_n: int) -> walk.SpectralWalk:
    """The column-space walk from the entrance column towards the exit column,
    read off one solve_momenta call (c = entrance, rows = exit_sign * c), with
    no matrix built: a reduced walk, shared by everything a glued-trees row
    computes, which drops the hyperbolic pair from 2n = 192 on (start
    amplitude below dim 2^-52). Its exactly paired energies give the sampler
    one phase per pair. Past WALK_CERTIFICATE_TOL, any of sum c^2 = 1,
    sum row^2 = 1 (completeness), sum c row = 0 and sum E c row = 0 (the
    entrance-exit entries of I and H) raises InconsistencyError.
    """
    rep = solve_momenta(two_n)
    c = rep.entrance
    row = rep.exit_sign * c
    certificates = {
        "sum c^2 - 1": np.dot(c, c) - 1.0,
        "sum row^2 - 1": np.dot(row, row) - 1.0,
        "<entrance|exit>": np.dot(c, row),
        "<entrance|H|exit>": np.dot(rep.energies * c, row),
    }
    for name, value in certificates.items():
        if not abs(value) <= WALK_CERTIFICATE_TOL:
            raise InconsistencyError(f"column walk certificate {name} = {value:.3g} exceeds {WALK_CERTIFICATE_TOL:g}")
    return walk.reduced_walk(rep.energies, c, row[None, :])


class MomentaReport(NamedTuple):
    """The column spectrum in ascending energy order, exactly paired
    (energies[j] = -energies[2n-1-j] bitwise). State j has amplitude
    entrance[j] > 0 on the entrance column and exit_sign[j] * entrance[j] on
    the exit column. The band states fill the middle (all but the first and
    last when hyperbolic_q is set); p and branch hold their momenta and
    branch signs in the same order, so p descends.
    """

    two_n: int
    energies: np.ndarray
    entrance: np.ndarray
    exit_sign: np.ndarray
    p: np.ndarray
    branch: np.ndarray
    hyperbolic_q: float | None
    #: largest certificate: the Newton step |F(p)/F'(p)| of a band root, with
    #: F(p) = sin((n+1)p) -+ sqrt(2) sin(np), or the hyperbolic ratio residual
    max_residual: float


def alpha_sq(two_n: int, p):
    """Normalization weight 1 / (2 sum_{j<=n} sin^2(p j)), for a momentum p or
    an array of them; the entrance-column amplitude of the band eigenvector
    is sqrt(alpha_sq) sin p.

    Closed form: sum_{j<=n} sin^2(p j) = n/2 - sin(np) cos((n+1)p) / (2 sin p).
    """
    n = two_n // 2
    return 1.0 / (n - np.sin(n * p) * np.cos((n + 1) * p) / np.sin(p))


def _bisect(f, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Roots of the decreasing f, one per bracket (lo, hi), and their |f|.

    Bisects every bracket at once until no double lies strictly inside it,
    then keeps whichever end has the smaller |f|. The initial ends may be
    poles: f is evaluated only at midpoints and at the final ends.
    """
    while True:
        mid = lo + (hi - lo) / 2
        inside = (lo < mid) & (mid < hi)
        if not inside.any():
            break
        right = f(mid) > 0
        lo = np.where(inside & right, mid, lo)
        hi = np.where(inside & ~right, mid, hi)
    r_lo, r_hi = np.abs(f(lo)), np.abs(f(hi))
    take_lo = r_lo <= r_hi
    return np.where(take_lo, lo, hi), np.where(take_lo, r_lo, r_hi)


def solve_momenta(two_n: int) -> MomentaReport:
    """Solve sin((n+1)p)/sin(np) = +-sqrt(2) on (0, pi), plus the hyperbolic pair.

    g(p) = sin((n+1)p)/sin(np) falls strictly from +inf to -inf between the
    poles pi j/n (from 1 + 1/n at 0+, and to -1 - 1/n at pi-), so each branch
    has one root per pole interval (the first and last intervals only when
    the branch value lies within reach). All roots are bisected at once. Each
    band root is certified by the Newton step |F/F'| of the pole-free form
    F(p) = sin((n+1)p) -+ sqrt(2) sin(np), whose rounding floor, unlike the
    ratio's, does not grow with n; the hyperbolic root by its ratio residual.
    Both must stay below MOMENTUM_RESIDUAL_TOL. Counts are cross-checked
    against the 2n dimension, and the two branches must strictly alternate
    along p, which orders the band with no sort; either failure raises
    InconsistencyError. A band state's entrance amplitude is alpha_p sin p
    and its exit sign its branch; the hyperbolic pair's is
    sinh q / sqrt(2 sum_{j<=n} sinh^2(qj)), from ratios sinh(qj) / sinh(qn)
    that cannot overflow, and its exit sign the sign of its energy. The
    negative energies are the negated positive ones, so the pairing is exact.
    """
    if two_n < 4 or two_n % 2 != 0:
        raise ValidationError(f"two_n must be an even integer >= 4, got {two_n}")
    n = two_n // 2
    poles = np.arange(n + 1) * math.pi / n
    roots: dict[int, np.ndarray] = {}
    max_resid = 0.0
    for sign in (+1, -1):
        c = sign * SQRT2
        first, last = int(c > 1.0 + 1.0 / n), n - int(c < -1.0 - 1.0 / n)
        p, _ = _bisect(
            lambda p: np.sin((n + 1) * p) / np.sin(n * p) - c, poles[first:last], poles[first + 1 : last + 1]
        )
        step = (np.sin((n + 1) * p) - c * np.sin(n * p)) / ((n + 1) * np.cos((n + 1) * p) - c * n * np.cos(n * p))
        roots[sign] = p
        max_resid = max(max_resid, float(np.abs(step).max()))
    if max_resid > MOMENTUM_RESIDUAL_TOL:
        raise InconsistencyError(
            f"momentum Newton step {max_resid:.3g} exceeds {MOMENTUM_RESIDUAL_TOL:g}"
        )

    n_band = roots[+1].shape[0] + roots[-1].shape[0]
    missing = two_n - n_band
    if missing not in (0, 2):
        raise InconsistencyError(
            f"found {n_band} band solutions for two_n={two_n}; expected {two_n} or {two_n - 2}"
        )
    # the brackets give both branches as many roots; interleaved, they must ascend
    lead = -1 if roots[-1][0] < roots[+1][0] else +1
    p = np.empty(n_band)
    p[0::2], p[1::2] = roots[lead], roots[-lead]
    wrong = np.flatnonzero(np.diff(p) <= 0)
    if wrong.size:
        i = int(wrong[0])
        raise InconsistencyError(
            f"branch interleaving violated near p={p[i]:.6g}, {p[i + 1]:.6g} (two_n={two_n})"
        )
    p, branch = p[::-1], np.tile([-lead, lead], n_band // 2)

    h = missing // 2
    energies, entrance, exit_sign = np.empty(two_n), np.empty(two_n), np.empty(two_n)
    energies[h : two_n - h] = 2.0 * np.cos(p)
    entrance[h : two_n - h] = np.sqrt(alpha_sq(two_n, p)) * np.sin(p)
    exit_sign[h : two_n - h] = branch
    hyperbolic_q = None
    if missing == 2:
        # sinh((n+1)q)/sinh(nq) = cosh q + sinh q coth(nq) rises from 1 + 1/n at 0+
        g = lambda q: SQRT2 - np.cosh(q) - np.sinh(q) / np.tanh(n * q)
        q, resid = _bisect(g, np.array([0.0]), np.array([1.0]))
        if resid[0] > MOMENTUM_RESIDUAL_TOL:
            raise InconsistencyError(
                f"hyperbolic momentum residual {resid[0]:.3g} exceeds {MOMENTUM_RESIDUAL_TOL:g}"
            )
        hyperbolic_q = q = float(q[0])
        max_resid = max(max_resid, float(resid[0]))
        j = np.arange(1, n + 1)
        ratio = np.exp(q * (j - n)) * np.expm1(-2.0 * q * j) / math.expm1(-2.0 * q * n)
        energies[-1] = 2.0 * math.cosh(q)
        entrance[0] = entrance[-1] = ratio[0] / math.sqrt(2.0 * np.dot(ratio, ratio))
        exit_sign[0], exit_sign[-1] = -1.0, 1.0
    energies[:n] = -energies[: n - 1 : -1]
    return MomentaReport(two_n, energies, entrance, exit_sign, p, branch, hyperbolic_q, max_resid)


def column_spectrum_check(two_n: int) -> float:
    """Max deviation between the transcendental spectrum and dense eigenvalues.

    Raises InconsistencyError beyond SPECTRUM_ATOL; returns the deviation otherwise.
    """
    dense = np.linalg.eigvalsh(column_hamiltonian(two_n))
    dev = float(np.max(np.abs(solve_momenta(two_n).energies - dense)))
    if dev > SPECTRUM_ATOL:
        raise InconsistencyError(f"spectrum deviation {dev:.3g} exceeds {SPECTRUM_ATOL:g}")
    return dev


class SubspaceReport(NamedTuple):
    """The middle band of minus-branch solutions and its gap structure."""

    two_n: int
    ells: tuple[int, ...]
    momenta: tuple[float, ...]
    sines: tuple[float, ...]
    group_indices: tuple[int, ...]
    alpha4_mass: float  # sum of squared normalization weights over members
    first_term_mass: float  # sum of |<exit|P_g|entrance>|^2 over members
    delta_e_s: float
    within_subset_gap: float
    cross_subset_gap: float
    checks: dict[str, bool]


def subspace_S(w: walk.SpectralWalk) -> SubspaceReport:
    """Minus-branch solutions with ceil(n/4) <= ell <= ceil(3n/4), read off w.

    w is a walk from the entrance to the exit column, column_walk(two_n) or
    a dense one; its dim gives two_n. The minus branch is the band
    states (|E| < 2) with Re(rows c) < 0, ell their rank in ascending
    p = arccos(E/2), alpha_p = |c| / sin p, and each member's group comes
    from the partition's lengths. checks hold the subset gap (certified
    >= pi/(16n)), the gaps within the band and from the band to the other
    groups against their floors, and the band overlap masses. sines is
    measured, not checked: at finite n the band-edge momenta land slightly
    outside (pi/4, 3pi/4), so min(sines) sits below 1/sqrt(2) at desk sizes.
    """
    two_n = w.dim
    if two_n < 8:
        raise ValidationError(f"subspace requires two_n >= 8, got {two_n}")
    n = two_n // 2
    e = w.energies
    # ascending energy is descending p, so the minus branch reversed ascends in p
    minus = np.flatnonzero((np.abs(e) < 2.0) & ((w.rows[0] * w.c).real < 0))[::-1]
    lo, hi = math.ceil(n / 4), math.ceil(3 * n / 4)
    members = minus[lo - 1 : hi]
    if members.shape[0] < 2:
        raise InconsistencyError(f"band subset for two_n={two_n} has {members.shape[0]} member(s), need 2")
    momenta = np.arccos(e[members] / 2)
    sines = np.sin(momenta)
    alpha = np.abs(w.c[members]) / sines

    part = w.partition
    group_indices = part.group_of[members].tolist()
    if len(set(group_indices)) != len(group_indices):
        raise InconsistencyError("two band members mapped to one eigenspace")

    subset, delta_e_s = part.subset_gap(group_indices)
    within = float(np.min(np.diff(part.energies[list(subset)])))
    # the group energies ascend, so the nearest outsider of a member is past
    # the next adjacent pair with one end in S: rounding is monotone, so the
    # smallest such difference is bitwise the smallest over all cross pairs
    member = np.zeros(part.n_groups, dtype=bool)
    member[list(subset)] = True
    cross = float(np.min(np.diff(part.energies)[member[1:] != member[:-1]]))
    a4 = float(np.sum(alpha**4))

    within_floor = math.pi / (16 * n)
    checks = {
        "delta_e_s_floor_ok": bool(delta_e_s >= within_floor),
        "within_gap_ok": bool(within > within_floor),
        "cross_gap_ok": bool(cross > math.pi / (12 * n)),
        "alpha4_mass_ok": bool(a4 >= 1.0 / (4 * n)),
        "alpha_floor_ok": bool(np.all(alpha > 1.0 / math.sqrt(2 * n))),
    }
    return SubspaceReport(
        two_n=two_n,
        ells=tuple(range(lo, lo + members.shape[0])),
        momenta=tuple(momenta.tolist()),
        sines=tuple(sines.tolist()),
        group_indices=tuple(group_indices),
        alpha4_mass=a4,
        first_term_mass=sum(w.overlaps[g] for g in group_indices),
        delta_e_s=float(delta_e_s),
        within_subset_gap=within,
        cross_subset_gap=cross,
        checks=checks,
    )


# ---------------------------------------------------------------------------
# full-graph instances


class GluedTreesInstance(NamedTuple):
    """Label-faithful glued-trees graph.

    Vertex names are opaque fixed-width hex identifiers; adjacency should be
    read through oracle_neighbors only (walk code discovers the graph by
    breadth-first oracle queries, never by touching this mapping directly).
    """

    depth: int
    entrance: str
    exit: str
    adjacency: dict

    @property
    def n_vertices(self) -> int:
        return len(self.adjacency)


def _label_width_bits(n_vertices: int) -> int:
    return 2 * math.ceil(math.log2(n_vertices)) + 2


def generate_instance(depth: int, seed: int) -> GluedTreesInstance:
    """Random glued-trees instance: heap-shaped trees, random alternating
    leaf cycle, collision-checked random labels, per-vertex neighbor order
    shuffled so the oracle leaks no positional structure."""
    if depth < 2:
        raise ValidationError(f"depth must be >= 2, got {depth}")
    rng = rng_stream(seed, 71)
    tree_size = 2 ** (depth + 1) - 1
    n_leaves = 2**depth
    total = 2 * tree_size

    # internal ids: tree A = 0..tree_size-1 (heap order), tree B offset by tree_size
    edges: list[tuple[int, int]] = []
    for t_off in (0, tree_size):
        for i in range(tree_size):
            for child in (2 * i + 1, 2 * i + 2):
                if child < tree_size:
                    edges.append((t_off + i, t_off + child))
    leaves_a = [tree_size - n_leaves + i for i in range(n_leaves)]
    leaves_b = [tree_size + tree_size - n_leaves + i for i in range(n_leaves)]
    perm_a = [leaves_a[i] for i in rng.permutation(n_leaves)]
    perm_b = [leaves_b[i] for i in rng.permutation(n_leaves)]
    for i in range(n_leaves):
        edges.append((perm_a[i], perm_b[i]))
        edges.append((perm_b[i], perm_a[(i + 1) % n_leaves]))

    bits = _label_width_bits(total)
    width = (bits + 3) // 4
    labels: list[str] = []
    seen = set()
    while len(labels) < total:
        draw = int(rng.integers(0, 2**bits))
        if draw in seen:
            continue  # collision: redraw
        seen.add(draw)
        labels.append(format(draw, f"0{width}x"))

    adj: dict[str, list[str]] = {lab: [] for lab in labels}
    for u, v in edges:
        adj[labels[u]].append(labels[v])
        adj[labels[v]].append(labels[u])
    shuffled = {}
    for lab in labels:
        order = rng.permutation(len(adj[lab]))
        shuffled[lab] = tuple(adj[lab][i] for i in order)

    inst = GluedTreesInstance(
        depth=depth,
        entrance=labels[0],
        exit=labels[tree_size],
        adjacency=shuffled,
    )
    validate_instance(inst)
    return inst


def validate_instance(inst: GluedTreesInstance) -> None:
    """Structural checks: vertex count, symmetry, degrees, layer profile."""
    total = 2 * (2 ** (inst.depth + 1) - 1)
    if inst.n_vertices != total:
        raise ValidationError(f"expected {total} vertices, found {inst.n_vertices}")
    degs = {}
    for lab, nbrs in inst.adjacency.items():
        if len(set(nbrs)) != len(nbrs):
            raise ValidationError(f"duplicate neighbor at {lab}")
        for m in nbrs:
            if lab not in inst.adjacency.get(m, ()):
                raise ValidationError(f"asymmetric edge {lab}-{m}")
        degs[lab] = len(nbrs)
    roots = sorted(lab for lab, d in degs.items() if d == 2)
    if len(roots) != 2 or any(d != 3 for lab, d in degs.items() if lab not in roots):
        raise ValidationError("degree profile must be two 2s (roots), rest 3s")
    if sorted((inst.entrance, inst.exit)) != roots:
        raise ValidationError("entrance/exit must be the two degree-2 vertices")
    # BFS layer profile 1,2,...,2^d,2^d,...,2,1
    expected = [2**i for i in range(inst.depth + 1)] + [2**i for i in range(inst.depth, -1, -1)]
    layer = {inst.entrance: 0}
    frontier = [inst.entrance]
    sizes = [1]
    while frontier:
        nxt = []
        for u in frontier:
            for v in inst.adjacency[u]:
                if v not in layer:
                    layer[v] = layer[u] + 1
                    nxt.append(v)
        if nxt:
            sizes.append(len(nxt))
        frontier = nxt
    if sizes != expected:
        raise ValidationError(f"layer profile {sizes} != expected {expected}")
    if layer.get(inst.exit) != 2 * inst.depth + 1:
        raise ValidationError("exit is not at the far end of the layer profile")


def oracle_neighbors(inst: GluedTreesInstance, label: str) -> tuple[str, ...]:
    """Neighbors of a vertex, in the instance's shuffled order."""
    try:
        return inst.adjacency[label]
    except KeyError:
        raise InvalidLabelError(f"unknown vertex label {label!r}") from None


def discover_graph(oracle, entrance: str):
    """Breadth-first discovery through an oracle callable.

    Returns (labels in discovery order, adjacency dict). Every edge the
    returned structure knows about came from an oracle reply.
    """
    order = [entrance]
    seen = {entrance}
    adj = {}
    i = 0
    while i < len(order):
        u = order[i]
        nbrs = tuple(oracle(u))
        adj[u] = nbrs
        for v in nbrs:
            if v not in seen:
                seen.add(v)
                order.append(v)
        i += 1
    return order, adj


def full_hamiltonian(inst: GluedTreesInstance):
    """Walk generator on the full graph, built via oracle discovery.

    Adjacency scaled by 1/sqrt(2) so the column reduction has unit in-tree
    couplings and a sqrt(2) middle bond. Returns (H, labels in row order).
    """
    labels, adj = discover_graph(lambda lab: oracle_neighbors(inst, lab), inst.entrance)
    index = {lab: i for i, lab in enumerate(labels)}
    m = len(labels)
    h = np.zeros((m, m))
    for lab, nbrs in adj.items():
        i = index[lab]
        for nb in nbrs:
            h[i, index[nb]] = 1.0 / SQRT2
    return h, labels


class EquivalenceRecord(NamedTuple):
    depth: int
    two_n: int
    T: float
    k: int
    trials: int
    p_full: float
    p_column: float
    difference: float
    tolerance: float
    passes: bool


def full_vs_column_equivalence(
    inst: GluedTreesInstance, T: float, k: int = 1, trials: int = 1
) -> EquivalenceRecord:
    """Exit probability computed on the full graph equals the column-space
    value for the same time law (the column subspace is invariant).

    Checked at `trials` time points T, 2T, ..., trials*T; the record carries
    the probabilities at the base point and the worst difference seen.
    Capped at depth 6: beyond that the dense full-graph decomposition stops
    being a reasonable oracle.
    """
    if inst.depth > 6:
        raise ValidationError(
            f"full-graph comparison capped at depth 6, got depth {inst.depth}"
        )
    check_count(trials, "trials")
    h_full, labels = full_hamiltonian(inst)
    m = len(labels)
    full = walk.spectral_walk(
        h_full, walk.basis_state(m, labels.index(inst.entrance)), walk.basis_state(m, labels.index(inst.exit))
    )
    two_n = 2 * (inst.depth + 1)
    column = column_walk(two_n)

    p_full = p_col = 0.0
    worst = 0.0
    for j in range(1, trials + 1):
        dist = TimeDistribution(T=float(T) * j, k=k)
        pf = full.probability(dist)
        pc = column.probability(dist)
        if j == 1:
            p_full, p_col = pf, pc
        worst = max(worst, abs(pf - pc))
    return EquivalenceRecord(
        depth=inst.depth,
        two_n=two_n,
        T=float(T),
        k=int(k),
        trials=int(trials),
        p_full=p_full,
        p_column=p_col,
        difference=float(worst),
        tolerance=EQUIVALENCE_TOL,
        passes=bool(worst <= EQUIVALENCE_TOL),
    )


# ---------------------------------------------------------------------------
# certified hitting-time estimates


def certified_hitting_times(w: walk.SpectralWalk) -> dict:
    """Hitting-time figures certified by the three lower-bound routes.

    Each route minimizes (segments * T) / floor(T) over a geometric time grid
    spanning the scale where its floor is positive:

    - mixing route, one uniform time: T in [1.5, 48] x 2/(p_inf delta_e_min)
    - single-eigenspace route (middle band state ell = ceil(n/2), a member
      of S), one uniform time: T in [5, 30] / delta_e_star
    - subset route with ceil(log2 5n) summed uniforms: T in [1, 64] x
      2/delta_e_s, which brackets the optimum of a - sqrt(3) (2/(T d))^k

    Each route reads its bounds-module floor over the whole grid in one
    call and takes the grid minimum of walk._grid_minimum, skipping
    nonpositive floors. Each route's floor is then certified once, at its
    argmin T, against the exact averaged probability, and the slack is
    returned as slack_l1..3. The subset route keeps k pinned to the
    log schedule rather than optimizing it. w is the column walk of
    column_walk(two_n); the subspace_S report the routes rest on is returned
    under "subspace".
    """
    two_n = w.dim
    n = two_n // 2
    part = w.partition
    p_inf = w.limiting_probability

    sub = subspace_S(w)
    g_mid = sub.group_indices[sub.ells.index(math.ceil(n / 2))]
    de_star = part.delta_e_star[g_mid]

    _, k3, _ = default_schedule(two_n)
    t1, t3 = 2.0 / (p_inf * part.delta_e_min), 2.0 / sub.delta_e_s
    grid1 = np.geomspace(1.5 * t1, 48.0 * t1, CERTIFY_GRID_POINTS)
    grid2 = np.geomspace(5.0 / de_star, 30.0 / de_star, CERTIFY_GRID_POINTS)
    grid3 = np.geomspace(t3, 64.0 * t3, CERTIFY_GRID_POINTS + 8)
    unsure = InconsistencyError("no grid point certified a positive floor")
    tau1, at1 = walk._grid_minimum(grid1, 1, bounds.mixing_floor(w, grid1), 0.0, unsure)
    tau2, at2 = walk._grid_minimum(grid2, 1, bounds.eigenspace_floor(w, grid2, g_mid), 0.0, unsure)
    tau3, at3 = walk._grid_minimum(grid3, k3, bounds.subset_floor(w, grid3, k3, sub.group_indices), 0.0, unsure)
    t_at_1, t_at_2, t_at_3 = float(grid1[at1]), float(grid2[at2]), float(grid3[at3])
    return {
        "tau_l1": tau1,
        "T_l1": t_at_1,
        "tau_l2": tau2,
        "T_l2": t_at_2,
        "group_l2": g_mid,
        "delta_e_star_l2": float(de_star),
        "tau_l3": tau3,
        "T_l3": t_at_3,
        "k_l3": int(k3),
        "slack_l1": bounds.mixing_bound(w, t_at_1).slack,
        "slack_l2": bounds.eigenspace_bound(w, t_at_2, g_mid).slack,
        "slack_l3": bounds.subset_bound(w, TimeDistribution(T=t_at_3, k=k3), sub.group_indices).slack,
        "p_inf": float(p_inf),
        "delta_e_min": float(part.delta_e_min),
        "delta_e_s": float(sub.delta_e_s),
        "subspace": sub,
    }


# ---------------------------------------------------------------------------
# traversal experiment


def default_schedule(two_n: int) -> tuple[float, int, int]:
    """(T, segments k, max repetitions) for the traversal experiment: the log
    schedule T = 64n, k = ceil(log2(5n)), 20n repetitions. A per-shot exit
    probability of at least 1/(20n) certifies it."""
    n = two_n // 2
    return 64.0 * n, math.ceil(math.log2(5 * n)), 20 * n


def _first_hits(
    w: walk.SpectralWalk, dist: TimeDistribution, rng: np.random.Generator, runs: int, reps: int, p_shot: float
) -> tuple[np.ndarray, np.ndarray]:
    """Repeat the randomized-time walk in each of `runs` runs until its first hit.

    Round r = 1..reps draws one shot for every run still active, and the
    runs that hit stop: each run draws min(G, reps) shots, G geometric in
    the per-shot hit probability. Returns (used, hit) per run: the shots
    drawn and whether one of them hit. The stream is that of one w.sample
    per round of m active runs; a Philox stream's doubles do not depend on
    how the draws are split, so they come from one buffer of rng.random.
    One w.hits call decides L = ceil(1 / (1 - (1 - p_shot)^m)) rounds as if
    none but the last hit, with L at most the rounds left and L m <= runs;
    the rounds up to the first with a hit are kept, and the doubles of the
    rest stay in the buffer.
    """
    k, used, hit = dist.k, np.full(runs, reps, dtype=np.int64), np.zeros(runs, dtype=bool)
    active, draws, done = np.arange(runs), np.empty(0), 0
    while active.size and done < reps:
        m = active.size
        miss = (1.0 - p_shot) ** m
        batch = min(math.ceil(1.0 / (1.0 - miss)) if miss < 1.0 else reps, reps - done, runs // m)
        draws = np.concatenate([draws, rng.random(max(0, batch * m * (k + 1) - draws.shape[0]))])
        rounds = draws[: batch * m * (k + 1)].reshape(batch, -1)
        ts, u = np.empty((batch, m)), np.empty((batch, m))
        # each SAMPLE_CHUNK of a round: its k uniforms per shot, then one per shot
        for lo in range(0, m, walk.SAMPLE_CHUNK):
            c, at = min(walk.SAMPLE_CHUNK, m - lo), lo * (k + 1)
            ts[:, lo : lo + c] = (rounds[:, at : at + c * k].reshape(-1, k).sum(axis=1) * dist.T).reshape(batch, c)
            u[:, lo : lo + c] = rounds[:, at + c * k : at + c * (k + 1)]
        hits = w.hits(ts.ravel(), u.ravel()).reshape(batch, m)
        struck = np.flatnonzero(hits.any(axis=1))
        kept = int(struck[0]) + 1 if struck.size else batch
        draws, done, now = draws[kept * m * (k + 1) :], done + kept, hits[kept - 1]
        used[active[now]] = done
        hit[active[now]] = True
        active = active[~now]
    return used, hit


def traversal_success_stats(two_n: int, rng_seed: int, runs: int, w: walk.SpectralWalk) -> dict:
    """Monte Carlo success statistics for the column-mode traversal on w, the
    column walk of column_walk(two_n).

    Each run repeats the walk until its first exit hit, within
    max_repetitions, measuring only the exit column (_first_hits). That
    costs about runs / p_shot shots, returned as "shots"; deterministic for
    a fixed seed. The dict also carries the schedule (T, k, max_repetitions),
    its per-shot floor, which is two_n's, so a SpectralWalk w of any other
    dimension is rejected, and p_shot, w's exact exit probability per shot.
    """
    check_count(runs, "runs")
    if isinstance(w, walk.SpectralWalk) and w.dim != two_n:
        raise ValidationError(f"walk dimension {w.dim} != schedule size two_n = {two_n}")
    T, k, reps = default_schedule(two_n)
    dist = TimeDistribution(T=T, k=k)
    p_shot = w.probability(dist)
    used, hit = _first_hits(w, dist, rng_stream(rng_seed, 13), runs, reps, p_shot)
    return {
        "runs": int(runs),
        "success_fraction": float(np.mean(hit)),
        "mean_repetitions": float(used.mean()),
        "shots": int(used.sum()),
        "T": float(T),
        "k": int(k),
        "max_repetitions": int(reps),
        "per_shot_floor": 1.0 / reps,
        "p_shot": p_shot,
    }

