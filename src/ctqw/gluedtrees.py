"""Glued binary trees: instances, column-space reduction, exact spectrum.

Two depth-d complete binary trees joined leaf-to-leaf by a random alternating
cycle. The walk generator on the full graph is the adjacency matrix scaled by
1/sqrt(2); on the invariant column subspace it reduces to a (2n = 2(d+1))
dimensional tridiagonal matrix with unit couplings and a single sqrt(2) bond
in the middle. Eigenvectors in the column space are sine profiles whose
momenta solve sin((n+1)p) = +-sqrt(2) sin(np); two additional hyperbolic
states sit outside the band. The traversal experiment walks from the
entrance root and certifies the exit probability with the exact engine.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import bounds, spectral, walk
from .errors import InconsistencyError, InvalidLabelError, ValidationError
from .rng import rng_stream
from .walk import TimeDistribution

__all__ = [
    "GluedTreesInstance",
    "MomentumSolution",
    "MomentaReport",
    "SubspaceReport",
    "TraversalRecord",
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
    "run_traversal",
    "traversal_success_stats",
    "default_schedule",
]

SQRT2 = math.sqrt(2.0)
#: bound on each momentum certificate: a band root's Newton step, the hyperbolic ratio residual
MOMENTUM_RESIDUAL_TOL = 1e-10
#: check tolerances of column_spectrum_check and full_vs_column_equivalence
SPECTRUM_ATOL = 1e-9
EQUIVALENCE_TOL = 1e-8
#: bound on the column spectrum's pairing residual max|E_j + E_{2n-1-j}|, relative to its range
PAIRING_TOL = 1e-12
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
    """The column-space walk from the entrance column towards the exit column:
    one decomposition, shared by everything a glued-trees row computes.

    The generator is bipartite (zero diagonal), so E_j = -E_{2n-1-j}: past
    PAIRING_TOL times the spectral range, eigh's pairing residual raises
    InconsistencyError. The walk evolves under the exactly paired
    (E - E[::-1]) / 2, certified again by the reconstruction check, so the
    sampler evaluates one phase per pair, and its partition groups these
    same energies. Past the certificates it needs no eigenvector: the walk
    is returned as a reduced one, without its decomposition.
    """
    w = walk.spectral_walk(column_hamiltonian(two_n), walk.basis_state(two_n, 0), walk.basis_state(two_n, two_n - 1))
    dec = w.decomposition
    e = dec.eigenvalues
    residual, spread = float(np.max(np.abs(e + e[::-1]))), float(e[-1] - e[0])
    if residual > PAIRING_TOL * spread:
        raise InconsistencyError(f"column spectrum pairing residual {residual:.3g} exceeds {PAIRING_TOL:g} * range {spread:.6g}")
    paired = replace(dec, eigenvalues=(e - e[::-1]) / 2)
    spectral._check_reconstruction(paired)
    return walk.SpectralWalk(paired.eigenvalues, w.c, w.rows, None)


@dataclass(frozen=True)
class MomentumSolution:
    """One band solution: momentum p in (0, pi), branch sign, band index."""

    p: float
    branch: int  # +1 or -1: which sign of sqrt(2) the ratio hits
    ell: int  # 1-based index within its branch, ascending in p
    energy: float  # 2 cos p
    alpha_p: float  # normalization 1 / sqrt(2 sum_{j<=n} sin^2(pj))


@dataclass(frozen=True)
class MomentaReport:
    two_n: int
    minus: tuple[MomentumSolution, ...]
    plus: tuple[MomentumSolution, ...]
    hyperbolic_q: float | None
    hyperbolic_energies: tuple[float, ...]
    all_energies: np.ndarray
    #: largest certificate: the Newton step |F(p)/F'(p)| of a band root, with
    #: F(p) = sin((n+1)p) -+ sqrt(2) sin(np), or the hyperbolic ratio residual
    max_residual: float


def alpha_sq(two_n: int, p: float) -> float:
    """Normalization weight 1 / (2 sum_{j<=n} sin^2(p j)); the squared
    entrance-column amplitude of the band eigenvector is alpha_sq * sin^2 p.

    Closed form: sum_{j<=n} sin^2(p j) = n/2 - sin(np) cos((n+1)p) / (2 sin p).
    """
    n = two_n // 2
    return 1.0 / (n - math.sin(n * p) * math.cos((n + 1) * p) / math.sin(p))


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
    against the 2n dimension; a mismatch raises InconsistencyError.
    """
    if two_n < 4 or two_n % 2 != 0:
        raise ValidationError(f"two_n must be an even integer >= 4, got {two_n}")
    n = two_n // 2
    poles = np.arange(n + 1) * math.pi / n
    sols: dict[int, list[float]] = {}
    max_resid = 0.0
    for sign in (+1, -1):
        c = sign * SQRT2
        first, last = int(c > 1.0 + 1.0 / n), n - int(c < -1.0 - 1.0 / n)
        p, _ = _bisect(
            lambda p: np.sin((n + 1) * p) / np.sin(n * p) - c, poles[first:last], poles[first + 1 : last + 1]
        )
        step = (np.sin((n + 1) * p) - c * np.sin(n * p)) / ((n + 1) * np.cos((n + 1) * p) - c * n * np.cos(n * p))
        sols[sign] = p.tolist()
        max_resid = max(max_resid, float(np.abs(step).max()))
    if max_resid > MOMENTUM_RESIDUAL_TOL:
        raise InconsistencyError(
            f"momentum Newton step {max_resid:.3g} exceeds {MOMENTUM_RESIDUAL_TOL:g}"
        )

    n_sine = len(sols[+1]) + len(sols[-1])
    missing = two_n - n_sine
    if missing not in (0, 2):
        raise InconsistencyError(
            f"found {n_sine} band solutions for two_n={two_n}; expected {two_n} or {two_n - 2}"
        )
    hyperbolic_q = None
    hyp_energies: tuple[float, ...] = ()
    if missing == 2:
        # sinh((n+1)q)/sinh(nq) = cosh q + sinh q coth(nq) rises from 1 + 1/n at 0+
        g = lambda q: SQRT2 - np.cosh(q) - np.sinh(q) / np.tanh(n * q)
        q, resid = _bisect(g, np.array([0.0]), np.array([1.0]))
        if resid[0] > MOMENTUM_RESIDUAL_TOL:
            raise InconsistencyError(
                f"hyperbolic momentum residual {resid[0]:.3g} exceeds {MOMENTUM_RESIDUAL_TOL:g}"
            )
        hyperbolic_q = float(q[0])
        max_resid = max(max_resid, float(resid[0]))
        e = 2.0 * math.cosh(hyperbolic_q)
        hyp_energies = (-e, e)

    minus, plus = (
        tuple(
            MomentumSolution(
                p=p, branch=sign, ell=i + 1, energy=2.0 * math.cos(p), alpha_p=math.sqrt(alpha_sq(two_n, p))
            )
            for i, p in enumerate(sols[sign])
        )
        for sign in (-1, +1)
    )
    # the two branches must strictly alternate along the momentum axis
    merged = sorted(minus + plus, key=lambda s: s.p)
    for a, b in zip(merged, merged[1:]):
        if a.branch == b.branch:
            raise InconsistencyError(
                f"branch interleaving violated near p={a.p:.6g}, {b.p:.6g} (two_n={two_n})"
            )
    energies = np.sort(
        np.array([s.energy for s in minus] + [s.energy for s in plus] + list(hyp_energies))
    )
    return MomentaReport(
        two_n=two_n,
        minus=minus,
        plus=plus,
        hyperbolic_q=hyperbolic_q,
        hyperbolic_energies=hyp_energies,
        all_energies=energies,
        max_residual=max_resid,
    )


def column_spectrum_check(two_n: int) -> float:
    """Max deviation between the transcendental spectrum and dense eigenvalues.

    Raises InconsistencyError beyond SPECTRUM_ATOL; returns the deviation otherwise.
    """
    report = solve_momenta(two_n)
    dense = np.linalg.eigvalsh(column_hamiltonian(two_n))
    if report.all_energies.shape != dense.shape:
        raise InconsistencyError(
            f"momentum solutions count {report.all_energies.shape[0]} != dim {dense.shape[0]}"
        )
    dev = float(np.max(np.abs(report.all_energies - dense)))
    if dev > SPECTRUM_ATOL:
        raise InconsistencyError(f"spectrum deviation {dev:.3g} exceeds {SPECTRUM_ATOL:g}")
    return dev


@dataclass(frozen=True)
class SubspaceReport:
    """The middle band of minus-branch solutions and its gap structure."""

    two_n: int
    ells: tuple[int, ...]
    momenta: tuple[float, ...]
    energies: tuple[float, ...]
    sines: tuple[float, ...]
    group_indices: tuple[int, ...]
    alpha4_mass: float  # sum of squared normalization weights over members
    first_term_mass: float  # sum of |<exit|P_g|entrance>|^2 over members
    delta_e_s: float
    within_subset_gap: float
    cross_subset_gap: float
    checks: dict[str, bool]


def subspace_S(w: walk.SpectralWalk) -> SubspaceReport:
    """Minus-branch solutions with ceil(n/4) <= ell <= ceil(3n/4).

    w is the column walk of column_walk(two_n), whose dimension gives two_n.
    Members are mapped onto its eigenspace groups; checks hold the subset
    gap (certified >= pi/(16n)), the gaps within the band and from the band
    to the other groups against their floors, and the band overlap masses. sines is measured, not
    checked: at finite n the band-edge momenta land slightly outside
    (pi/4, 3pi/4), so min(sines) sits below 1/sqrt(2) at desk sizes.
    """
    two_n = w.energies.shape[0]
    if two_n < 8:
        raise ValidationError(f"subspace requires two_n >= 8, got {two_n}")
    n = two_n // 2
    report = solve_momenta(two_n)
    lo, hi = math.ceil(n / 4), math.ceil(3 * n / 4)
    members = [s for s in report.minus if lo <= s.ell <= hi]
    if len(members) < 2:
        raise InconsistencyError(f"band subset for two_n={two_n} has {len(members)} member(s), need 2")

    part = w.partition
    energies = part.energies
    group_indices = []
    for s in members:
        diffs = np.abs(energies - s.energy)
        g = int(np.argmin(diffs))
        if diffs[g] > 1e-9:
            raise InconsistencyError(
                f"momentum energy {s.energy:.12g} matches no eigenspace (off by {diffs[g]:.3g})"
            )
        group_indices.append(g)
    if len(set(group_indices)) != len(group_indices):
        raise InconsistencyError("two band members mapped to one eigenspace")

    subset, delta_e_s = part.subset_gap(group_indices)
    within = float(np.min(np.diff(energies[list(subset)])))
    comp = [i for i in range(energies.shape[0]) if i not in subset]
    cross = float(np.min(np.abs(energies[list(subset)][:, None] - energies[comp][None, :])))
    a4 = sum(s.alpha_p**4 for s in members)

    within_floor = math.pi / (16 * n)
    checks = {
        "delta_e_s_floor_ok": bool(delta_e_s >= within_floor),
        "within_gap_ok": bool(within > within_floor),
        "cross_gap_ok": bool(cross > math.pi / (12 * n)),
        "alpha4_mass_ok": bool(a4 >= 1.0 / (4 * n)),
        "alpha_floor_ok": bool(all(s.alpha_p > 1.0 / math.sqrt(2 * n) for s in members)),
    }
    return SubspaceReport(
        two_n=two_n,
        ells=tuple(s.ell for s in members),
        momenta=tuple(s.p for s in members),
        energies=tuple(s.energy for s in members),
        sines=tuple(math.sin(s.p) for s in members),
        group_indices=tuple(group_indices),
        alpha4_mass=float(a4),
        first_term_mass=sum(w.overlaps[g] for g in group_indices),
        delta_e_s=float(delta_e_s),
        within_subset_gap=within,
        cross_subset_gap=cross,
        checks=checks,
    )


# ---------------------------------------------------------------------------
# full-graph instances


@dataclass(frozen=True)
class GluedTreesInstance:
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


@dataclass(frozen=True)
class EquivalenceRecord:
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
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
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

    The grids read the pure floors of the bounds module; grid points with
    nonpositive floors are skipped. Each route's floor is then certified
    once, at its argmin T, against the exact averaged probability, and the
    slack is returned as slack_l1..3. The subset route keeps k pinned to the
    log schedule rather than optimizing it. w is the column walk of
    column_walk(two_n); the subspace_S report the routes rest on is returned
    under "subspace".
    """
    two_n = w.energies.shape[0]
    n = two_n // 2
    part = w.partition
    p_inf = w.limiting_probability

    sub = subspace_S(w)
    g_mid = sub.group_indices[sub.ells.index(math.ceil(n / 2))]
    de_star = part.delta_e_star[g_mid]

    _, k3, _ = default_schedule(two_n)

    def best(grid, k, floor_at):
        tau = best_t = None
        for t in grid:
            val = floor_at(float(t))
            if val <= 0.0:
                continue
            cand = k * float(t) / val
            if tau is None or cand < tau:
                tau, best_t = cand, float(t)
        if tau is None:
            raise InconsistencyError("no grid point certified a positive floor")
        return tau, best_t

    t1 = 2.0 / (p_inf * part.delta_e_min)
    tau1, t_at_1 = best(
        np.geomspace(1.5 * t1, 48.0 * t1, CERTIFY_GRID_POINTS), 1, lambda t: bounds.mixing_floor(w, t)[0]
    )
    tau2, t_at_2 = best(
        np.geomspace(5.0 / de_star, 30.0 / de_star, CERTIFY_GRID_POINTS),
        1,
        lambda t: bounds.eigenspace_floor(w, t, g_mid)[0],
    )
    t3 = 2.0 / sub.delta_e_s
    tau3, t_at_3 = best(
        np.geomspace(t3, 64.0 * t3, CERTIFY_GRID_POINTS + 8),
        k3,
        lambda t: bounds.subset_floor(w, TimeDistribution(T=t, k=k3), sub.group_indices)[0],
    )
    return {
        "tau_l1": float(tau1),
        "T_l1": t_at_1,
        "tau_l2": float(tau2),
        "T_l2": t_at_2,
        "group_l2": g_mid,
        "delta_e_star_l2": float(de_star),
        "tau_l3": float(tau3),
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


@dataclass(frozen=True)
class TraversalRecord:
    two_n: int
    T: float
    k: int
    max_repetitions: int
    success: bool
    repetitions_used: int
    outcome: str
    per_shot_probability: float
    per_shot_floor: float
    certified: bool
    total_evolved_time: float
    time_budget: float
    rng_seed: int


def _first_hits(
    w: walk.SpectralWalk, dist: TimeDistribution, rng: np.random.Generator, runs: int, reps: int, hit
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Repeat the randomized-time walk in each of `runs` runs until its first hit.

    Round r = 1..reps draws one shot for every run still active through
    w.sample; hit maps the round's outcomes to a boolean mask, and the runs
    that hit stop. Each run draws min(G, reps) shots, G geometric in the
    per-shot hit probability. Returns (used, outcome, elapsed) per run: the
    shots drawn, the outcome of the hit (-1 if it never hit), and the summed
    times of the shots drawn.
    """
    used = np.full(runs, reps, dtype=np.int64)
    outcome = np.full(runs, -1, dtype=np.int64)
    elapsed = np.zeros(runs)
    active = np.arange(runs)
    for r in range(1, reps + 1):
        if active.size == 0:
            break
        ts, outs = w.sample(dist, rng, active.size)
        elapsed[active] += ts
        hits = hit(outs)
        used[active[hits]] = r
        outcome[active[hits]] = outs[hits]
        active = active[~hits]
    return used, outcome, elapsed


def _exit_column_hit(outcomes: np.ndarray) -> np.ndarray:
    """Column mode measures the exit column only: outcome 0 is the exit."""
    return outcomes == 0


def run_traversal(inst: GluedTreesInstance, rng_seed: int) -> TraversalRecord:
    """One traversal experiment on the full graph: repeat the randomized-time
    walk from the entrance until the exit is measured or the repetition
    budget runs out.

    The generator is built through oracle queries, every vertex is measured,
    and success is recognized by the degree-2 test on the measured label,
    never by peeking at the exit's identity. No shot is drawn past the first
    hit. The column-space experiment is traversal_success_stats.
    """
    two_n = 2 * (inst.depth + 1)
    T, k, reps = default_schedule(two_n)
    h, labels = full_hamiltonian(inst)
    dim = len(labels)
    w = walk.spectral_walk(
        h, walk.basis_state(dim, labels.index(inst.entrance)), walk.basis_state(dim, labels.index(inst.exit))
    )
    dist = TimeDistribution(T=T, k=k)
    p_shot = w.probability(dist)
    floor = 1.0 / reps
    certified = bool(p_shot >= floor - 1e-12)

    def hit(outcomes: np.ndarray) -> np.ndarray:
        return np.array(
            [
                i < dim and len(oracle_neighbors(inst, labels[i])) == 2 and labels[i] != inst.entrance
                for i in outcomes.tolist()
            ],
            dtype=bool,
        )

    w = replace(w, rows=w.decomposition.eigenvectors)
    used, outcome, elapsed = _first_hits(w, dist, rng_stream(rng_seed, 11), 1, reps, hit)
    success = bool(outcome[0] >= 0)
    return TraversalRecord(
        two_n=two_n,
        T=T,
        k=k,
        max_repetitions=reps,
        success=success,
        repetitions_used=int(used[0]),
        outcome=labels[outcome[0]] if success else "",
        per_shot_probability=p_shot,
        per_shot_floor=floor,
        certified=certified,
        total_evolved_time=float(elapsed[0]),
        time_budget=float(reps) * k * T,
        rng_seed=rng_seed,
    )


def traversal_success_stats(two_n: int, rng_seed: int, runs: int, w: walk.SpectralWalk) -> dict:
    """Monte Carlo success statistics for the column-mode traversal on w, the
    column walk of column_walk(two_n).

    Each run repeats the walk until its first exit hit, within
    max_repetitions; all runs draw their shots together, one round at a
    time, measuring only the exit column. That costs about runs / p_shot
    shots, returned as "shots"; deterministic for a fixed seed. The dict
    also carries the schedule (T, k, max_repetitions) and its per-shot floor,
    which is two_n's, so a SpectralWalk w of any other dimension is rejected.
    """
    if runs < 1:
        raise ValidationError(f"runs must be >= 1, got {runs}")
    if isinstance(w, walk.SpectralWalk) and w.energies.shape[0] != two_n:
        raise ValidationError(f"walk dimension {w.energies.shape[0]} != schedule size two_n = {two_n}")
    T, k, reps = default_schedule(two_n)
    dist = TimeDistribution(T=T, k=k)
    used, outcome, _ = _first_hits(w, dist, rng_stream(rng_seed, 13), runs, reps, _exit_column_hit)
    return {
        "runs": int(runs),
        "success_fraction": float(np.mean(outcome >= 0)),
        "mean_repetitions": float(used.mean()),
        "shots": int(used.sum()),
        "T": float(T),
        "k": int(k),
        "max_repetitions": int(reps),
        "per_shot_floor": 1.0 / reps,
    }

