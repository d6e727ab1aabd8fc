import dataclasses
import math
import sys
import tracemalloc
from collections import deque

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal
from scipy.optimize import brentq

from ctqw import gluedtrees, walk
from ctqw.errors import InconsistencyError, InvalidLabelError, ValidationError
from ctqw.rng import rng_stream
from ctqw.walk import TimeDistribution

from oracles import first_hits_by_round, run_traversal

SQRT2 = math.sqrt(2.0)


def band(rep):
    """The band states of a MomentaReport, ascending in p: (p, branch, energy, entrance amplitude)."""
    h = (rep.two_n - rep.p.shape[0]) // 2
    inner = slice(h, rep.two_n - h)
    return rep.p[::-1], rep.branch[::-1], rep.energies[inner][::-1], rep.entrance[inner][::-1]


# ---------------------------------------------------------------------------
# column-space generator


def test_column_hamiltonian_entries():
    h = gluedtrees.column_hamiltonian(8)
    assert h.shape == (8, 8)
    assert h[3, 4] == pytest.approx(SQRT2)  # middle bond
    assert h[0, 1] == pytest.approx(1.0)
    assert h[0, 2] == 0.0
    assert np.all(np.diag(h) == 0.0)
    assert np.array_equal(h, h.T)


def test_column_hamiltonian_rejects_bad_sizes():
    with pytest.raises(ValidationError):
        gluedtrees.column_hamiltonian(7)
    with pytest.raises(ValidationError):
        gluedtrees.column_hamiltonian(0)


# ---------------------------------------------------------------------------
# momentum solutions


def test_column_walk_energies_exactly_paired():
    for two_n in (8, 64, 512):
        w = gluedtrees.column_walk(two_n)
        e = gluedtrees.solve_momenta(two_n).energies
        assert np.array_equal(e, -e[::-1])
        dense = np.linalg.eigvalsh(gluedtrees.column_hamiltonian(two_n))
        assert np.max(np.abs(e - dense)) <= 1e-14 * (dense[-1] - dense[0])
        # the walk keeps, and the sampler evaluates one phase per, each pair the start
        # reaches: every pair but, at 2n = 512, the hyperbolic one, whose start
        # amplitude is about 1e-39
        assert w.dim == two_n
        assert np.array_equal(w.energies, e[1:-1] if two_n == 512 else e)
        assert w.mc_phases == two_n // 2 - (two_n == 512)


@pytest.mark.parametrize("two_n", [8, 16, 64, 512, 1024])
def test_column_walk_matches_the_dense_walk(two_n):
    # the closed-form walk against the dense walk of the column generator
    w = gluedtrees.column_walk(two_n)
    assert w.decomposition is None
    dense = walk.spectral_walk(
        gluedtrees.column_hamiltonian(two_n), walk.basis_state(two_n, 0), walk.basis_state(two_n, two_n - 1)
    )
    e = dense.energies
    # the dense walk over the energies its start reaches, as column_walk keeps them
    reach = walk.reduced_walk(dense.energies, dense.c, dense.rows)
    assert np.max(np.abs(w.energies - reach.energies)) <= 1e-14 * (e[-1] - e[0])
    assert np.max(np.abs(w.rows * w.c - reach.rows * reach.c)) <= 1e-14
    T, k, _ = gluedtrees.default_schedule(two_n)
    for dist in (TimeDistribution(T=T, k=k), TimeDistribution(T=T, k=1)):
        assert w.probability(dist) == pytest.approx(dense.probability(dist), rel=1e-13, abs=0.0)
    # the band subset reads the same states off either walk
    sub, sub_dense = gluedtrees.subspace_S(w), gluedtrees.subspace_S(reach)
    assert sub.group_indices == sub_dense.group_indices
    assert np.max(np.abs(np.subtract(sub.momenta, sub_dense.momenta))) <= 1e-14
    assert sub.alpha4_mass == pytest.approx(sub_dense.alpha4_mass, rel=1e-13, abs=0.0)


def test_column_walk_rejects_a_scaled_normalization(monkeypatch):
    # a band normalization off by 1e-9 breaks completeness: sum c^2 = 1 fails
    alpha_sq = gluedtrees.alpha_sq
    monkeypatch.setattr(gluedtrees, "alpha_sq", lambda two_n, p: alpha_sq(two_n, p) * (1.0 + 1e-9))
    with pytest.raises(InconsistencyError, match=r"column walk certificate sum c\^2 - 1"):
        gluedtrees.column_walk(64)


def test_solve_momenta_counts_and_residuals():
    rep = gluedtrees.solve_momenta(8)
    assert rep.p.shape[0] == 6
    assert np.sum(np.abs(rep.energies) > 2.0) == 2
    assert rep.max_residual <= 1e-10
    assert gluedtrees.column_spectrum_check(8) <= 1e-9


def test_smallest_size_has_no_hyperbolic_pair():
    # at two_n = 4 all four eigenvalues lie inside the band, so the sine
    # family alone fills the spectrum
    rep = gluedtrees.solve_momenta(4)
    assert rep.p.shape[0] == 4
    assert rep.hyperbolic_q is None
    assert np.all(np.abs(rep.energies) < 2.0)


def test_spectrum_matches_dense_across_sizes():
    for two_n in (4, 8, 12, 16, 24, 32):
        assert gluedtrees.column_spectrum_check(two_n) <= 1e-9


def test_momenta_one_per_interlacing_bracket():
    # each root sits alone between consecutive poles pi j/n of the ratio and
    # agrees with brentq on the pole-free form over that bracket
    for two_n in (4, 6, 8, 32, 128, 512):
        n = two_n // 2
        rep = gluedtrees.solve_momenta(two_n)
        p_band, branch, _, _ = band(rep)
        for sign in (+1, -1):
            sols = p_band[branch == sign].tolist()
            f = lambda p, s=sign: math.sin((n + 1) * p) - s * SQRT2 * math.sin(n * p)
            brackets = [math.floor(p * n / math.pi) for p in sols]
            assert brackets == sorted(set(brackets))
            for p, j in zip(sols, brackets):
                lo, hi = math.pi * j / n, math.pi * (j + 1) / n
                assert lo < p < hi
                # ends nudged off the poles, where the pole-free form vanishes at 0 and pi
                shrink = 1e-6 * (hi - lo)
                root = brentq(f, lo + shrink, hi - shrink, xtol=1e-15, rtol=8.9e-16)
                assert abs(p - root) <= 1e-13


def test_hyperbolic_root_matches_brentq_and_large_n_limit():
    for two_n in (6, 8, 64, 256):
        n = two_n // 2
        g = lambda q: math.sinh((n + 1) * q) - SQRT2 * math.sinh(n * q)
        assert abs(gluedtrees.solve_momenta(two_n).hyperbolic_q - brentq(g, 1e-12, 1.0, xtol=1e-15)) <= 1e-13
    # sinh((n+1)q) overflows at q = 1 once n > 709; the coth form does not,
    # and coth(nq) -> 1 leaves cosh q + sinh q = e^q = sqrt(2)
    assert gluedtrees.solve_momenta(1024).hyperbolic_q == pytest.approx(0.5 * math.log(2.0), abs=1e-15)


def test_alpha_sq_closed_form_matches_sum():
    for two_n in (4, 6, 8, 16, 64, 256, 1024):
        n = two_n // 2
        rep = gluedtrees.solve_momenta(two_n)
        for p in rep.p.tolist():
            direct = 1.0 / (2.0 * sum(math.sin(p * j) ** 2 for j in range(1, n + 1)))
            assert gluedtrees.alpha_sq(two_n, p) == pytest.approx(direct, rel=1e-13, abs=0.0)


def test_momenta_certified_at_two_n_550():
    rep = gluedtrees.solve_momenta(550)
    assert rep.max_residual <= gluedtrees.MOMENTUM_RESIDUAL_TOL
    assert rep.p.shape[0] + np.sum(np.abs(rep.energies) > 2.0) == 550
    assert gluedtrees.column_spectrum_check(550) <= gluedtrees.SPECTRUM_ATOL


def test_momenta_certified_where_the_ratio_residual_failed():
    # at these sizes the ratio residual |sin((n+1)p)/sin(np) -+ sqrt2| of some
    # correct roots exceeds 1e-10, while their Newton step stays near 1e-15
    for two_n in (952, 1092):
        assert gluedtrees.column_spectrum_check(two_n) <= gluedtrees.SPECTRUM_ATOL
    rep = gluedtrees.solve_momenta(2048)
    assert rep.max_residual <= gluedtrees.MOMENTUM_RESIDUAL_TOL
    off = np.ones(2047)
    off[1023] = SQRT2
    assert np.max(np.abs(rep.energies - eigvalsh_tridiagonal(np.zeros(2048), off))) <= 1e-12


def test_shifted_momenta_fail_the_newton_certificate(monkeypatch):
    bisect = gluedtrees._bisect

    def shifted(f, lo, hi):
        roots, resid = bisect(f, lo, hi)
        return roots + 1e-9, resid

    monkeypatch.setattr(gluedtrees, "_bisect", shifted)
    with pytest.raises(InconsistencyError, match="momentum Newton step"):
        gluedtrees.solve_momenta(64)


def test_solve_momenta_memory_is_linear():
    tracemalloc.start()
    try:
        gluedtrees.solve_momenta(1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_lowest_momentum_asymptote():
    # p_1 = pi/n - pi/((1+sqrt(2)) n^2) + O(1/n^3), measured constant ~0.54
    for two_n in (8, 16, 24, 32):
        n = two_n // 2
        p_band, branch, _, _ = band(gluedtrees.solve_momenta(two_n))
        p1 = p_band[branch < 0][0]
        asym = math.pi / n - math.pi / ((1.0 + SQRT2) * n * n)
        assert abs(p1 - asym) <= 1.0 / n**3


def test_gap_above_lowest_momentum():
    # the spacing to the next solution exceeds the 1/n^2 coefficient of the
    # asymptote, so the lowest band state is spectrally isolated at that scale
    for two_n in (8, 16, 32):
        n = two_n // 2
        p_band, branch, _, _ = band(gluedtrees.solve_momenta(two_n))
        merged = sorted(p_band.tolist())
        assert merged[0] == p_band[branch < 0][0]
        floor = math.pi / ((1.0 + SQRT2) * n * n)
        assert merged[1] - merged[0] > floor


def test_branches_interleave():
    p_band, branch, _, _ = band(gluedtrees.solve_momenta(20))
    merged = branch[np.argsort(p_band)].tolist()
    for a, b in zip(merged, merged[1:]):
        assert a != b


def test_eigenstate_closed_form():
    two_n = 12
    h = gluedtrees.column_hamiltonian(two_n)
    evals, evecs = np.linalg.eigh(h)
    for p, _, energy, entrance in zip(*band(gluedtrees.solve_momenta(two_n))):
        # the dense eigenvector of the same energy
        i = int(np.argmin(np.abs(evals - energy)))
        v = evecs[:, i]
        assert np.linalg.norm(h @ v - energy * v) <= 1e-9
        # entrance-column amplitude is alpha_p sin(p)
        assert abs(v[0]) == pytest.approx(entrance, abs=1e-12)


def test_band_amplitude_floor():
    for two_n in (8, 12, 16, 24):
        n = two_n // 2
        p_band = gluedtrees.solve_momenta(two_n).p
        assert np.all(np.sqrt(gluedtrees.alpha_sq(two_n, p_band)) > 1.0 / math.sqrt(2 * n))


# ---------------------------------------------------------------------------
# band subspace report


def test_subspace_report_16():
    rep = gluedtrees.subspace_S(gluedtrees.column_walk(16))
    assert len(rep.group_indices) == 5
    assert rep.checks["delta_e_s_floor_ok"]
    assert rep.checks["within_gap_ok"]
    assert rep.checks["cross_gap_ok"]
    assert rep.checks["alpha4_mass_ok"]
    assert rep.checks["alpha_floor_ok"]


def test_subspace_gap_checks_across_sizes():
    for two_n in (8, 12, 16, 24):
        n = two_n // 2
        rep = gluedtrees.subspace_S(gluedtrees.column_walk(two_n))
        assert all(rep.checks[k] for k in ("delta_e_s_floor_ok", "within_gap_ok", "cross_gap_ok"))
        assert rep.delta_e_s >= math.pi / (16 * n)
        assert rep.alpha4_mass >= 1.0 / (4 * n)
        # sines of kept momenta: bounded away from 0, never reaching 1;
        # at finite n the band-edge values dip below 1/sqrt(2), so only the
        # softer floor is asserted
        assert min(rep.sines) > 0.6
        assert max(rep.sines) < 1.0


def test_subspace_flags_a_cross_gap_or_an_alpha_below_its_floor():
    # a walk whose cross gap, and then one whose smallest alpha, lies between half its
    # floor and the floor fails that check alone; the real column walk clears both
    two_n, n = 64, 32
    w = gluedtrees.column_walk(two_n)
    real = gluedtrees.subspace_S(w)
    assert real.checks["cross_gap_ok"] and real.checks["alpha_floor_ok"]
    members = np.flatnonzero(np.isin(w.partition.group_of, real.group_indices))
    # the energy just above the subset, moved to 0.8 pi/(12n) above its top member
    energies = w.energies.copy()
    energies[members[-1] + 1] = energies[members[-1]] + 0.8 * math.pi / (12 * n)
    near = gluedtrees.subspace_S(dataclasses.replace(w, energies=energies))
    assert math.pi / (24 * n) < near.cross_subset_gap < math.pi / (12 * n)
    assert near.checks == {**real.checks, "cross_gap_ok": False}
    # the middle member's start amplitude, scaled to alpha = 0.75 / sqrt(2n)
    c, mid = w.c.copy(), members[members.shape[0] // 2]
    sines = np.sin(np.arccos(w.energies[members] / 2))
    c[mid] *= 0.75 / math.sqrt(2 * n) / (abs(c[mid]) / sines[members.shape[0] // 2])
    alpha = np.abs(c[members]) / sines
    assert 0.5 / math.sqrt(2 * n) < alpha.min() < 1.0 / math.sqrt(2 * n)
    low = gluedtrees.subspace_S(dataclasses.replace(w, c=c))
    assert low.checks == {**real.checks, "alpha_floor_ok": False}


def test_subspace_clears_a_within_gap_just_above_its_floor():
    # the within-subset floor is pi/(16n): a walk whose within gap lies between
    # pi/(16n) and twice that clears every check, as the real column walk does
    two_n, n = 64, 32
    w = gluedtrees.column_walk(two_n)
    real = gluedtrees.subspace_S(w)
    members = np.flatnonzero(np.isin(w.partition.group_of, real.group_indices))
    # members alternate with the other branch: the energy between the two middle
    # members dropped, and the upper one moved to 1.5 pi/(16n) above the lower
    lo, hi = members[members.shape[0] // 2 - 1 : members.shape[0] // 2 + 1]
    assert hi == lo + 2
    keep = np.arange(two_n) != lo + 1
    energies = w.energies.copy()
    energies[hi] = energies[lo] + 1.5 * math.pi / (16 * n)
    near = gluedtrees.subspace_S(dataclasses.replace(w, energies=energies[keep], c=w.c[keep], rows=w.rows[:, keep]))
    assert near.two_n == two_n and near.ells == real.ells
    assert math.pi / (16 * n) < near.within_subset_gap < math.pi / (8 * n)
    assert near.delta_e_s == near.within_subset_gap
    assert near.checks == real.checks and all(near.checks.values())


def test_subspace_gaps_match_all_pairs():
    # brute-force oracle: every pair within the band, and every band member
    # against every other eigenspace group
    for two_n in (8, 12, 16, 24, 32, 64):
        w = gluedtrees.column_walk(two_n)
        rep = gluedtrees.subspace_S(w)
        energies = w.partition.energies.tolist()
        band = set(rep.group_indices)
        others = set(range(len(energies))) - band
        within = min(abs(energies[a] - energies[b]) for a in band for b in band if a != b)
        cross = min(abs(energies[a] - energies[b]) for a in band for b in others)
        assert rep.within_subset_gap == within
        assert rep.cross_subset_gap == cross
        assert rep.delta_e_s == min(within, cross)


def test_subspace_memory_is_linear():
    w = gluedtrees.column_walk(8192)
    tracemalloc.start()
    try:
        gluedtrees.subspace_S(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # an all-pairs cross gap alone would hold 2048 x 6144 doubles (96 MiB)
    assert peak <= 4 * 2**20


# ---------------------------------------------------------------------------
# instance generation and the oracle


def test_generate_instance_shapes():
    inst = gluedtrees.generate_instance(2, seed=5)
    assert inst.n_vertices == 14
    degs = sorted(len(v) for v in inst.adjacency.values())
    assert degs.count(2) == 2 and degs.count(3) == 12
    assert gluedtrees.generate_instance(4, seed=5).n_vertices == 62


def test_generate_instance_deterministic():
    a = gluedtrees.generate_instance(3, seed=11)
    b = gluedtrees.generate_instance(3, seed=11)
    assert a == b
    c = gluedtrees.generate_instance(3, seed=12)
    assert c.adjacency != a.adjacency


def bfs_layers(inst):
    layers = {inst.entrance: 0}
    q = deque([inst.entrance])
    while q:
        u = q.popleft()
        for v in gluedtrees.oracle_neighbors(inst, u):
            if v not in layers:
                layers[v] = layers[u] + 1
                q.append(v)
    return layers


def test_leaf_cycle_size():
    d = 2
    inst = gluedtrees.generate_instance(d, seed=7)
    layers = bfs_layers(inst)
    leaves = [v for v, l in layers.items() if l == d]
    assert len(leaves) == 2**d
    # each leaf sees exactly 2 next-layer neighbors (the welded cycle)
    for leaf in leaves:
        nxt = [v for v in gluedtrees.oracle_neighbors(inst, leaf) if layers[v] == d + 1]
        assert len(nxt) == 2


def test_oracle_degrees_and_unknown_label():
    inst = gluedtrees.generate_instance(2, seed=3)
    assert len(gluedtrees.oracle_neighbors(inst, inst.entrance)) == 2
    layers = bfs_layers(inst)
    leaf = next(v for v, l in layers.items() if l == 2)
    assert len(gluedtrees.oracle_neighbors(inst, leaf)) == 3
    with pytest.raises(InvalidLabelError):
        gluedtrees.oracle_neighbors(inst, "no-such-label")


class SpyDict(dict):
    """Adjacency wrapper recording who performs label lookups."""

    callers: list

    def __getitem__(self, key):
        self.callers.append(sys._getframe(1).f_code.co_name)
        return dict.__getitem__(self, key)


def test_traversal_touches_adjacency_only_through_oracle():
    inst = gluedtrees.generate_instance(2, seed=21)
    spy = SpyDict(inst.adjacency)
    spy.callers = []
    spied = dataclasses.replace(inst, adjacency=spy)
    rec = run_traversal(spied, rng_seed=4)
    assert spy.callers  # lookups did happen
    assert set(spy.callers) == {"oracle_neighbors"}


# ---------------------------------------------------------------------------
# full-vs-column equivalence


def test_full_vs_column_equivalence_depth2():
    inst = gluedtrees.generate_instance(2, seed=1)
    rec = gluedtrees.full_vs_column_equivalence(inst, T=37.0, k=2, trials=3)
    assert rec.passes
    assert rec.difference <= 1e-8
    assert rec.two_n == 6


def test_full_marginal_independent_of_labels():
    # two instances with different labels and shuffles are the same abstract
    # graph; the exit-arrival marginal cannot depend on the dressing
    a = gluedtrees.generate_instance(2, seed=1)
    b = gluedtrees.generate_instance(2, seed=2)
    ra = gluedtrees.full_vs_column_equivalence(a, T=13.0)
    rb = gluedtrees.full_vs_column_equivalence(b, T=13.0)
    assert ra.p_full == pytest.approx(rb.p_full, abs=1e-10)
    assert ra.p_column == pytest.approx(rb.p_column, abs=1e-12)


# ---------------------------------------------------------------------------
# traversal experiments


def test_run_traversal_column_certified():
    # the full graph's exit probability is the column-space value at 2n = 12
    rec = run_traversal(gluedtrees.generate_instance(5, seed=12), rng_seed=2)
    n = 6
    assert rec.two_n == 12
    assert rec.certified
    assert rec.per_shot_probability >= 1.0 / (4 * n) - 1.0 / (5 * n)
    assert rec.per_shot_floor == pytest.approx(1.0 / (20 * n))
    assert rec.repetitions_used <= rec.max_repetitions == 20 * n
    assert rec.total_evolved_time <= rec.time_budget + 1e-9


def test_run_traversal_full_mode_success():
    inst = gluedtrees.generate_instance(2, seed=33)
    rec = run_traversal(inst, rng_seed=8)
    assert rec.two_n == 6
    if rec.success:
        # the reported outcome is a degree-2 vertex distinct from the
        # entrance: exactly the exit
        assert rec.outcome == inst.exit


def test_traversal_success_stats():
    stats = gluedtrees.traversal_success_stats(12, rng_seed=1000, runs=200, w=gluedtrees.column_walk(12))
    assert stats["runs"] == 200
    assert stats["success_fraction"] >= 0.5
    assert 1.0 <= stats["mean_repetitions"] <= stats["max_repetitions"]
    assert stats["k"] == 5


def test_traversal_shots_stay_pinned_at_seed_7():
    # shots to each run's first exit hit, as every sampler since the complex-exponential one drew them
    shots = [gluedtrees.traversal_success_stats(two_n, 7, 200, gluedtrees.column_walk(two_n))["shots"] for two_n in (32, 64, 96, 128)]
    assert shots == [3924, 8800, 12429, 18092]


def test_traversal_success_stats_rejects_a_walk_of_another_size():
    with pytest.raises(ValidationError, match="walk dimension 64 != schedule size two_n = 8"):
        gluedtrees.traversal_success_stats(8, rng_seed=1, runs=10, w=gluedtrees.column_walk(64))


def test_traversal_success_stats_refuses_a_fractional_run_count():
    with pytest.raises(ValidationError, match="^runs must be an integer >= 1, got 2.5$"):
        gluedtrees.traversal_success_stats(8, 1, 2.5, gluedtrees.column_walk(8))


def test_traversal_success_stats_memory_is_chunked():
    # 200 runs x 1280 repetitions: holding every shot's 128 amplitudes
    # would take over 500 MB
    tracemalloc.start()
    try:
        stats = gluedtrees.traversal_success_stats(128, rng_seed=1, runs=200, w=gluedtrees.column_walk(128))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stats["runs"] == 200
    assert stats["max_repetitions"] == 1280
    assert peak < 64 * 2**20


class ScriptedWalk:
    """Stands in for the column walk: run i hits the exit first at round
    hit_rounds[i] (None: never), and every other shot misses."""

    def __init__(self, hit_rounds):
        self.pending = list(enumerate(hit_rounds))
        self.round = 0

    def sample(self, dist, rng, shots):
        self.round += 1
        assert shots == len(self.pending) > 0
        hit = np.array([r == self.round for _, r in self.pending])
        self.pending = [run for run, h in zip(self.pending, hit) if not h]
        # round r's shots all take time r
        return np.full(shots, float(self.round)), hit

    def probability(self, dist):
        # no per-shot probability is scripted; the round-by-round oracle reads none
        return math.nan


def test_traversal_success_stats_stops_each_run_at_first_hit(monkeypatch):
    # two_n = 4: max_repetitions = 40; one sampler call per round
    monkeypatch.setattr(gluedtrees, "_first_hits", first_hits_by_round)
    scripted = ScriptedWalk([1, 40, None, 7])
    stats = gluedtrees.traversal_success_stats(4, rng_seed=1, runs=4, w=scripted)
    assert stats["max_repetitions"] == 40
    assert stats["success_fraction"] == 0.75  # a hit at the last repetition still counts
    assert stats["mean_repetitions"] == (1 + 40 + 40 + 7) / 4  # a miss costs the budget
    assert stats["shots"] == 1 + 40 + 40 + 7
    assert scripted.round == 40


def test_traversal_success_stats_stops_when_every_run_hit(monkeypatch):
    monkeypatch.setattr(gluedtrees, "_first_hits", first_hits_by_round)
    scripted = ScriptedWalk([3, 1, 2])
    stats = gluedtrees.traversal_success_stats(4, rng_seed=1, runs=3, w=scripted)
    assert stats["success_fraction"] == 1.0
    assert stats["shots"] == 6
    assert scripted.round == 3  # no round is drawn once every run has hit


def test_first_hits_counts_the_shots_to_each_first_hit():
    used, hit = first_hits_by_round(ScriptedWalk([2, None, 5]), TimeDistribution(T=1.0, k=1), None, 3, 6)
    assert used.tolist() == [2, 6, 5]
    assert hit.tolist() == [True, False, True]


@pytest.mark.parametrize("two_n", [8, 32, 128])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_first_hits_equal_the_round_by_round_loop_bitwise(two_n, seed):
    w = gluedtrees.column_walk(two_n)
    T, k, reps = gluedtrees.default_schedule(two_n)
    dist = TimeDistribution(T=T, k=k)
    p_shot = w.probability(dist)
    for runs in (1, 7, 200, walk.SAMPLE_CHUNK + 1):
        used, hit = gluedtrees._first_hits(w, dist, rng_stream(seed, 13), runs, reps, p_shot)
        want_used, want_hit = first_hits_by_round(w, dist, rng_stream(seed, 13), runs, reps)
        assert np.array_equal(used, want_used) and np.array_equal(hit, want_hit)


def truncated_geometric(p, cap):
    """Mean and variance of min(G, cap), G geometric with success p."""
    q = 1.0 - p
    mean = (1.0 - q**cap) / p
    second = sum((2 * r - 1) * q ** (r - 1) for r in range(1, cap + 1))
    return mean, second - mean * mean


def test_traversal_success_stats_first_hit_law():
    runs = 400
    for two_n in (16, 32):
        T, k, reps = gluedtrees.default_schedule(two_n)
        assert reps == 10 * two_n
        w = gluedtrees.column_walk(two_n)
        p = w.probability(TimeDistribution(T=T, k=k))
        mean, var = truncated_geometric(p, reps)
        for seed in (1, 2, 3):
            stats = gluedtrees.traversal_success_stats(two_n, rng_seed=seed, runs=runs, w=w)
            assert abs(stats["mean_repetitions"] - mean) <= 4.0 * math.sqrt(var / runs)
            assert stats["shots"] == round(runs * stats["mean_repetitions"])


def test_run_traversal_stops_at_first_hit():
    inst = gluedtrees.generate_instance(5, seed=12)
    for seed in range(5):
        rec = run_traversal(inst, rng_seed=seed)
        assert rec.success
        assert rec.outcome == inst.exit
        # every shot's time is a sum of k uniforms on [0, T]
        assert 0.0 < rec.total_evolved_time <= rec.repetitions_used * rec.k * rec.T
        assert rec.repetitions_used < rec.max_repetitions


def test_certified_hitting_times_smoke():
    out = gluedtrees.certified_hitting_times(gluedtrees.column_walk(8))
    assert out["tau_l1"] > out["tau_l2"] > 0
    assert out["k_l3"] == 5
    assert out["p_inf"] > 0
    assert out["delta_e_min"] <= out["delta_e_s"]


def test_certified_hitting_times_certifies_each_route_once(monkeypatch):
    calls = []
    factors = walk._phase_factors
    monkeypatch.setattr(walk, "_phase_factors", lambda *args: calls.append(args[0]) or factors(*args))
    w = gluedtrees.column_walk(32)
    out = gluedtrees.certified_hitting_times(w)
    # one exact average per route, at its argmin T; the grids read floors only
    assert calls == [
        TimeDistribution(T=out["T_l1"], k=1),
        TimeDistribution(T=out["T_l2"], k=1),
        TimeDistribution(T=out["T_l3"], k=out["k_l3"]),
    ]
    assert min(out[f"slack_l{i}"] for i in (1, 2, 3)) >= 0.0
    assert w.limiting_probability == out["p_inf"]


def per_point_minimum(grid, k, floor_at):
    """Oracle: the grid minimum of k T / floor(T) one scalar floor at a time,
    skipping nonpositive floors; the strict < keeps the first minimum."""
    tau = best_t = None
    for t in grid:
        val = floor_at(float(t))
        if val <= 0.0:
            continue
        cand = k * float(t) / val
        if tau is None or cand < tau:
            tau, best_t = cand, float(t)
    return tau, best_t


@pytest.mark.parametrize("two_n", [8, 32, 128])
def test_certified_routes_equal_the_per_point_minimum_bitwise(two_n):
    w = gluedtrees.column_walk(two_n)
    out = gluedtrees.certified_hitting_times(w)
    sub, k3, g = out["subspace"], out["k_l3"], out["group_l2"]
    p_inf, dmin, star, d_s = w.limiting_probability, w.partition.delta_e_min, out["delta_e_star_l2"], sub.delta_e_s
    # the three floors in Python floats, the subset overlap summed in ascending group order
    overlap_s = sum(w.overlaps[i] for i in sorted(sub.group_indices))
    t1, t3, points = 2.0 / (p_inf * dmin), 2.0 / d_s, gluedtrees.CERTIFY_GRID_POINTS
    routes = {
        1: (np.geomspace(1.5 * t1, 48.0 * t1, points), 1, lambda t: p_inf - 2.0 / (t * dmin)),
        2: (np.geomspace(5.0 / star, 30.0 / star, points), 1, lambda t: w.overlaps[g] * (1.0 - 4.0 / (t * star))),
        3: (np.geomspace(t3, 64.0 * t3, points + 8), k3, lambda t: overlap_s - math.sqrt(3.0) * (2.0 / (t * d_s)) ** k3),
    }
    for i, route in routes.items():
        assert (out[f"tau_l{i}"], out[f"T_l{i}"]) == per_point_minimum(*route)
