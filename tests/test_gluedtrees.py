import dataclasses
import math
import sys
import tracemalloc
from collections import deque

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal
from scipy.optimize import brentq

from ctqw import gluedtrees, spectral, walk
from ctqw.errors import InconsistencyError, InvalidLabelError, ValidationError
from ctqw.walk import TimeDistribution

SQRT2 = math.sqrt(2.0)


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


def test_solve_momenta_counts_and_residuals():
    rep = gluedtrees.solve_momenta(8)
    assert len(rep.minus) + len(rep.plus) == 6
    assert len(rep.hyperbolic_energies) == 2
    assert rep.max_residual <= 1e-10
    assert gluedtrees.column_spectrum_check(8) <= 1e-9


def test_smallest_size_has_no_hyperbolic_pair():
    # at two_n = 4 all four eigenvalues lie inside the band, so the sine
    # family alone fills the spectrum
    rep = gluedtrees.solve_momenta(4)
    assert len(rep.minus) + len(rep.plus) == 4
    assert rep.hyperbolic_q is None
    assert rep.hyperbolic_energies == ()
    assert gluedtrees.hyperbolic_overlaps(4) == ()


def test_spectrum_matches_dense_across_sizes():
    for two_n in (4, 8, 12, 16, 24, 32):
        assert gluedtrees.column_spectrum_check(two_n) <= 1e-9


def test_momenta_one_per_interlacing_bracket():
    # each root sits alone between consecutive poles pi j/n of the ratio and
    # agrees with brentq on the pole-free form over that bracket
    for two_n in (4, 6, 8, 32, 128, 512):
        n = two_n // 2
        rep = gluedtrees.solve_momenta(two_n)
        for sign, sols in ((+1, rep.plus), (-1, rep.minus)):
            f = lambda p, s=sign: math.sin((n + 1) * p) - s * SQRT2 * math.sin(n * p)
            brackets = [math.floor(sol.p * n / math.pi) for sol in sols]
            assert brackets == sorted(set(brackets))
            for sol, j in zip(sols, brackets):
                lo, hi = math.pi * j / n, math.pi * (j + 1) / n
                assert lo < sol.p < hi
                # ends nudged off the poles, where the pole-free form vanishes at 0 and pi
                shrink = 1e-6 * (hi - lo)
                root = brentq(f, lo + shrink, hi - shrink, xtol=1e-15, rtol=8.9e-16)
                assert abs(sol.p - root) <= 1e-13


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
        for sol in rep.minus + rep.plus:
            direct = 1.0 / (2.0 * sum(math.sin(sol.p * j) ** 2 for j in range(1, n + 1)))
            assert gluedtrees.alpha_sq(two_n, sol.p) == pytest.approx(direct, rel=1e-13, abs=0.0)


def test_momenta_certified_at_two_n_550():
    rep = gluedtrees.solve_momenta(550)
    assert rep.max_residual <= gluedtrees.MOMENTUM_RESIDUAL_TOL
    assert len(rep.minus) + len(rep.plus) + len(rep.hyperbolic_energies) == 550
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
    assert np.max(np.abs(rep.all_energies - eigvalsh_tridiagonal(np.zeros(2048), off))) <= 1e-12


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
        p1 = gluedtrees.solve_momenta(two_n).minus[0].p
        asym = math.pi / n - math.pi / ((1.0 + SQRT2) * n * n)
        assert abs(p1 - asym) <= 1.0 / n**3


def test_gap_above_lowest_momentum():
    # the spacing to the next solution exceeds the 1/n^2 coefficient of the
    # asymptote, so the lowest band state is spectrally isolated at that scale
    for two_n in (8, 16, 32):
        n = two_n // 2
        rep = gluedtrees.solve_momenta(two_n)
        merged = sorted(s.p for s in rep.minus + rep.plus)
        assert merged[0] == rep.minus[0].p
        floor = math.pi / ((1.0 + SQRT2) * n * n)
        assert merged[1] - merged[0] > floor


def test_branches_interleave():
    rep = gluedtrees.solve_momenta(20)
    merged = sorted(rep.minus + rep.plus, key=lambda s: s.p)
    for a, b in zip(merged, merged[1:]):
        assert a.branch != b.branch


def test_eigenstate_closed_form():
    two_n = 12
    h = gluedtrees.column_hamiltonian(two_n)
    evals, evecs = np.linalg.eigh(h)
    rep = gluedtrees.solve_momenta(two_n)
    for sol in rep.minus + rep.plus:
        v = gluedtrees.eigenstate_from_momentum(two_n, sol)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(h @ v - sol.energy * v) <= 1e-9
        # entrance-column amplitude is alpha_p sin(p)
        assert abs(v[0]) == pytest.approx(sol.alpha_p * math.sin(sol.p), abs=1e-12)
        # phase-match against the dense eigenvector of the same energy
        i = int(np.argmin(np.abs(evals - sol.energy)))
        w = evecs[:, i]
        sign = np.sign(np.dot(w, v))
        assert np.max(np.abs(w * sign - v)) <= 1e-8


def test_band_amplitude_floor():
    for two_n in (8, 12, 16, 24):
        n = two_n // 2
        rep = gluedtrees.solve_momenta(two_n)
        for sol in rep.minus + rep.plus:
            assert sol.alpha_p > 1.0 / math.sqrt(2 * n)


def test_hyperbolic_overlap_decay():
    # end-to-end overlap through an out-of-band state decays geometrically;
    # per unit n the decay factor stays comfortably above 1.5
    prev = None
    for two_n in (8, 12, 16, 20, 24):
        pair = gluedtrees.hyperbolic_overlaps(two_n)
        assert len(pair) == 2
        assert pair[0] == pytest.approx(pair[1], rel=1e-9)
        if prev is not None:
            # sizes step by two_n = 4, i.e. n by 2
            factor = (prev / pair[0]) ** 0.5
            assert factor >= 1.5
        prev = pair[0]


# ---------------------------------------------------------------------------
# band subspace report


def test_subspace_report_16():
    rep = gluedtrees.subspace_S(16)
    assert len(rep.group_indices) == 5
    assert rep.checks["delta_e_s_floor_ok"]
    assert rep.checks["within_gap_ok"]
    assert rep.checks["cross_gap_ok"]
    assert rep.checks["alpha4_mass_ok"]
    assert rep.checks["alpha_floor_ok"]


def test_subspace_gap_checks_across_sizes():
    for two_n in (8, 12, 16, 24):
        n = two_n // 2
        rep = gluedtrees.subspace_S(two_n)
        assert all(rep.checks[k] for k in ("delta_e_s_floor_ok", "within_gap_ok", "cross_gap_ok"))
        assert rep.delta_e_s >= math.pi / (16 * n)
        assert rep.alpha4_mass >= 1.0 / (4 * n)
        # sines of kept momenta: bounded away from 0, never reaching 1;
        # at finite n the band-edge values dip below 1/sqrt(2), so only the
        # softer floor is asserted
        assert rep.checks["min_sine"] > 0.6
        assert rep.checks["max_sine"] < 1.0


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


def test_instance_json_round_trip():
    inst = gluedtrees.generate_instance(3, seed=9)
    text = gluedtrees.instance_to_json(inst)
    back = gluedtrees.instance_from_json(text)
    assert back.adjacency == inst.adjacency
    assert back.entrance == inst.entrance and back.exit == inst.exit


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
    rec = gluedtrees.run_traversal(spied, rng_seed=4)
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
    rec = gluedtrees.run_traversal(gluedtrees.generate_instance(5, seed=12), rng_seed=2)
    n = 6
    assert rec.two_n == 12
    assert rec.certified
    assert rec.per_shot_probability >= 1.0 / (4 * n) - 1.0 / (5 * n)
    assert rec.per_shot_floor == pytest.approx(1.0 / (20 * n))
    assert rec.repetitions_used <= rec.max_repetitions == 20 * n
    assert rec.total_evolved_time <= rec.time_budget + 1e-9


def test_run_traversal_full_mode_success():
    inst = gluedtrees.generate_instance(2, seed=33)
    rec = gluedtrees.run_traversal(inst, rng_seed=8)
    assert rec.two_n == 6
    if rec.success:
        # the reported outcome is a degree-2 vertex distinct from the
        # entrance: exactly the exit
        assert rec.outcome == inst.exit


def test_traversal_success_stats():
    stats = gluedtrees.traversal_success_stats(12, rng_seed=1000, runs=200)
    assert stats["runs"] == 200
    assert stats["success_fraction"] >= 0.5
    assert 1.0 <= stats["mean_repetitions"] <= stats["max_repetitions"]
    assert stats["k"] == 5


def test_traversal_success_stats_memory_is_chunked():
    # 200 runs x 1280 repetitions: holding every shot's 128 amplitudes
    # would take over 500 MB
    tracemalloc.start()
    try:
        stats = gluedtrees.traversal_success_stats(128, rng_seed=1, runs=200)
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
        return np.full(shots, float(self.round)), np.where(hit, 0, 1)


def test_traversal_success_stats_stops_each_run_at_first_hit(monkeypatch):
    # two_n = 4: max_repetitions = 40
    scripted = ScriptedWalk([1, 40, None, 7])
    monkeypatch.setattr(gluedtrees, "_column_walk", lambda two_n: scripted)
    stats = gluedtrees.traversal_success_stats(4, rng_seed=1, runs=4)
    assert stats["max_repetitions"] == 40
    assert stats["success_fraction"] == 0.75  # a hit at the last repetition still counts
    assert stats["mean_repetitions"] == (1 + 40 + 40 + 7) / 4  # a miss costs the budget
    assert stats["shots"] == 1 + 40 + 40 + 7
    assert scripted.round == 40


def test_traversal_success_stats_stops_when_every_run_hit(monkeypatch):
    scripted = ScriptedWalk([3, 1, 2])
    monkeypatch.setattr(gluedtrees, "_column_walk", lambda two_n: scripted)
    stats = gluedtrees.traversal_success_stats(4, rng_seed=1, runs=3)
    assert stats["success_fraction"] == 1.0
    assert stats["shots"] == 6
    assert scripted.round == 3  # no round is drawn once every run has hit


def test_first_hits_sums_the_times_drawn():
    used, outcome, elapsed = gluedtrees._first_hits(
        ScriptedWalk([2, None, 5]), TimeDistribution(T=1.0, k=1), None, 3, 6, gluedtrees._exit_column_hit
    )
    assert used.tolist() == [2, 6, 5]
    assert outcome.tolist() == [0, -1, 0]
    assert elapsed.tolist() == [1 + 2, 21, 15]  # sum of 1..used


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
        p = gluedtrees._column_walk(two_n).probability(TimeDistribution(T=T, k=k))
        mean, var = truncated_geometric(p, reps)
        for seed in (1, 2, 3):
            stats = gluedtrees.traversal_success_stats(two_n, rng_seed=seed, runs=runs)
            assert abs(stats["mean_repetitions"] - mean) <= 4.0 * math.sqrt(var / runs)
            assert stats["shots"] == round(runs * stats["mean_repetitions"])


def test_run_traversal_stops_at_first_hit():
    inst = gluedtrees.generate_instance(5, seed=12)
    for seed in range(5):
        rec = gluedtrees.run_traversal(inst, rng_seed=seed)
        assert rec.success
        assert rec.outcome == inst.exit
        # every shot's time is a sum of k uniforms on [0, T]
        assert 0.0 < rec.total_evolved_time <= rec.repetitions_used * rec.k * rec.T
        assert rec.repetitions_used < rec.max_repetitions


def test_certified_hitting_times_smoke():
    out = gluedtrees.certified_hitting_times(8)
    assert out["tau_l1"] > out["tau_l2"] > 0
    assert out["k_l3"] == 5
    assert out["p_inf"] > 0
    assert out["delta_e_min"] <= out["delta_e_s"]


def test_certified_hitting_times_certifies_each_route_once(monkeypatch):
    calls = []
    phi = walk._phi_matrix
    monkeypatch.setattr(walk, "_phi_matrix", lambda *args: calls.append(args[0]) or phi(*args))
    out = gluedtrees.certified_hitting_times(32)
    # one exact average per route, at its argmin T; the grids read floors only
    assert calls == [
        TimeDistribution(T=out["T_l1"], k=1),
        TimeDistribution(T=out["T_l2"], k=1),
        TimeDistribution(T=out["T_l3"], k=out["k_l3"]),
    ]
    assert min(out[f"slack_l{i}"] for i in (1, 2, 3)) >= 0.0
    assert out["walk"].limiting_probability == out["p_inf"]
