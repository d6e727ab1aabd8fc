"""Search walk: the discriminant reduction against the edge-space oracle,
spectrum structure, success floors."""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from ctqw import markov, search, walk
from ctqw.errors import InconsistencyError, MarkedWeightError, ValidationError
from ctqw.rng import rng_stream
from ctqw.walk import TimeDistribution


def lazy_family(name: str, n: int, seed: int = 6) -> markov.ReversibleChain:
    return markov.lazify(markov.chain_family(name, n, seed=seed))


def reduced_walk(chain, marked, s):
    return search._discriminant_walk(markov.interpolate(chain, marked, s), np.sqrt(chain.pi))[0]


def reduced_probability(chain, marked, s, dist):
    return reduced_walk(chain, marked, s).probability(dist)


# ---------------------------------------------------------------------------
# operator building blocks


def test_swap_operator_structure():
    chain = markov.complete_chain(4)
    s = search.swap_operator(chain.P)
    n = 4
    assert np.allclose(s @ s, np.eye(n * n), atol=1e-14)
    # maps |x,y> to |y,x> on supported pairs, fixes the diagonal states
    for x in range(n):
        assert s[x * n + x, x * n + x] == 1.0
        for y in range(n):
            if x != y:
                assert s[y * n + x, x * n + y] == 1.0


def test_block_reflection_rows():
    chain = markov.complete_chain(5)
    v = search.block_reflection(chain.P)
    assert np.allclose(v.T @ v, np.eye(25), atol=1e-12)
    # first column of block x holds the square-rooted row: 1/2 off-diagonal
    col = v[:, 0 * 5]
    expect = np.zeros(25)
    expect[1:5] = 0.5
    assert np.allclose(np.abs(col), expect, atol=1e-12)
    # fully interpolated marked row collapses to the self-transition
    ic = markov.interpolate(chain, 2, 1.0)
    v1 = search.block_reflection(ic.P_s)
    col = v1[:, 2 * 5]
    expect = np.zeros(25)
    expect[2 * 5 + 2] = 1.0
    assert np.allclose(np.abs(col), expect, atol=1e-12)


def test_block_reflection_rejects_unseeded_randomized():
    chain = markov.complete_chain(3)
    with pytest.raises(ValidationError):
        search.block_reflection(chain.P, completion="randomized")
    with pytest.raises(ValidationError):
        search.block_reflection(chain.P, completion="qr")


def test_generator_is_imaginary_hermitian():
    chain = lazy_family("random-reversible", 4)
    ops = search.search_operators(chain, 1, 0.4)
    h = ops.H
    assert np.max(np.abs(h.real)) <= 1e-12
    assert np.max(np.abs(h - h.conj().T)) <= 1e-12


def test_generator_annihilates_stationary_edge_state():
    chain = lazy_family("random-reversible", 5)
    for s in (0.0, 0.5, markov.s_star(chain, 0)):
        ic = markov.interpolate(chain, 0, s)
        ops = search.search_operators(chain, 0, s)
        vec = np.zeros(25, dtype=np.complex128)
        vec[[x * 5 for x in range(5)]] = np.sqrt(ic.pi_s)
        assert np.linalg.norm(ops.H @ vec) <= 1e-9


def test_start_state_in_kernel_at_s_zero():
    chain = lazy_family("complete", 4)
    ops = search.search_operators(chain, 2, 0.0)
    psi = search.start_state(chain)
    assert np.linalg.norm(ops.H @ psi.amplitudes) <= 1e-9


def test_two_state_hand_generator():
    # lazified two-vertex complete chain: P = [[.5,.5],[.5,.5]], a 4x4 edge
    # space; at s = 0 the discriminant spectrum is {1, 0}, so the nonzero
    # search energies are +-sqrt(1 - 0^2) = +-1
    chain = lazy_family("complete", 2)
    ops = search.search_operators(chain, 0, 0.0)
    assert ops.H.shape == (4, 4)
    evals = np.sort(np.linalg.eigvalsh(ops.H))
    assert np.allclose(evals, [-1.0, 0.0, 0.0, 1.0], atol=1e-10)


def test_completion_invariance():
    # the randomized completion may change V arbitrarily off the pinned
    # columns; every walk observable must stay fixed
    chain = lazy_family("random-reversible", 4, seed=9)
    marked, s = 2, markov.s_star(chain, 2)
    a = search.search_operators(chain, marked, s, "householder")
    b = search.search_operators(chain, marked, s, "randomized", completion_seed=123)
    psi0 = search.start_state(chain)
    basis = search.marked_subspace_basis(4, marked)
    for T in (0.9, 4.2):
        dist = TimeDistribution(T=T, k=2)
        pa = walk.avg_projector_probability_exact(a.H, psi0, basis, dist)
        pb = walk.avg_projector_probability_exact(b.H, psi0, basis, dist)
        assert pa == pytest.approx(pb, abs=1e-10)
        pr = reduced_probability(chain, marked, s, dist)
        assert pr == pytest.approx(pa, abs=1e-10)


# ---------------------------------------------------------------------------
# the discriminant reduction against the dense edge-space oracle


@pytest.mark.parametrize("family,n", [("complete", 16), ("cycle", 9), ("random-reversible", 12)])
def test_reduced_walk_matches_dense_oracle(family, n):
    chain = lazy_family(family, n)
    marked = 1
    dist = TimeDistribution(T=3.7, k=3)
    shots = 2 * walk.SAMPLE_CHUNK + 1
    psi0 = search.start_state(chain)
    basis = search.marked_subspace_basis(n, marked)
    block = slice(marked * n, (marked + 1) * n)
    for s in (0.0, markov.s_star(chain, marked), 0.7):
        w = reduced_walk(chain, marked, s)
        assert w.energies.shape[0] == 2 * n - 1  # the top eigenvalue of D is simple
        p_reduced = w.probability(dist)
        _, reduced = w.sample(dist, rng_stream(5, 23), shots)
        for completion in ("householder", "randomized"):
            ops = search.search_operators(chain, marked, s, completion, completion_seed=17)
            dense_walk = walk.spectral_walk(ops.H, psi0, basis)
            p_dense = dense_walk.probability(dist)
            assert abs(p_reduced - p_dense) <= 1e-10, (s, completion)
            # the reduced walk groups its own energies: the same eigenspaces carry the target
            assert w.partition.n_groups == dense_walk.partition.n_groups, (s, completion)
            assert abs(w.limiting_probability - dense_walk.limiting_probability) <= 1e-12, (s, completion)
            # the dense rows sit before V; its marked block maps them to edge coordinates,
            # of which the reduced walk measures the marked neighbourhood's
            p_s = ops.interpolated.P_s
            support = np.flatnonzero((p_s[marked] > 0) | (p_s[:, marked] > 0))
            dense_rows = ops.V[block, block][support] @ dense_walk.rows
            _, dense = dataclasses.replace(dense_walk, rows=dense_rows).sample(dist, rng_stream(5, 23), shots)
            assert np.array_equal(reduced, dense), (s, completion)


def test_run_search_decomposes_the_discriminant_once(monkeypatch):
    chain = markov.complete_chain(16)
    calls = []
    for name in ("eigh", "eigvalsh"):
        orig = getattr(np.linalg, name)
        monkeypatch.setattr(
            np.linalg, name, lambda *a, _orig=orig, _name=name, **kw: calls.append(_name) or _orig(*a, **kw)
        )
    search.run_search(chain, 0, 0.1, rng_seed=3, shots=0)
    # lazify's validate_chain, D(P_s*) itself, and the marked-row Gram certificate
    assert calls == ["eigh", "eigh", "eigvalsh"]


@pytest.mark.parametrize("family,kept", [(markov.cycle_chain, 3), (markov.complete_chain, 32)])
def test_reduced_walk_keeps_the_marked_neighbourhood(family, kept):
    chain = markov.lazify(family(32))
    inter = markov.interpolate(chain, 5, markov.s_star(chain, 5))
    support = np.flatnonzero((inter.P_s[5] > 0) | (inter.P_s[:, 5] > 0))
    w = search._discriminant_walk(inter, np.sqrt(chain.pi))[0]
    assert support.shape[0] == w.rows.shape[0] == kept
    assert w.energies.shape[0] == 2 * 32 - 1
    if kept == 3:
        assert support.tolist() == [4, 5, 6]


@pytest.mark.parametrize(
    "marked,epsilon,shots",
    [(8, 0.1, 10), (-1, 0.1, 10), (1.0, 0.1, 10), (0, 0.25, 10), (0, float("nan"), 10), (0, 0.1, -5)],
)
def test_run_search_validates_before_lazify(monkeypatch, marked, epsilon, shots):
    # bad input is named before the O(n^3) lazify, never as a bare IndexError
    def lazify(chain):
        raise AssertionError("lazify reached")

    monkeypatch.setattr(markov, "lazify", lazify)
    with pytest.raises(ValidationError):
        search.run_search(markov.complete_chain(8), marked, epsilon, rng_seed=1, shots=shots)


def test_reduced_walk_certificates():
    chain = lazy_family("random-reversible", 6)
    inter = markov.interpolate(chain, 2, markov.s_star(chain, 2))
    # a start outside the unit sphere cannot be a state of the subspace
    with pytest.raises(InconsistencyError):
        search._discriminant_walk(inter, 1.001 * np.sqrt(chain.pi))
    # rows from a matrix that is not stochastic give a marked "projector" above 1
    inflated = dataclasses.replace(inter, P_s=4.0 * inter.P_s)
    with pytest.raises(InconsistencyError):
        search._discriminant_walk(inflated, np.sqrt(chain.pi))


def test_run_search_scales_past_the_edge_space():
    # the edge space of cycle-256 has dimension 65536: a dense generator
    # would take 256^4 * 16 B, about 69 GB
    tracemalloc.start()
    try:
        rec = search.run_search(markov.cycle_chain(256), 0, 0.1, rng_seed=1, shots=20000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 2**20
    assert rec.walk_dim == 2 * 256 - 1
    assert rec.floor_holds
    sigma = math.sqrt(rec.p_exact * (1.0 - rec.p_exact) / rec.mc_shots)
    assert abs(rec.mc_freq - rec.p_exact) <= 4.0 * sigma


# ---------------------------------------------------------------------------
# spectrum structure


def test_spectrum_report_complete_8():
    chain = lazy_family("complete", 8)
    rep = search.spectrum_report(chain, 0, 0.5)
    assert rep.dim == 64
    assert rep.zero_multiplicity == 50 == rep.simple_zero_formula
    assert rep.formula_matches
    # 14 nonzero energies come in +- pairs recovered from the discriminant
    assert rep.dim - rep.zero_multiplicity == 14
    assert rep.pairing_residual <= 1e-10
    assert rep.spectrum_match_residual <= 1e-8
    assert rep.eigenpair_residual <= 1e-8
    assert rep.top_discriminant_residual <= 1e-12
    assert rep.top_eigvec_residual <= 1e-8


def test_zero_multiplicity_formula_across_families():
    for fam, n in (("complete", 4), ("cycle", 5), ("random-reversible", 5)):
        chain = lazy_family(fam, n)
        for s in (0.0, 0.3, markov.s_star(chain, 1), 0.9):
            rep = search.spectrum_report(chain, 1, s)
            assert rep.formula_matches, (fam, n, s)
            assert rep.zero_multiplicity == (n - 1) ** 2 + 1


def test_gap_amplification_quadratic():
    for fam, n in (("complete", 8), ("cycle", 6), ("random-reversible", 6)):
        chain = lazy_family(fam, n)
        sstar = markov.s_star(chain, 0)
        rep = search.spectrum_report(chain, 0, sstar)
        assert rep.ratio_in_range
        assert rep.amplified_gap == pytest.approx(
            math.sqrt(1.0 - (1.0 - rep.discriminant_gap) ** 2), abs=1e-12
        )
        assert rep.amplified_gap >= math.sqrt(rep.discriminant_gap) * (1.0 - 1e-9)


# ---------------------------------------------------------------------------
# overlap preconditions


def test_overlap_preconditions_complete():
    for n in (4, 8, 16):
        chain = lazy_family("complete", n)
        s = markov.s_star(chain, 1)
        rep = search.overlap_preconditions(markov.interpolate(chain, 1, s))
        assert rep.overlap_marked == pytest.approx(0.5, abs=1e-12)
        assert rep.overlap_start >= 0.5
        assert rep.closed_form_residual <= 1e-8


def test_overlap_preconditions_random_lightest_vertex():
    chain = lazy_family("random-reversible", 6, seed=14)
    marked = int(np.argmin(chain.pi))
    s = markov.s_star(chain, marked)
    rep = search.overlap_preconditions(markov.interpolate(chain, marked, s))
    assert rep.overlap_marked == pytest.approx(0.5, abs=1e-9)
    assert rep.overlap_start >= 0.5


def test_overlap_preconditions_wrong_point_rejected():
    chain = lazy_family("complete", 4)
    with pytest.raises(ValidationError):
        search.overlap_preconditions(markov.interpolate(chain, 1, 0.1))


# ---------------------------------------------------------------------------
# end-to-end search


def test_run_search_complete_16():
    rec = search.run_search(markov.complete_chain(16), 3, 0.05, rng_seed=7, family="complete", shots=20000)
    assert rec.floor_holds
    assert rec.p_exact >= 0.2
    assert rec.overlap_marked == pytest.approx(0.5, abs=1e-9)
    assert rec.overlap_start >= 0.5
    assert rec.k == 5  # ceil(log2(20))
    assert rec.mc_within_3sigma


def test_run_search_cycle_8():
    rec = search.run_search(markov.cycle_chain(8), 2, 0.1, rng_seed=11, family="cycle", shots=20000)
    assert rec.floor_holds
    assert rec.p_exact >= 0.15
    assert rec.mc_within_3sigma


def test_run_search_time_grows_with_log_inverse_epsilon():
    recs = [
        search.run_search(markov.complete_chain(8), 0, eps, rng_seed=1, shots=0)
        for eps in (0.2, 0.1, 0.05, 0.02)
    ]
    x = np.log([1.0 / r.epsilon for r in recs])
    y = np.array([r.total_time for r in recs])
    fit = np.polyfit(x, y, 1)
    resid = y - np.polyval(fit, x)
    r2 = 1.0 - float(np.sum(resid**2) / np.sum((y - y.mean()) ** 2))
    assert fit[0] > 0
    assert r2 >= 0.95


def test_run_search_certified_residual_floor():
    # the record's own fields reproduce the analytic chain of inequalities:
    # p_exact >= overlap_marked * overlap_start - sqrt(3) (2/(T sqrt(gap)))^k
    rec = search.run_search(markov.complete_chain(16), 0, 0.05, rng_seed=2, shots=0)
    err = math.sqrt(3.0) * (2.0 / (rec.T * math.sqrt(rec.gap_s_star))) ** rec.k
    assert rec.p_exact >= rec.overlap_marked * rec.overlap_start - err - 1e-12


def test_run_search_overweight_marked_vertex():
    w = np.zeros((5, 5))
    w[0, 1:] = w[1:, 0] = 1.0
    w[0, 0] = 10.0
    p = w / w.sum(axis=1, keepdims=True)
    with pytest.raises(MarkedWeightError):
        search.run_search(markov.validate_chain(p, require_aperiodic=False), 0, 0.1, rng_seed=1, shots=0)


def test_run_search_reports_a_missed_floor_without_raising():
    # T = 0.01 sqrt(HT) is far too short for the walk to reach the marked vertex
    rec = search.run_search(markov.complete_chain(8), 0, 0.1, rng_seed=1, shots=0, time_factor=0.01)
    assert rec.p_exact < rec.success_floor == 0.25 - 0.1
    assert rec.floor_holds is False


def test_run_search_validation():
    chain = markov.complete_chain(4)
    with pytest.raises(ValidationError):
        search.run_search(chain, 0, 0.3, rng_seed=1)  # epsilon >= 1/4
    with pytest.raises(ValidationError):
        search.run_search(chain, 0, 0.1, rng_seed=1, shots=-5)


def test_run_search_deterministic():
    a = search.run_search(markov.complete_chain(6), 1, 0.1, rng_seed=42, shots=5000)
    b = search.run_search(markov.complete_chain(6), 1, 0.1, rng_seed=42, shots=5000)
    assert a == b
    # pinned: the sampler draws per 5000-shot chunk the times, then the uniforms
    assert a.mc_freq == 0.6886
