"""Certified lower bounds: every report must satisfy actual >= bound - 1e-9."""
import math

import numpy as np
import pytest

from ctqw import bounds, cli, gluedtrees, spectral, walk
from ctqw.errors import GapUndefinedError, ValidationError
from ctqw.rng import rng_stream
from ctqw.walk import TimeDistribution

from conftest import instance_stream, random_state

SLACK = -1e-9


def glued_setup(two_n: int):
    h = gluedtrees.column_hamiltonian(two_n)
    return h, walk.basis_state(two_n, 0), walk.basis_state(two_n, two_n - 1)


def test_mixing_bound_needs_two_groups():
    psi = walk.basis_state(3, 0)
    with pytest.raises(GapUndefinedError):
        bounds.mixing_bound(walk.spectral_walk(np.eye(3), psi, psi), T=10.0)


def test_mixing_bound_glued_long_time_positive():
    two_n, n = 12, 6
    h, psi0, y = glued_setup(two_n)
    T = 10.0 * n**3
    rep = bounds.mixing_bound(walk.spectral_walk(h, psi0, y), T)
    assert rep.holds
    assert rep.bound_value > 0
    # at this horizon the correction term is small, so the bound sits within
    # 15% of the limiting probability, itself at least 1/(2n)
    p_inf = rep.inputs["limiting_probability"]
    assert p_inf >= 1.0 / (2 * n)
    assert rep.bound_value >= 0.85 * p_inf


def test_mixing_bound_random_sweep():
    for rng, dim, h, psi0, y in instance_stream(310, 30):
        T = float(10 ** rng.uniform(-1.0, 3.0))
        rep = bounds.mixing_bound(walk.spectral_walk(h, psi0, y), T)
        assert rep.slack >= SLACK
        assert rep.holds


def test_eigenspace_bound_zero_overlap_group():
    h = np.diag([0.0, 1.0])
    psi = walk.basis_state(2, 0)
    rep = bounds.eigenspace_bound(walk.spectral_walk(h, psi, psi), T=7.0, group=1)
    assert rep.bound_value == pytest.approx(0.0, abs=1e-15)
    assert rep.holds


def test_eigenspace_bound_glued_middle_group():
    two_n, n = 12, 6
    h, psi0, y = glued_setup(two_n)
    rep = bounds.eigenspace_bound(walk.spectral_walk(h, psi0, y), T=20.0 * n, group=5)
    assert rep.holds
    assert rep.bound_value > 0
    assert rep.bound_value == pytest.approx(0.022263, abs=5e-6)
    # the kept eigenspace alone carries more than the 1/(8 n^2) floor
    assert rep.inputs["overlap"] == pytest.approx(0.024357, abs=5e-6)
    assert rep.inputs["overlap"] >= 1.0 / (8 * n**2)


def test_eigenspace_bound_random_sweep_all_groups():
    for rng, dim, h, psi0, y in instance_stream(320, 30):
        T = float(10 ** rng.uniform(-1.0, 3.0))
        w = walk.spectral_walk(h, psi0, y)
        for g in range(w.partition.n_groups):
            rep = bounds.eigenspace_bound(w, T, g)
            assert rep.slack >= SLACK


def test_eigenspace_bound_rejects_bad_group():
    h = np.diag([0.0, 1.0])
    psi = walk.basis_state(2, 0)
    with pytest.raises(ValidationError):
        bounds.eigenspace_bound(walk.spectral_walk(h, psi, psi), T=1.0, group=5)


def test_subset_vs_eigenspace_structural_difference():
    # for a singleton subset S = {g} with k = 1 both bounds use the same gap,
    # so bound_subset - bound_eigenspace = (4 * overlap - 2 * sqrt(3)) / (T * gap)
    rng = rng_stream(330, 0)
    for _, dim, h, psi0, y in instance_stream(331, 5):
        w = walk.spectral_walk(h, psi0, y)
        part = w.partition
        T = 17.0
        for g in range(part.n_groups):
            _, delta_e_s = part.gap_report.subset_gap([g])
            if abs(delta_e_s - part.gap_report.delta_e_star[g]) > 1e-12:
                continue
            b_eig = bounds.eigenspace_bound(w, T, g)
            b_sub = bounds.subset_bound(w, TimeDistribution(T=T, k=1), [g])
            o = b_eig.inputs["overlap"]
            predicted = (4.0 * o - 2.0 * math.sqrt(3.0)) / (T * delta_e_s)
            assert b_sub.bound_value - b_eig.bound_value == pytest.approx(predicted, abs=1e-10)


def test_subset_bound_glued_band():
    two_n, n = 12, 6
    h, psi0, y = glued_setup(two_n)
    sub = gluedtrees.subspace_S(gluedtrees.column_walk(two_n))
    k = math.ceil(math.log2(5 * n))
    rep = bounds.subset_bound(walk.spectral_walk(h, psi0, y), TimeDistribution(T=64.0 * n, k=k), sub.group_indices)
    assert rep.holds
    assert rep.bound_value >= 1.0 / (4 * n) - 1.0 / (5 * n)


def test_subset_bound_random_sweep():
    for rng, dim, h, psi0, y in instance_stream(340, 30):
        w = walk.spectral_walk(h, psi0, y)
        part = w.partition
        if part.n_groups < 2:
            continue
        size = int(rng.integers(1, part.n_groups))
        subset = list(rng.choice(part.n_groups, size=size, replace=False))
        T = float(10 ** rng.uniform(0.0, 3.0))
        for k in (1, 2, 3):
            rep = bounds.subset_bound(w, TimeDistribution(T=T, k=k), subset)
            assert rep.slack >= SLACK


def test_bound_values_nondecreasing_in_T():
    two_n = 8
    h, psi0, y = glued_setup(two_n)
    sub = gluedtrees.subspace_S(gluedtrees.column_walk(two_n))
    times = [5.0, 20.0, 80.0, 320.0, 1280.0]
    w = walk.spectral_walk(h, psi0, y)
    mix = [bounds.mixing_bound(w, t).bound_value for t in times]
    eig = [bounds.eigenspace_bound(w, t, group=3).bound_value for t in times]
    subv = [bounds.subset_bound(w, TimeDistribution(T=t, k=2), sub.group_indices).bound_value for t in times]
    for seq in (mix, eig, subv):
        assert all(b >= a - 1e-12 for a, b in zip(seq, seq[1:]))


def test_negative_bound_reported_as_is():
    two_n = 8
    h, psi0, y = glued_setup(two_n)
    rep = bounds.mixing_bound(walk.spectral_walk(h, psi0, y), T=0.01)
    assert rep.bound_value < 0
    assert rep.holds  # vacuously: actual >= negative number


def test_bounds_at_one_time_law_share_one_exact_value(monkeypatch):
    h, psi0, y = glued_setup(8)
    w = walk.spectral_walk(h, psi0, y)
    calls = []
    factors = walk._phase_factors
    monkeypatch.setattr(walk, "_phase_factors", lambda *args: calls.append(args[0]) or factors(*args))
    reports = [bounds.mixing_bound(w, 40.0)]
    reports += [bounds.eigenspace_bound(w, 40.0, g) for g in range(w.partition.n_groups)]
    reports.append(bounds.subset_bound(w, TimeDistribution(T=40.0, k=1), [1, 2]))
    comp = bounds.bound_comparison(w, 40.0, 3)
    assert all(rep.holds for rep in reports)
    assert {rep.actual_value for rep in reports} == {comp.avg_probability}
    assert calls == [TimeDistribution(T=40.0, k=1)]


def test_floors_equal_certified_bound_values():
    h, psi0, y = glued_setup(12)
    w = walk.spectral_walk(h, psi0, y)
    dist = TimeDistribution(T=70.0, k=3)
    assert bounds.mixing_floor(w, 70.0)[0] == bounds.mixing_bound(w, 70.0).bound_value
    assert bounds.eigenspace_floor(w, 70.0, 5)[0] == bounds.eigenspace_bound(w, 70.0, 5).bound_value
    assert bounds.subset_floor(w, dist, [4, 5])[0] == bounds.subset_bound(w, dist, [4, 5]).bound_value


# ---------------------------------------------------------------------------
# dephased reference and residual


def test_dephased_reference_full_subset_is_diagonal():
    rng = rng_stream(350, 0)
    dim = 5
    from conftest import random_hermitian

    h = random_hermitian(rng, dim)
    dec = spectral.decompose(h)
    part = spectral.group_eigenspaces(dec)
    v = random_state(rng, dim).amplitudes
    rho = walk.density_operator(np.outer(v, v.conj()))
    ref = bounds.dephased_reference(part, rho, range(part.n_groups), TimeDistribution(T=3.0, k=1))
    m = dec.eigenvectors.conj().T @ ref.entries @ dec.eigenvectors
    assert np.max(np.abs(m - np.diag(np.diag(m)))) <= 1e-12


def test_residual_bound_holds_dim4():
    rng = rng_stream(351, 0)
    from conftest import random_hermitian

    h = random_hermitian(rng, 4)
    part = spectral.group_eigenspaces(spectral.decompose(h))
    v = random_state(rng, 4).amplitudes
    rho = walk.density_operator(np.outer(v, v.conj()))
    subset = [0, part.n_groups - 1]
    for k in (1, 2, 4):
        rep = bounds.residual_bound(part, rho, subset, TimeDistribution(T=25.0, k=k))
        assert rep.holds
        assert rep.inputs["kind"] == "residual"


def test_residual_bound_stack_equals_per_instance_calls_bitwise():
    from conftest import random_hermitian

    rng = rng_stream(352, 0)
    parts, rhos, subsets, dists = [], [], [], []
    for i in range(5):
        parts.append(spectral.group_eigenspaces(spectral.decompose(random_hermitian(rng, 6))))
        v = random_state(rng, 6).amplitudes
        rhos.append(walk.density_operator(np.outer(v, v.conj())))
        subsets.append([i % parts[-1].n_groups])
        dists.append(TimeDistribution(T=2.0 + 7.0 * i, k=3))
    rho_stack = walk.DensityOperator(np.stack([r.entries for r in rhos]))
    stacked = bounds._residual_stack(parts, rho_stack, subsets, dists)
    assert stacked == [bounds.residual_bound(*args) for args in zip(parts, rhos, subsets, dists)]
    with pytest.raises(ValidationError, match="one k"):
        mixed = [dists[0], TimeDistribution(T=1.0, k=2)]
        bounds._residual_stack(parts[:2], walk.DensityOperator(rho_stack.entries[:2]), subsets[:2], mixed)
    # the public form takes one instance: a stacked rho0 is refused, not broadcast
    with pytest.raises(ValidationError, match=r"rho0 shape \(1, 5, 6, 6\)"):
        bounds.residual_bound(parts[0], rho_stack, subsets[0], dists[0])


def test_residual_bound_builds_phi_once(monkeypatch):
    calls = []
    phi_matrix = walk._phi_matrix
    monkeypatch.setattr(walk, "_phi_matrix", lambda *args: calls.append(args) or phi_matrix(*args))
    h, psi0, _ = glued_setup(12)
    part = spectral.group_eigenspaces(spectral.decompose(h))
    rho = walk.density_operator(np.outer(psi0.amplitudes, psi0.amplitudes.conj()))
    assert bounds.residual_bound(part, rho, [0], TimeDistribution(T=30.0, k=2)).holds
    assert len(calls) == 1


def test_bounds_instance_computes_gaps_once(monkeypatch):
    # the stacked gap kernel covers each instance once, and no bound works them out again
    stacks, per_partition = [], []
    stars, gaps = spectral._gap_stars, spectral.gaps
    monkeypatch.setattr(spectral, "_gap_stars", lambda e, n_groups: stacks.append(len(n_groups)) or stars(e, n_groups))
    monkeypatch.setattr(spectral, "gaps", lambda *args, **kwargs: per_partition.append(args) or gaps(*args, **kwargs))
    kinds = set()
    for idx in range(12):
        stacks.clear()
        rows = cli._bounds_block((idx, idx + 1, 5, 10, 0.1, 1000.0, (1, 2, 3, 4)))
        kinds.update(row["kind"] for row in rows)
        assert sum(row["kind"] == "eigenspace" for row in rows) == rows[0]["dim"]
        assert stacks == [1]
    assert per_partition == []
    assert kinds == {"mixing", "eigenspace", "subset", "residual", "comparison"}


def test_residual_bound_epsilon_schedule():
    # choosing T = (2/delta_e_s) * (sqrt(3)/eps)^(1/k), k = ceil(log2(1/eps))
    # caps the reference distance by eps itself
    two_n = 12
    h, psi0, _ = glued_setup(two_n)
    part = spectral.group_eigenspaces(spectral.decompose(h))
    sub = gluedtrees.subspace_S(gluedtrees.column_walk(two_n))
    rho = walk.density_operator(np.outer(psi0.amplitudes, psi0.amplitudes.conj()))
    for eps in (0.1, 0.01, 0.001):
        k = max(1, math.ceil(math.log2(1.0 / eps)))
        T = (2.0 / sub.delta_e_s) * (math.sqrt(3.0) / eps) ** (1.0 / k)
        rep = bounds.residual_bound(part, rho, sub.group_indices, TimeDistribution(T=T, k=k))
        assert rep.holds
        assert rep.bound_value <= eps  # distance itself under eps
        assert rep.actual_value <= eps * (1.0 + 1e-12)  # and the analytic cap too


# ---------------------------------------------------------------------------
# comparison of the two simple bounds


def test_comparison_two_level_hand_values():
    h = np.array([[0.0, 1.0], [1.0, 0.0]])
    psi = walk.basis_state(2, 0)
    comp = bounds.bound_comparison(walk.spectral_walk(h, psi, psi), T=5.0, group=0)
    # energies -1, +1; both gaps equal 2; limiting probability 1/2;
    # mixing: 1/2 - 2/(5*2) = 0.3, eigenspace: 1/4 * (1 - 4/(5*2)) = 0.15
    assert comp.mixing_bound_value == pytest.approx(0.3, abs=1e-12)
    assert comp.eigenspace_bound_value == pytest.approx(0.15, abs=1e-12)
    assert comp.delta_e_star == pytest.approx(2.0, abs=1e-12)
    assert comp.delta_e_min == pytest.approx(2.0, abs=1e-12)
    assert not comp.eigenspace_bound_better
    assert comp.implication_ok


def test_comparison_glued_short_horizon():
    # at T of order n the mixing route has not converged (its bound is still
    # negative) while a single midband eigenspace already certifies a
    # positive probability
    two_n, n = 12, 6
    h, psi0, y = glued_setup(two_n)
    comp = bounds.bound_comparison(walk.spectral_walk(h, psi0, y), T=2.0 * n, group=5)
    assert comp.mixing_bound_value < 0
    assert comp.mixing_bound_value == pytest.approx(-0.82767, abs=5e-5)
    assert comp.eigenspace_bound_value > 0
    assert comp.eigenspace_bound_value == pytest.approx(0.00341, abs=5e-5)
    assert comp.eigenspace_bound_better
    assert comp.implication_ok


def test_comparison_implication_random_sweep():
    # the recorded implication (condition -> selective route wins) must hold
    # on every instance; the converse may fail and is not asserted
    for rng, dim, h, psi0, y in instance_stream(360, 20):
        w = walk.spectral_walk(h, psi0, y)
        if w.partition.n_groups < 2:
            continue
        T = float(10 ** rng.uniform(0.0, 2.0))
        g = int(rng.integers(0, w.partition.n_groups))
        comp = bounds.bound_comparison(w, T, g)
        assert comp.implication_ok
        if comp.condition_holds:
            assert comp.selective_beats_mixing
