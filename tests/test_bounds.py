"""Certified lower bounds: every report must satisfy actual >= bound - 1e-9."""
import math
import warnings

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
            _, delta_e_s = part.subset_gap([g])
            if abs(delta_e_s - part.delta_e_star[g]) > 1e-12:
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
    v = random_state(rng, dim)
    w = walk.spectral_walk(h, v, v)
    rho = walk.density_operator(np.outer(v.amplitudes, v.amplitudes.conj()))
    ref = bounds.dephased_reference(w, rho, range(w.partition.n_groups), TimeDistribution(T=3.0, k=1))
    dec = w.decomposition
    m = dec.eigenvectors.conj().T @ ref.entries @ dec.eigenvectors
    assert np.max(np.abs(m - np.diag(np.diag(m)))) <= 1e-12


def test_residual_bound_holds_dim4():
    rng = rng_stream(351, 0)
    from conftest import random_hermitian

    h = random_hermitian(rng, 4)
    v = random_state(rng, 4)
    w = walk.spectral_walk(h, v, v)
    rho = walk.density_operator(np.outer(v.amplitudes, v.amplitudes.conj()))
    subset = [0, w.partition.n_groups - 1]
    for k in (1, 2, 4):
        rep = bounds.residual_bound(w, rho, subset, TimeDistribution(T=25.0, k=k))
        assert rep.holds
        assert rep.inputs["kind"] == "residual"


def test_residual_bound_stack_equals_per_instance_calls_bitwise():
    from conftest import random_hermitian

    rng = rng_stream(352, 0)
    h = np.stack([random_hermitian(rng, 6) for _ in range(5)])
    psi0 = walk.pure_state(np.stack([random_state(rng, 6).amplitudes for _ in h]))
    dists = [TimeDistribution(T=2.0 + 7.0 * i, k=1 + i % 3) for i in range(5)]
    stack = walk.spectral_walks(h, psi0, psi0, dists)
    subsets = [[i % n] for i, n in enumerate(stack.n_groups.tolist())]
    rho_stack = walk.density_operator(psi0.amplitudes[:, :, None] * psi0.amplitudes.conj()[:, None, :])
    stacked = of_kind(bounds.certify_stack(stack, subsets, [0] * 5, rho_stack), "residual")
    for i in range(5):
        w = walk.spectral_walk(h[i], walk.PureState(psi0.amplitudes[i]), walk.basis_state(6, 0))
        one = bounds.residual_bound(w, walk.DensityOperator(rho_stack.entries[i]), subsets[i], dists[i])
        assert (one.bound_value, one.actual_value, one.slack, one.holds) == tuple(x[i] for x in stacked)
    # the public form takes one instance: a stacked rho0 is refused, not broadcast
    with pytest.raises(ValidationError, match=r"rho0 shape \(1, 5, 6, 6\)"):
        bounds.residual_bound(w, rho_stack, subsets[0], dists[0])


def test_residual_bound_builds_phi_once(monkeypatch):
    calls = []
    phi_matrix = walk._phi_matrix
    monkeypatch.setattr(walk, "_phi_matrix", lambda *args: calls.append(args) or phi_matrix(*args))
    h, psi0, _ = glued_setup(12)
    rho = walk.density_operator(np.outer(psi0.amplitudes, psi0.amplitudes.conj()))
    assert bounds.residual_bound(walk.spectral_walk(h, psi0, psi0), rho, [0], TimeDistribution(T=30.0, k=2)).holds
    assert len(calls) == 1


def test_reference_and_residual_need_the_decomposition():
    # a reduced walk has a partition, but no eigenvectors to rotate rho0 into
    h, psi0, _ = glued_setup(12)
    rho = walk.density_operator(np.outer(psi0.amplitudes, psi0.amplitudes.conj()))
    column = gluedtrees.column_walk(12)
    assert column.decomposition is None and column.partition.n_groups == 12
    dist = TimeDistribution(T=30.0, k=2)
    for fn in (bounds.dephased_reference, bounds.residual_bound):
        with pytest.raises(ValidationError, match="^a reduced walk has no full eigendecomposition"):
            fn(column, rho, [0], dist)
    # the reference takes any subset of the groups; a bad one is refused once, by the one validator
    w = walk.spectral_walk(h, psi0, psi0)
    for bad, message in (([12], "subset index 12 outside group range 0..11"), ([], "subset must be non-empty")):
        for fn in (bounds.dephased_reference, bounds.residual_bound):
            with pytest.raises(ValidationError, match=f"^{message}$"):
                fn(w, rho, bad, dist)


def of_kind(table: dict, kind: str) -> tuple:
    """(bound_value, actual_value, slack, holds) of the reports of one kind of
    a certify_stack table, walk by walk."""
    at = table["kind"] == kind
    return tuple(table[key][at] for key in ("bound_value", "actual_value", "slack", "holds"))


def stacked_walks(seed: int, dim: int, count: int):
    """A stack of walks with tied spectra (Q diag(E) Q^dagger) and distinct
    ones, one k of 1..4 per walk and T from 0.05 on, so that some floors are
    negative; the last walk is diagonal from |0> towards |1>, so every one
    of its groups has zero overlap and both its taus are infinite."""
    from test_walk import tied_hermitian
    from conftest import random_hermitian

    rng = rng_stream(seed, dim)
    h = [tied_hermitian(rng, dim) for _ in range(count // 2)] + [random_hermitian(rng, dim) for _ in range(count - count // 2 - 1)]
    h.append(np.diag(np.arange(dim, dtype=float)))
    psi0 = np.stack([random_state(rng, dim).amplitudes for _ in h[:-1]] + [walk.basis_state(dim, 0).amplitudes])
    y = np.stack([random_state(rng, dim).amplitudes for _ in h[:-1]] + [walk.basis_state(dim, 1).amplitudes])
    dists = [TimeDistribution(T=float(np.exp(rng.uniform(-3.0, 7.0))), k=1 + i % 4) for i in range(count)]
    stack = walk.spectral_walks(np.stack(h), walk.PureState(psi0), walk.PureState(y), dists)
    walks = [walk.spectral_walk(hb, walk.PureState(a), walk.PureState(b)) for hb, a, b in zip(h, psi0, y)]
    subsets = [sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist()) for n in stack.n_groups.tolist()]
    groups = [int(rng.integers(0, n)) for n in stack.n_groups.tolist()]
    rho0 = walk.density_operator(psi0[:, :, None] * psi0.conj()[:, None, :])
    return stack, walks, dists, subsets, groups, rho0


def test_certify_stack_equals_per_walk_calls_bitwise():
    negative = 0
    for dim in range(2, 11):
        stack, walks, dists, subsets, groups, rho0 = stacked_walks(361, dim, 12)
        table = bounds.certify_stack(stack, subsets, groups, rho0)
        found = {kind: of_kind(table, kind) for kind in ("mixing", "eigenspace", "subset", "residual", "comparison")}
        # each walk's reports in turn
        assert table["walk"].tolist() == [i for i, n in enumerate(stack.n_groups.tolist()) for _ in range(n + 4)]
        assert np.array_equal(table["T"], stack.T[table["walk"]])
        assert table["k"].tolist() == [dist.k if kind in ("subset", "residual") else 1 for dist, kind in zip((dists[i] for i in table["walk"]), table["kind"])]
        flat = 0
        for i, (w, dist, subset, group) in enumerate(zip(walks, dists, subsets, groups, strict=True)):
            T = dist.T
            reports = {"mixing": bounds.mixing_bound(w, T), "subset": bounds.subset_bound(w, dist, subset)}
            reports["residual"] = bounds.residual_bound(w, walk.DensityOperator(rho0.entries[i]), subset, dist)
            for kind, rep in reports.items():
                # compared with ==: every value bitwise, and negative floors reported as they are
                assert (rep.bound_value, rep.actual_value, rep.slack, rep.holds) == tuple(x[i] for x in found[kind]), (dim, i, kind)
            for g in range(w.partition.n_groups):
                rep = bounds.eigenspace_bound(w, T, g)
                assert (rep.bound_value, rep.actual_value, rep.slack, rep.holds) == tuple(x[flat] for x in found["eigenspace"])
                negative += rep.bound_value < 0
                flat += 1
            comp = bounds.bound_comparison(w, T, group)
            ok = comp.implication_ok
            assert (comp.tau_mixing_scale, comp.tau_selective, 0.0 if ok else -1.0, ok) == tuple(x[i] for x in found["comparison"])
            negative += reports["mixing"].bound_value < 0
        assert flat == found["eigenspace"][0].shape[0]
        # the diagonal walk's groups carry nothing: zero floors, and no finite tau
        assert walks[-1].overlaps == (0.0,) * dim and found["comparison"][0][-1] == found["comparison"][1][-1] == math.inf
    assert negative > 0


def test_certify_stack_residual_chunks_do_not_change_it(monkeypatch):
    stack, walks, dists, subsets, groups, rho0 = stacked_walks(365, 6, 7)
    whole = of_kind(bounds.certify_stack(stack, subsets, groups, rho0), "residual")
    for walks_per_chunk in (1, 3):
        monkeypatch.setattr(bounds, "RESIDUAL_CHUNK", walks_per_chunk * 36)
        chunked = of_kind(bounds.certify_stack(stack, subsets, groups, rho0), "residual")
        assert all(np.array_equal(x, y) for x, y in zip(whole, chunked))


def test_bounds_rows_write_an_infinite_tau_as_none():
    stack, walks, dists, subsets, groups, rho0 = stacked_walks(362, 4, 3)
    rows = cli._bounds_rows(4, [7, 8, 9], bounds.certify_stack(stack, subsets, groups, rho0))
    expected = [(idx, kind) for idx, n in zip((7, 8, 9), stack.n_groups.tolist()) for kind in ["mixing"] + ["eigenspace"] * n + ["subset", "residual", "comparison"]]
    assert [(row["instance"], row["kind"]) for row in rows] == expected
    assert all(type(value) in (int, float, str, bool, type(None)) for row in rows for value in row.values())
    comparison = rows[-1]
    assert comparison["bound_value"] is None and comparison["actual_value"] is None
    assert comparison["holds"] is True and comparison["slack"] == 0.0
    assert all(row["bound_value"] is not None for row in rows if row["instance"] != 9)


def test_bounds_rows_keep_an_infinite_slack_for_the_record_to_refuse(tmp_path):
    # a gap of 1e-6 at T = 1e-303 takes the mixing floor to -inf while the
    # subset {3} keeps a finite error term: null bound, infinite slack
    h = np.diag([0.0, 1e-6, 1.0, 2.0])[None]
    psi = walk.PureState(np.full((1, 4), 0.5, dtype=complex))
    stack = walk.spectral_walks(h, psi, psi, [TimeDistribution(T=1e-303, k=1)])
    rho0 = walk.density_operator(psi.amplitudes[:, :, None] * psi.amplitudes.conj()[:, None, :])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning: the per-walk float arithmetic gives inf silently
        rows = cli._bounds_rows(4, [0], bounds.certify_stack(stack, [[3]], [3], rho0))
    mixing = rows[0]
    assert mixing["kind"] == "mixing" and mixing["bound_value"] is None and mixing["slack"] == math.inf
    with pytest.raises(ValidationError, match="non-finite"):
        cli._write_bundle(tmp_path, "bounds", 1, {}, rows, {}, None, "ok")
    assert not any(tmp_path.iterdir())


def test_certify_stack_names_the_walk_whose_error_term_overflows():
    stack, walks, dists, subsets, groups, rho0 = stacked_walks(363, 5, 4)
    stack.T[2], stack.k[2] = 1e-300, 4
    with pytest.raises(ValidationError, match=r"^stack index 2: error term sqrt\(3\)\*\(2/\(T\*delta_e_s\)\)\^k overflows at T = 1e-300, k = 4"):
        bounds.certify_stack(stack, subsets, groups, rho0)
    with pytest.raises(ValidationError, match=r"^error term .* overflows at T = 1e-300, k = 4"):
        bounds.subset_bound(walks[2], TimeDistribution(T=1e-300, k=4), subsets[2])


def test_certify_stack_checks_its_subsets_and_groups():
    stack, walks, dists, subsets, groups, rho0 = stacked_walks(364, 5, 4)
    n = stack.n_groups.tolist()
    with pytest.raises(ValidationError, match=rf"^stack index 1: subset index {n[1]} outside group range 0..{n[1] - 1}"):
        bounds.certify_stack(stack, [subsets[0], [n[1]], *subsets[2:]], groups, rho0)
    with pytest.raises(ValidationError, match="^stack index 3: subset must be non-empty"):
        bounds.certify_stack(stack, [*subsets[:3], []], groups, rho0)
    with pytest.raises(ValidationError, match=rf"^stack index 0: group -1 outside 0..{n[0] - 1}"):
        bounds.certify_stack(stack, subsets, [-1, *groups[1:]], rho0)


def test_bounds_stack_shares_one_phase_kernel_per_time_law(monkeypatch):
    # per (dimension, k) substack: one half-angle evaluation, shared by the
    # exact averages and the residual; no subset_gap, no phi rebuilt and no
    # per-instance re-stacking
    calls, stacks, stacked = [], [], []
    factors, certify, stack_fn = walk._phase_factors, bounds.certify_stack, np.stack
    monkeypatch.setattr(walk, "_phase_factors", lambda dist, e, *rest: calls.append((dist.k, e.shape)) or factors(dist, e, *rest))
    monkeypatch.setattr(bounds, "certify_stack", lambda stack, *rest: stacks.append(stack) or certify(stack, *rest))
    monkeypatch.setattr(np, "stack", lambda arrays, *rest, **kw: stacked.append(len(arrays)) or stack_fn(arrays, *rest, **kw))
    monkeypatch.setattr(walk, "_phi_matrix", None)
    monkeypatch.setattr(spectral.EigenspacePartition, "subset_gap", None)
    rows = cli._bounds_block((0, 60, 7, 10, 0.1, 1000.0, (1, 2, 3, 4)))
    assert len({row["instance"] for row in rows}) == 60 and all(row["holds"] for row in rows)
    expected = []
    for stack in stacks:
        b, d = stack.decomposition.eigenvalues.shape
        ks = list(dict.fromkeys(stack.k.tolist()))
        expected += [(1, (b, d))] + [(kk, (int(np.sum(stack.k == kk)), d)) for kk in ks if kk != 1]
    assert calls == expected
    assert sum(len(s.T) for s in stacks) == 60 and max(stacked) <= 2


def test_bounds_instance_computes_gaps_once(monkeypatch):
    # the stacked gap kernel covers each instance once, and no bound works them
    # out again: a per-walk partition would call it once more, for one walk
    stacks, per_partition = [], []
    stars, group = spectral._gap_stars, spectral.group_eigenspaces
    monkeypatch.setattr(spectral, "_gap_stars", lambda e, n_groups: stacks.append(len(n_groups)) or stars(e, n_groups))
    monkeypatch.setattr(spectral, "group_eigenspaces", lambda *args: per_partition.append(args) or group(*args))
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
    w = walk.spectral_walk(h, psi0, psi0)
    sub = gluedtrees.subspace_S(gluedtrees.column_walk(two_n))
    rho = walk.density_operator(np.outer(psi0.amplitudes, psi0.amplitudes.conj()))
    for eps in (0.1, 0.01, 0.001):
        k = max(1, math.ceil(math.log2(1.0 / eps)))
        T = (2.0 / sub.delta_e_s) * (math.sqrt(3.0) / eps) ** (1.0 / k)
        rep = bounds.residual_bound(w, rho, sub.group_indices, TimeDistribution(T=T, k=k))
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
