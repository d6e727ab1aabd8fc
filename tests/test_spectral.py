import math

import numpy as np
import pytest

from ctqw import gluedtrees, markov, search, spectral, walk
from ctqw.errors import (
    AmbiguousDegeneracyError,
    EmptyOperatorError,
    GapUndefinedError,
    InconsistencyError,
    NonHermitianError,
    ValidationError,
)
from ctqw.rng import rng_stream

from conftest import partition_of, random_hermitian


def projectors(dec, part) -> list:
    """The orthogonal projector onto each group's eigenspace, from the
    decomposition's eigenvector columns: the partition holds none."""
    ends = np.cumsum(part.lengths)
    return [dec.eigenvectors[:, end - n : end] @ dec.eigenvectors[:, end - n : end].conj().T for end, n in zip(ends, part.lengths)]


def test_identity_fully_degenerate():
    dec = spectral.decompose(np.eye(3))
    np.testing.assert_allclose(dec.eigenvalues, np.ones(3), atol=1e-12)
    part = spectral.group_eigenspaces(dec.eigenvalues, tol_degen=1e-9)
    assert part.n_groups == 1 and part.lengths == (3,)
    np.testing.assert_allclose(projectors(dec, part)[0], np.eye(3), atol=1e-12)


def test_diagonal_input_sorted_basis():
    dec = spectral.decompose(np.diag([2.0, -1.0, 0.0]))
    np.testing.assert_allclose(dec.eigenvalues, [-1.0, 0.0, 2.0], atol=1e-12)
    # eigenvectors are signed standard basis columns in ascending-energy order
    np.testing.assert_allclose(np.abs(dec.eigenvectors), np.eye(3)[:, [1, 2, 0]], atol=1e-12)


def test_non_hermitian_rejected_with_entry_pair():
    with pytest.raises(NonHermitianError) as err:
        spectral.hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    msg = str(err.value)
    assert "0" in msg and "1" in msg


def test_empty_operator_rejected():
    with pytest.raises(EmptyOperatorError):
        spectral.hermitian(np.zeros((0, 0)))


def test_non_finite_entries_rejected():
    # NaN compares false with every tolerance: the entry itself is named
    for bad in (np.nan, np.inf):
        with pytest.raises(ValidationError, match=rf"^entry \(0, 1\) is \(?{bad}"):
            spectral.hermitian(np.array([[0.0, bad], [bad, 1.0]]))
    stack = np.stack([np.eye(2), np.diag([np.nan, 1.0])])
    with pytest.raises(ValidationError, match=r"^stack index 1: entry \(0, 0\) is \(?nan"):
        spectral.decompose(stack)


@pytest.mark.parametrize("part", [0, 1])
def test_nan_eigenpair_fails_the_reconstruction_certificate(monkeypatch, part):
    # a NaN eigenvalue (part 0) or eigenvector (part 1) from eigh is internal, not bad input
    eigh = np.linalg.eigh

    def poisoned(a):
        pair = [x.copy() for x in eigh(a)]
        pair[part][..., 0] = np.nan
        return tuple(pair)

    monkeypatch.setattr(np.linalg, "eigh", poisoned)
    with pytest.raises(InconsistencyError, match="not orthonormal" if part else "reconstruction error nan"):
        spectral.decompose(np.diag([0.0, 1.0]))


def test_non_square_rejected():
    with pytest.raises(ValidationError):
        spectral.hermitian(np.zeros((2, 3)))


def test_stacked_decompose_equals_per_matrix_calls_bitwise():
    rng = rng_stream(41, 0)
    for dim in range(2, 11):
        stack = np.stack([random_hermitian(rng, dim) for _ in range(5)])
        dec = spectral.decompose(stack)
        assert dec.eigenvalues.shape == (5, dim) and dec.eigenvectors.shape == (5, dim, dim)
        for i, h in enumerate(stack):
            one = spectral.decompose(h)
            assert np.array_equal(dec.eigenvalues[i], one.eigenvalues)
            assert np.array_equal(dec.eigenvectors[i], one.eigenvectors)
            assert np.array_equal(dec.operator.entries[i], one.operator.entries)


def test_stacked_hermitian_rejection_names_stack_index():
    stack = np.stack([np.eye(3), np.eye(3), np.eye(3)]).astype(complex)
    stack[2, 0, 1] = 1.0
    with pytest.raises(NonHermitianError, match=r"^stack index 2: matrix is not Hermitian: entry \(0,1\)"):
        spectral.hermitian(stack)


def test_decompose_deterministic():
    rng = rng_stream(11, 0)
    h = random_hermitian(rng, 7)
    a = spectral.decompose(h)
    b = spectral.decompose(h)
    assert a.eigenvectors.tobytes() == b.eigenvectors.tobytes()
    assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()


def test_column_operator_spectrum_matches_momenta():
    # sine-branch energies 2 cos p plus the two out-of-band states cover the
    # whole 8-dim spectrum of the tridiagonal column operator
    report = gluedtrees.solve_momenta(8)
    predicted = report.energies
    dec = spectral.decompose(gluedtrees.column_hamiltonian(8))
    np.testing.assert_allclose(dec.eigenvalues, predicted, atol=1e-10)


def test_group_eigenspaces_distinct_singletons():
    dec = spectral.decompose(np.diag([0.0, 1.0, 2.0]))
    part = spectral.group_eigenspaces(dec.eigenvalues, tol_degen=1e-9)
    assert part.lengths == (1, 1, 1)


def test_partition_invariants_random_sweep():
    for dim in (2, 3, 5, 8, 13, 21, 32):
        for rep in range(3):
            rng = rng_stream(101, dim, rep)
            h = random_hermitian(rng, dim)
            dec = spectral.decompose(h)
            recon = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
            assert np.linalg.norm(recon - dec.operator.entries) <= 1e-9 * dim
            gram = dec.eigenvectors.conj().T @ dec.eigenvectors
            assert np.max(np.abs(gram - np.eye(dim))) <= 1e-9

            part = partition_of(dec)
            total = np.zeros((dim, dim), dtype=complex)
            ps = projectors(dec, part)
            for g, p in enumerate(ps):
                assert np.max(np.abs(p - p.conj().T)) <= 1e-10
                assert np.max(np.abs(p @ p - p)) <= 1e-9
                for p2 in ps[g + 1 :]:
                    assert np.max(np.abs(p @ p2)) <= 1e-9
                total += p
            assert np.linalg.norm(total - np.eye(dim)) <= 1e-9


def test_search_generator_zero_group_contains_stationary_state():
    # 4-state chain: the zero-energy eigenspace of the search generator has
    # dimension (n-1)^2 + 1 = 10 and contains the sqrt-stationary state
    chain = markov.lazify(markov.chain_family("random-reversible", 4, seed=3))
    s = markov.s_star(chain, 0)
    ops = search.search_operators(chain, 0, s)
    dec = spectral.decompose(spectral.hermitian(ops.H))
    part = partition_of(dec)
    g0 = int(np.argmin(np.abs(part.energies)))
    assert abs(part.energies[g0]) <= 1e-8
    assert part.lengths[g0] == (4 - 1) ** 2 + 1
    vec = np.zeros(16, dtype=complex)
    vec[[x * 4 for x in range(4)]] = np.sqrt(markov.interpolate(chain, 0, s).pi_s)
    assert np.linalg.norm(projectors(dec, part)[g0] @ vec - vec) <= 1e-8


def test_gaps_simple_diagonal():
    part = spectral.group_eigenspaces(np.array([0.0, 1.0, 3.0]), 1e-8)
    assert part.delta_e_min == pytest.approx(1.0, abs=1e-12)
    assert part.delta_e_star == (1.0, 1.0, 2.0)


def test_gaps_undefined_single_group():
    part = partition_of(spectral.decompose(np.eye(4)))
    assert part.lengths == (4,)
    for gap in (lambda: part.delta_e_star, lambda: part.delta_e_min, lambda: part.subset_gap([0])):
        with pytest.raises(GapUndefinedError):
            gap()


def test_gap_report_relations_random():
    rng = rng_stream(55, 0)
    part = partition_of(spectral.decompose(random_hermitian(rng, 9)))
    _, delta_e_s = part.subset_gap([1, 4])
    assert all(part.delta_e_min <= s + 1e-15 for s in part.delta_e_star)
    assert part.delta_e_min <= delta_e_s + 1e-15


def test_subset_gap_monotone_under_enlargement():
    rng = rng_stream(56, 0)
    part = partition_of(spectral.decompose(random_hermitian(rng, 10)))
    _, small = part.subset_gap([2, 5])
    _, large = part.subset_gap([2, 5, 7, 8])
    assert large <= small + 1e-15


def all_pairs_delta_e_star(energies) -> tuple:
    """delta_e_star by the O(m^2) scan over every other group."""
    star = []
    for g in range(energies.shape[0]):
        others = np.abs(energies - energies[g])
        others[g] = np.inf
        star.append(float(np.min(others)))
    return tuple(star)


def test_delta_e_star_from_neighbours_matches_all_pairs():
    partitions = []
    for i in range(50):
        rng = rng_stream(58, i)
        # repeat up to two eigenvalues, so some groups hold several of them
        x = rng.standard_normal(int(rng.integers(2, 11)))
        evals = np.concatenate([x, x[: i % 3]])
        q, _ = np.linalg.qr(random_hermitian(rng, evals.shape[0]))
        partitions.append(partition_of(spectral.decompose((q * evals) @ q.conj().T)))
    for two_n in (8, 16, 32, 64):
        partitions.append(partition_of(spectral.decompose(gluedtrees.column_hamiltonian(two_n))))
    assert sum(part.n_groups < sum(part.lengths) for part in partitions) >= 30
    for part in partitions:
        assert part.delta_e_star == all_pairs_delta_e_star(part.energies)


def test_gaps_rejects_bad_subset():
    part = spectral.group_eigenspaces(np.array([0.0, 1.0, 3.0]), 1e-8)
    with pytest.raises(ValidationError, match="^subset index 7 outside group range 0..2$"):
        part.subset_gap([7])
    with pytest.raises(ValidationError, match="^subset must be non-empty$"):
        part.subset_gap([])
    assert part.subset_gap([2, 0, 2]) == ((0, 2), 1.0)


def test_band_subset_gap_floor_two_n_24():
    sub = gluedtrees.subspace_S(gluedtrees.column_walk(24))
    assert sub.delta_e_s >= math.pi / (16 * 12)


def test_minimum_gap_cubic_decay():
    # smallest spectral gap of the column operator decays like n^(-3):
    # log-log slope across n in {8, 12, 16} lands within 0.35 of -3
    sizes = (8, 12, 16)
    gaps = []
    for n in sizes:
        gaps.append(partition_of(spectral.decompose(gluedtrees.column_hamiltonian(2 * n))).delta_e_min)
    slope = np.polyfit(np.log(sizes), np.log(gaps), 1)[0]
    assert -3.35 <= slope <= -2.65


def test_symmetrization_of_rounding_noise():
    rng = rng_stream(57, 0)
    h = random_hermitian(rng, 6)
    noisy = h + 1e-13 * rng.standard_normal((6, 6))
    op = spectral.hermitian(noisy)
    assert np.max(np.abs(op.entries - op.entries.conj().T)) == 0.0


# ---------------------------------------------------------------------------
# vectorized bookkeeping against per-column and greedy-loop oracles


def fix_phases_oracle(vectors):
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        nz = np.flatnonzero(np.abs(col) > spectral.PHASE_THRESHOLD)
        if nz.size:
            pivot = col[nz[0]]
            out[:, j] = col * (np.conj(pivot) / np.abs(pivot))
    return out


def greedy_groups_oracle(e, tol):
    groups = [[0]]
    for i in range(1, e.shape[0]):
        if e[i] - e[groups[-1][-1]] <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    return tuple(tuple(g) for g in groups), np.array([float(np.mean(e[g])) for g in groups])


def clustered_spectrum(rng, tol):
    """Random levels, a degenerate cluster of 9 members 0.1 tol apart and a
    pair just 1.5 tol apart, which must stay two groups."""
    cluster = 0.3 + 0.1 * tol * np.arange(9)
    return np.sort(np.concatenate([rng.uniform(-2.0, 2.0, 7), cluster, [2.5, 2.5 + 1.5 * tol]]))


def test_fix_phases_matches_per_column_oracle():
    for rep in range(40):
        rng = rng_stream(211, rep)
        dim = int(rng.integers(1, 24))
        _, vectors = np.linalg.eigh(random_hermitian(rng, dim))
        col = int(rng.integers(0, dim))
        # leading entries below PHASE_THRESHOLD: the pivot moves down the column
        vectors[: int(rng.integers(0, dim)), col] *= 1e-14
        assert np.array_equal(spectral._fix_phases(vectors), fix_phases_oracle(vectors))
    zero_column = np.eye(3, dtype=complex)
    zero_column[:, 1] = 0.0
    assert np.array_equal(spectral._fix_phases(zero_column), zero_column)


def test_group_eigenspaces_matches_greedy_oracle():
    tol = 1e-6
    decs = [spectral.decompose(np.diag(clustered_spectrum(rng_stream(223, rep), tol))) for rep in range(10)]
    decs += [spectral.decompose(random_hermitian(rng_stream(227, rep), 12)) for rep in range(10)]
    for dec in decs:
        e = dec.eigenvalues
        for tol_degen in (tol, spectral.degeneracy_tol(e[-1] - e[0])):
            part = spectral.group_eigenspaces(e, tol_degen)
            groups, energies = greedy_groups_oracle(e, tol_degen)
            assert part.lengths == tuple(len(g) for g in groups)
            assert np.array_equal(part.energies, energies)
    assert max(spectral.group_eigenspaces(decs[0].eigenvalues, tol).lengths) == 9


def test_near_tie_chain_is_ambiguous():
    tol = 1e-3
    dec = spectral.decompose(np.diag([0.0, 0.6 * tol, 1.2 * tol, 10.0]))
    with pytest.raises(AmbiguousDegeneracyError):
        spectral.group_eigenspaces(dec.eigenvalues, tol)


def test_partition_gaps_are_cached(monkeypatch):
    # the gaps are worked out once, on first use, from the group energies alone
    calls = []
    stars = spectral._gap_stars
    monkeypatch.setattr(spectral, "_gap_stars", lambda e, n_groups: calls.append(len(n_groups)) or stars(e, n_groups))
    part = spectral.group_eigenspaces(np.array([0.0, 1.0, 3.0]), 1e-8)
    calls.clear()
    assert part.delta_e_star is part.delta_e_star
    assert part.delta_e_min == part.delta_e_min == 1.0
    assert part.subset_gap([2]) == ((2,), 2.0)
    assert calls == [1]


def test_group_eigenspaces_takes_ascending_finite_energies():
    for energies in ([], [[0.0, 1.0]], [1.0, 0.0], [0.0, np.nan], [np.inf]):
        with pytest.raises(ValidationError, match="ascending 1-d array of finite values"):
            spectral.group_eigenspaces(np.array(energies), 1e-8)
    for tol in (-1.0, np.nan):
        with pytest.raises(ValidationError, match="tol_degen must be non-negative"):
            spectral.group_eigenspaces(np.array([0.0, 1.0]), tol)


@pytest.mark.parametrize(
    "two_n",
    [
        2048,
        pytest.param(
            4096,
            marks=pytest.mark.xfail(
                strict=True,
                reason="distinct eigenvalues are grouped as degenerate at 2n >= 4096: four pairs near E = +-2 "
                "sit closer than 1e-8 times the spectral range (ROADMAP, correctness debt)",
            ),
        ),
    ],
)
def test_column_spectrum_groups_into_singletons(two_n):
    # the column generator is a Jacobi matrix, so its spectrum is simple; grouped
    # from the certified momenta alone, with no eigh, at the walk's tolerance
    e = gluedtrees.solve_momenta(two_n).energies
    assert spectral.group_eigenspaces(e, spectral.degeneracy_tol(e[-1] - e[0])).n_groups == two_n
