import dataclasses
import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctqw import gluedtrees, markov, search, spectral, walk
from ctqw.errors import (
    AmbiguousDegeneracyError,
    DegenerateProbabilityError,
    GapUndefinedError,
    InconsistencyError,
    ValidationError,
)
from ctqw.rng import rng_stream
from ctqw.walk import TimeDistribution

from conftest import instance_stream, partition_of, random_hermitian, random_state
from oracles import hitting_time_by_grid


def two_level_average(T: float) -> float:
    """Hand value for H = diag(0, 1), psi0 = y = (|0> + |1>)/sqrt(2).

    |<y|e^{-iHt}|psi0>|^2 = (1 + cos t)/2, so the uniform average over
    [0, T] is 1/2 + sin(T)/(2T). Exactly 1/2 at T = pi.
    """
    return 0.5 + math.sin(T) / (2.0 * T)


# ---------------------------------------------------------------------------
# characteristic function


def test_characteristic_at_zero_is_one():
    assert walk.characteristic(TimeDistribution(T=2.3, k=1), 0.0) == pytest.approx(1.0, abs=1e-14)


def test_characteristic_full_period_vanishes():
    T = 1.7
    val = walk.characteristic(TimeDistribution(T=T, k=1), 2.0 * math.pi / T)
    assert abs(val) <= 1e-14


def test_characteristic_power_law_in_k():
    T = 0.9
    for r in (-3.2, 0.41, 7.0):
        one = walk.characteristic(TimeDistribution(T=T, k=1), r)
        three = walk.characteristic(TimeDistribution(T=T, k=3), r)
        assert three == pytest.approx(one**3, abs=1e-14)


def test_characteristic_magnitude_capped():
    dist = TimeDistribution(T=4.0, k=2)
    rs = np.linspace(-40, 40, 1601)
    assert np.max(np.abs(walk.characteristic(dist, rs))) <= 1.0 + 1e-12


def mp_characteristic(T: float, k: int, r: float) -> complex:
    """((exp(irT) - 1) / (irT))^k at 40 digits, from the float inputs as given."""
    x = mpmath.mpf(r) * mpmath.mpf(T)
    if x == 0:
        return mpmath.mpc(1)
    return ((mpmath.exp(1j * x) - 1) / (1j * x)) ** k


def test_characteristic_matches_mpmath():
    # T = 1 keeps rT exact, so only the evaluation itself is tested: at r = 0,
    # at |rT| from 1e-12 to 1e-6, where (exp(irT) - 1)/(irT) in floats loses
    # up to 5e-9 to cancellation, and at large |rT|
    small = np.geomspace(1e-12, 1e-6, 13)
    rs = np.concatenate([[0.0], small, -small, [1.001e-8, 1e-7, 1e-6, 0.7, 3.0, 1e2, 1e4, 1e6, -1e6]])
    with mpmath.workdps(40):
        for k in (1, 2, 3, 7):
            dist = TimeDistribution(T=1.0, k=k)
            got = walk.characteristic(dist, rs)
            for r, value in zip(rs, got):
                exact = mp_characteristic(1.0, k, r)
                assert abs(value - complex(exact)) <= 1e-12 * abs(complex(exact)), (k, r)
                assert walk.characteristic(dist, float(r)) == value


def test_characteristic_envelope_outside_gap():
    # sup over |r| >= dE of |Phi(r)| stays under (2/(T dE))^k
    for k in (1, 2, 3):
        for T, de in ((5.0, 1.3), (40.0, 0.2)):
            dist = TimeDistribution(T=T, k=k)
            rs = np.concatenate([np.linspace(de, 100 * de, 4001), -np.linspace(de, 100 * de, 4001)])
            cap = (2.0 / (T * de)) ** k
            assert np.max(np.abs(walk.characteristic(dist, rs))) <= cap + 1e-12


# ---------------------------------------------------------------------------
# averaged probabilities


def test_eigenstate_start_is_time_independent():
    rng = rng_stream(21, 0)
    h = random_hermitian(rng, 6)
    dec = spectral.decompose(h)
    psi0 = walk.pure_state(dec.eigenvectors[:, 2])
    y = random_state(rng, 6)
    expect = float(np.abs(np.vdot(y.amplitudes, psi0.amplitudes)) ** 2)
    for dist in (TimeDistribution(T=0.3, k=1), TimeDistribution(T=50.0, k=4)):
        assert walk.avg_probability_exact(h, psi0, y, dist) == pytest.approx(expect, abs=1e-10)


def test_two_level_hand_value():
    h = np.diag([0.0, 1.0])
    plus = walk.pure_state(np.array([1.0, 1.0]) / math.sqrt(2))
    for T in (0.7, 2.0, math.pi, 11.3):
        expect = two_level_average(T)
        assert walk.avg_probability_exact(h, plus, plus, TimeDistribution(T=T, k=1)) == pytest.approx(expect, abs=1e-12)
        assert walk.avg_probability_quadrature(h, plus, plus, T) == pytest.approx(expect, abs=1e-8)
    assert walk.avg_probability_quadrature(h, plus, plus, math.pi) == pytest.approx(0.5, abs=1e-8)


def test_quadrature_no_dynamics():
    rng = rng_stream(22, 0)
    psi0 = random_state(rng, 4)
    y = random_state(rng, 4)
    expect = float(np.abs(np.vdot(y.amplitudes, psi0.amplitudes)) ** 2)
    assert walk.avg_probability_quadrature(np.zeros((4, 4)), psi0, y, 8.0) == pytest.approx(expect, abs=1e-9)


def test_exact_matches_quadrature_sweep():
    worst = 0.0
    for rng, dim, h, psi0, y in instance_stream(4242, 50):
        T = float(10 ** rng.uniform(-0.5, 1.3))
        pe = walk.avg_probability_exact(h, psi0, y, TimeDistribution(T=T, k=1))
        pq = walk.avg_probability_quadrature(h, psi0, y, T)
        worst = max(worst, abs(pe - pq))
    assert worst <= 1e-7


def test_traversal_shot_floor_two_n_12():
    two_n, n = 12, 6
    h = gluedtrees.column_hamiltonian(two_n)
    dist = TimeDistribution(T=64.0 * n, k=math.ceil(math.log2(5 * n)))
    p = walk.avg_probability_exact(h, walk.basis_state(two_n, 0), walk.basis_state(two_n, two_n - 1), dist)
    assert p >= 1.0 / (4 * n) - 1.0 / (5 * n)


def test_nan_probability_fails_the_postcondition():
    w = walk.SpectralWalk(
        energies=np.array([0.0, 1.0]), c=np.array([np.nan, 0.0]), rows=np.eye(2), decomposition=None
    )
    with pytest.raises(InconsistencyError, match="outside"):
        w.probability(TimeDistribution(T=1.0, k=1))


def test_probability_validation_errors():
    h = np.diag([0.0, 1.0])
    good = walk.pure_state(np.array([1.0, 0.0]))
    with pytest.raises(ValidationError):
        walk.pure_state(np.array([1.0, 1.0]))  # not normalized
    with pytest.raises(ValidationError):
        walk.avg_probability_exact(np.eye(3), good, good, TimeDistribution(T=1.0, k=1))
    with pytest.raises(ValidationError):
        walk.avg_probability_quadrature(h, good, good, 0.0)
    with pytest.raises(ValidationError):
        TimeDistribution(T=-2.0, k=1)
    with pytest.raises(ValidationError):
        TimeDistribution(T=1.0, k=0)


def test_time_distribution_needs_a_finite_T():
    # an infinite or NaN T is bad input, not an internal failure of the averages it feeds
    for T in (math.inf, math.nan):
        with pytest.raises(ValidationError, match="T must be positive and finite"):
            TimeDistribution(T=T, k=1)
    w = walk.spectral_walk(np.diag([0.0, 1.0]), walk.basis_state(2, 0), walk.basis_state(2, 0))
    with pytest.raises(ValidationError, match="got inf"):
        w.hitting_time([1.0, math.inf], 1)
    with pytest.raises(ValidationError, match="got nan"):
        w.hitting_time([1.0, math.nan, 2.0], 1)


def test_a_fractional_or_boolean_k_is_refused():
    # never truncated to the integer below, never read as k = 1
    with pytest.raises(ValidationError, match="^k must be an integer >= 1, got True$"):
        TimeDistribution(T=1.0, k=True)
    h = np.diag([0.0, 1.0])
    plus = walk.pure_state(np.array([1.0, 1.0]) / math.sqrt(2.0))
    with pytest.raises(ValidationError, match="^k must be an integer >= 1, got 1.9$"):
        walk.hitting_time_estimate(h, plus, plus, np.array([1.0, 2.0]), k=1.9)


def test_nan_states_are_bad_input(monkeypatch):
    # NaN compares false with every tolerance, so each check fails unless it holds
    with pytest.raises(ValidationError, match="state norm nan deviates"):
        walk.pure_state(np.array([np.nan, 0.0]))
    with pytest.raises(ValidationError, match=r"entry \(0, 0\) is \(nan\+0j\), not finite"):
        walk.density_operator(np.diag([np.nan, 1.0]))
    # the trace and PSD checks do not lean on the finite-entry check before them;
    # a factorization that fails sends the PSD check to eigvalsh
    def cholesky(a):
        raise np.linalg.LinAlgError("not factored")

    monkeypatch.setattr(np.linalg, "cholesky", cholesky)
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.full(a.shape[:-1], np.nan))
    with pytest.raises(ValidationError, match="not PSD: lowest eigenvalue nan"):
        walk.density_operator(np.diag([0.5, 0.5]))
    monkeypatch.setattr(np, "trace", lambda a, axis1, axis2: np.full(a.shape[:-2], np.nan))
    with pytest.raises(ValidationError, match="trace nan deviates"):
        walk.density_operator(np.diag([0.5, 0.5]))


def test_projector_probability_reduces_to_state_probability():
    rng = rng_stream(23, 0)
    h = random_hermitian(rng, 5)
    psi0 = random_state(rng, 5)
    y = random_state(rng, 5)
    dist = TimeDistribution(T=6.0, k=2)
    via_state = walk.avg_probability_exact(h, psi0, y, dist)
    basis = y.amplitudes.reshape(5, 1)
    via_proj = walk.avg_projector_probability_exact(h, psi0, basis, dist)
    assert via_proj == pytest.approx(via_state, abs=1e-12)


def test_projector_probability_rejects_skew_basis():
    rng = rng_stream(23, 1)
    h = random_hermitian(rng, 4)
    psi0 = random_state(rng, 4)
    bad = np.ones((4, 2), dtype=complex)
    with pytest.raises(ValidationError):
        walk.avg_projector_probability_exact(h, psi0, bad, TimeDistribution(T=1.0, k=1))


# ---------------------------------------------------------------------------
# averaged density operator


def test_density_diagonal_in_eigenbasis_fixed():
    rng = rng_stream(24, 0)
    h = random_hermitian(rng, 5)
    dec = spectral.decompose(h)
    weights = rng.random(5)
    weights /= weights.sum()
    rho = walk.density_operator(dec.eigenvectors @ np.diag(weights) @ dec.eigenvectors.conj().T)
    out = walk.time_averaged_density(h, rho, TimeDistribution(T=3.0, k=1))
    assert np.max(np.abs(out.entries - rho.entries)) <= 1e-12


def off_diagonal_mass(h, rho) -> float:
    dec = spectral.decompose(h)
    m = dec.eigenvectors.conj().T @ rho.entries @ dec.eigenvectors
    return float(np.linalg.norm(m - np.diag(np.diag(m))))


def test_density_off_diagonal_mass_shrinks_with_T():
    rng = rng_stream(24, 1)
    h = random_hermitian(rng, 4)
    v = random_state(rng, 4).amplitudes
    rho = walk.density_operator(np.outer(v, v.conj()))
    de_min = partition_of(spectral.decompose(h)).delta_e_min
    base = off_diagonal_mass(h, rho)
    prev = np.inf
    for T in (1e2, 1e4, 1e6, 1e8, 1e10, 1e12):
        mass = off_diagonal_mass(h, walk.time_averaged_density(h, rho, TimeDistribution(T=T, k=1)))
        assert mass <= base * 2.0 / (T * de_min) + 1e-13
        assert mass <= prev + 1e-15
        prev = mass


def test_density_two_segment_composition():
    # averaging with k = 2 is the same channel as two independent k = 1 passes
    rng = rng_stream(24, 2)
    h = random_hermitian(rng, 4)
    v = random_state(rng, 4).amplitudes
    rho = walk.density_operator(np.outer(v, v.conj()))
    T = 7.3
    once = walk.time_averaged_density(h, rho, TimeDistribution(T=T, k=2))
    twice = walk.time_averaged_density(h, walk.time_averaged_density(h, rho, TimeDistribution(T=T, k=1)), TimeDistribution(T=T, k=1))
    assert np.max(np.abs(once.entries - twice.entries)) <= 1e-12


def test_density_operator_validation():
    with pytest.raises(ValidationError):
        walk.density_operator(np.diag([0.7, 0.7]))  # trace 1.4
    with pytest.raises(ValidationError):
        walk.density_operator(np.diag([1.5, -0.5]))  # negative eigenvalue


def test_stacked_density_operator_rejection_names_stack_index():
    good = np.diag([0.5, 0.5])
    with pytest.raises(ValidationError, match=r"^stack index 1: trace 1\.4 deviates"):
        walk.density_operator(np.stack([good, np.diag([0.7, 0.7]), good]))
    with pytest.raises(ValidationError, match=r"^stack index 2: matrix is not PSD"):
        walk.density_operator(np.stack([good, good, np.diag([1.5, -0.5])]))
    assert walk.density_operator(np.stack([good, good])).entries.shape == (2, 2, 2)


def psd_margin(d: int) -> float:
    """delta_d of the shifted Cholesky, from the derivation in walk.density_operator."""
    g = 3 * 2.0**-53 * (d + 1) / (1 - 3 * 2.0**-53 * (d + 1))
    return 4 * g * (1 + walk.TOL_TRACE + d * walk.TOL_PSD)


def rotated_density(d: int, lowest: float, seed: int) -> np.ndarray:
    """A trace-1 Hermitian matrix with eigenvalues lowest and (1 - lowest)/(d - 1), in a random eigenbasis."""
    rng = rng_stream(seed, 0)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    energies = np.full(d, (1.0 - lowest) / (d - 1))
    energies[0] = lowest
    m = (q * energies) @ q.conj().T
    return (m + m.conj().T) / 2


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    calls, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    return calls


@pytest.mark.parametrize("d", [2, 3, 5])
def test_psd_inside_the_fallback_band_is_accepted_through_eigvalsh(eigvalsh_calls, d):
    # lambda_min = -TOL_PSD + delta/2: the shifted factorization cannot certify it, eigvalsh accepts it
    for seed in range(5):
        rho = rotated_density(d, -walk.TOL_PSD + psd_margin(d) / 2, seed)
        assert walk.density_operator(rho).entries.shape == (d, d)
    assert eigvalsh_calls == [(1, d, d)] * 5


@pytest.mark.parametrize("d", [2, 3, 5])
def test_psd_just_past_the_tolerance_is_refused(eigvalsh_calls, d):
    # lambda_min = -TOL_PSD (1 + 1e-6) lies within delta_d of the boundary: refused with eigvalsh's message
    for seed in range(5):
        with pytest.raises(ValidationError, match=r"^matrix is not PSD: lowest eigenvalue -1e-09$"):
            walk.density_operator(rotated_density(d, -walk.TOL_PSD * (1 + 1e-6), seed))
    assert len(eigvalsh_calls) == 5


def test_psd_of_pure_states_is_certified_without_eigvalsh(eigvalsh_calls):
    # rank-one states, the bounds corpus's start states, at every dimension it draws
    rng = rng_stream(41, 0)
    for d in (2, 3, 10, 64, 128):
        v = rng.standard_normal((50, d)) + 1j * rng.standard_normal((50, d))
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
        walk.density_operator(v[:, :, None] * v.conj()[:, None, :])
    assert eigvalsh_calls == []


def test_psd_without_a_finite_factor_or_a_small_margin_goes_to_eigvalsh(monkeypatch, eigvalsh_calls):
    rho = rotated_density(4, 0.1, 3)
    # numpy gives NaN for a NaN diagonal rather than raising: a factor that is not finite certifies nothing
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: np.full_like(cholesky(a), np.nan))
    walk.density_operator(rho)
    assert eigvalsh_calls == [(1, 4, 4)]
    # a margin of TOL_PSD / 2 or more certifies nothing: eigvalsh alone
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: pytest.fail("factored past the margin"))
    monkeypatch.setattr(walk, "TOL_PSD", psd_margin(4))
    walk.density_operator(rho)
    assert eigvalsh_calls == [(1, 4, 4)] * 2


def test_psd_failure_in_a_stack_of_stacks_names_its_index(eigvalsh_calls):
    # one bad matrix in a (2, 4, d, d) stack: its block falls back, and the message names it
    good = [rotated_density(3, 0.0, seed) for seed in range(8)]
    good[7] = rotated_density(3, -1e-6, 7)
    with pytest.raises(ValidationError, match=r"^stack index 1, 3: matrix is not PSD: lowest eigenvalue -1e-06$"):
        walk.density_operator(np.array(good).reshape(2, 4, 3, 3))
    assert eigvalsh_calls == [(4, 3, 3)]


# ---------------------------------------------------------------------------
# limiting distribution


def test_limiting_probability_eigenstate():
    rng = rng_stream(25, 0)
    h = random_hermitian(rng, 5)
    dec = spectral.decompose(h)
    e = walk.pure_state(dec.eigenvectors[:, 1])
    assert walk.limiting_probability(h, e, e) == pytest.approx(1.0, abs=1e-10)


def test_limiting_probability_glued_floor():
    two_n, n = 12, 6
    h = gluedtrees.column_hamiltonian(two_n)
    p_inf = walk.limiting_probability(h, walk.basis_state(two_n, 0), walk.basis_state(two_n, two_n - 1))
    assert p_inf >= 1.0 / (2 * n)


def test_limiting_probability_is_large_T_limit():
    rng = rng_stream(25, 1)
    h = random_hermitian(rng, 5)
    psi0 = random_state(rng, 5)
    y = random_state(rng, 5)
    p_inf = walk.limiting_probability(h, psi0, y)
    p_avg = walk.avg_probability_exact(h, psi0, y, TimeDistribution(T=1e9, k=1))
    assert p_avg == pytest.approx(p_inf, abs=1e-4)


# ---------------------------------------------------------------------------
# Monte Carlo sampling


def hit_frequency(h, psi0, target, dist, seed, trials):
    """Empirical frequency of landing in the target span."""
    _, hit = walk.spectral_walk(h, psi0, target).sample(dist, rng_stream(seed), trials)
    return np.count_nonzero(hit) / float(trials)


def test_sample_walk_no_dynamics_is_deterministic():
    freq = hit_frequency(np.zeros((5, 5)), walk.basis_state(5, 3), np.eye(5)[:, 3:4], TimeDistribution(T=1.0, k=1), 9, 500)
    assert freq == pytest.approx(1.0, abs=0.0)


def test_sample_walk_reproducible():
    rng = rng_stream(26, 0)
    h = random_hermitian(rng, 4)
    psi0 = random_state(rng, 4)
    dist = TimeDistribution(T=5.0, k=2)
    w = walk.spectral_walk(h, psi0, np.eye(4)[:, :2])
    a = w.sample(dist, rng_stream(77), 4000)
    b = w.sample(dist, rng_stream(77), 4000)
    assert a[0].tobytes() == b[0].tobytes() and a[1].tobytes() == b[1].tobytes()


def test_sample_walk_glued_matches_exact_within_3_sigma():
    two_n, n = 8, 4
    h = gluedtrees.column_hamiltonian(two_n)
    k = math.ceil(math.log2(5 * n))
    dist = TimeDistribution(T=64.0 * n, k=k)
    psi0 = walk.basis_state(two_n, 0)
    y = walk.basis_state(two_n, two_n - 1)
    exact = walk.avg_probability_exact(h, psi0, y, dist)
    trials = 200000
    freq = hit_frequency(h, psi0, y, dist, 5, trials)
    sigma = math.sqrt(exact * (1 - exact) / trials)
    assert abs(freq - exact) <= 3.0 * sigma


def test_sample_walk_two_level_within_3_sigma():
    h = np.diag([0.0, 1.0])
    plus = walk.pure_state(np.array([1.0, 1.0]) / math.sqrt(2))
    T = math.pi
    trials = 100000
    freq = hit_frequency(h, plus, plus, TimeDistribution(T=T, k=1), 6, trials)
    sigma = math.sqrt(0.5 * 0.5 / trials)
    assert abs(freq - 0.5) <= 3.0 * sigma


def test_sampler_partial_chunk_counts_and_frequency():
    two_n, n = 8, 4
    h = gluedtrees.column_hamiltonian(two_n)
    w = walk.spectral_walk(h, walk.basis_state(two_n, 0), walk.basis_state(two_n, two_n - 1))
    dist = TimeDistribution(T=64.0 * n, k=math.ceil(math.log2(5 * n)))
    exact = w.probability(dist)
    shots = 2 * walk.SAMPLE_CHUNK + 1
    times, hit = w.sample(dist, rng_stream(3), shots)
    assert times.shape == hit.shape == (shots,)
    assert hit.dtype == bool
    freq = np.count_nonzero(hit) / shots
    assert abs(freq - exact) <= 4.0 * math.sqrt(exact * (1 - exact) / shots)
    # chunks draw in a fixed order, so a shorter run is a prefix of a longer one
    head_t, head = w.sample(dist, rng_stream(3), walk.SAMPLE_CHUNK)
    assert np.array_equal(head, hit[: walk.SAMPLE_CHUNK])
    assert np.array_equal(head_t, times[: walk.SAMPLE_CHUNK])


def search_reduced_walk(chain: markov.ReversibleChain) -> walk.SpectralWalk:
    lazy = markov.lazify(chain)
    return search._discriminant_walk(markov.interpolate(lazy, 0, markov.s_star(lazy, 0)), np.sqrt(lazy.pi))[0]


def unpaired_walk() -> walk.SpectralWalk:
    rng = rng_stream(11, 1)
    return walk.spectral_walk(random_hermitian(rng, 12), random_state(rng, 12), np.eye(12)[:, :2])


def returning_walk() -> walk.SpectralWalk:
    # a return amplitude on a bipartite spectrum: E and -E carry the same
    # amplitude, so only even powers of H return, the sin half is zero and
    # the screen keeps both halves
    return walk.SpectralWalk(np.array([-2.0, -0.5, 0.5, 2.0]), np.array([0.6, 0.3, 0.3, 0.6]) + 0j, np.array([[0.6, -0.3, -0.3, 0.6]]) + 0j, None)


@pytest.mark.parametrize(
    "make,distinct,kept,width",
    [
        # exactly paired energies: one phase per pair, each reached
        (lambda: gluedtrees.column_walk(64), 32, 32, 1),
        # repeated |E|, which group into one pair, and an exact zero; the start
        # reaches the pair, and the 32 marked rows compress to the 3 folded columns
        (lambda: search_reduced_walk(markov.complete_chain(32)), 2, 1, 3),
        # the start reaches half the pairs
        (lambda: search_reduced_walk(markov.cycle_chain(32)), 31, 16, 3),
        # no pairs: one phase per energy, as many as before the fold
        (unpaired_walk, 12, 12, 2),
    ],
    ids=["column-64", "complete-32", "cycle-32", "unpaired-12"],
)
def test_sample_outcomes_match_outer_product_phases(monkeypatch, make, distinct, kept, width):
    # the pruned, folded and compressed sampler hits where the dense
    # exp(-1j * outer(t, E)) * c measurement of the whole walk puts u below its total
    w = make()
    with monkeypatch.context() as m:  # the same walk, built without the cut to the start's reach
        m.setattr(walk, "reduced_walk", lambda energies, c, rows: walk.SpectralWalk(energies, c, rows, None))
        whole = make()
    assert dataclasses.replace(whole, c=np.ones_like(whole.c)).mc_phases == distinct  # every energy reached
    assert w.mc_phases == kept
    assert w._fold[2].shape == (2 * width,)
    assert w.prune_bound < 1e-13
    dist = TimeDistribution(T=300.0, k=3)
    shots = walk.SAMPLE_CHUNK + 7
    times, hit = w.sample(dist, rng_stream(11), shots)
    rng = rng_stream(11)
    for lo in range(0, shots, walk.SAMPLE_CHUNK):
        m = min(walk.SAMPLE_CHUNK, shots - lo)
        ts = rng.random((m, dist.k)).sum(axis=1) * dist.T
        probs = np.abs((np.exp(-1j * np.outer(ts, whole.energies)) * whole.c) @ whole.rows.T) ** 2
        u = rng.random(m)
        assert np.array_equal(times[lo : lo + m], ts)
        assert np.array_equal(hit[lo : lo + m], u < np.clip(probs.sum(axis=1), 0.0, 1.0))


@pytest.fixture
def evaluations(monkeypatch):
    """The (dtype, times) of every SpectralWalk._hit_probabilities call."""
    evaluate = walk.SpectralWalk._hit_probabilities
    calls = []

    def spy(self, ts, dtype):
        calls.append((dtype, ts.copy()))
        return evaluate(self, ts, dtype)

    monkeypatch.setattr(walk.SpectralWalk, "_hit_probabilities", spy)
    return calls


@pytest.mark.parametrize(
    "make",
    [
        lambda: gluedtrees.column_walk(64),
        lambda: search_reduced_walk(markov.complete_chain(32)),
        lambda: search_reduced_walk(markov.cycle_chain(32)),
        unpaired_walk,
    ],
    ids=["column-64", "complete-32", "cycle-32", "unpaired-12"],
)
def test_deciding_every_shot_in_float64_changes_no_outcome(monkeypatch, evaluations, make):
    w = make()
    dist = TimeDistribution(T=300.0, k=3)
    shots = walk.SAMPLE_CHUNK + 7
    times, hit = w.sample(dist, rng_stream(11), shots)
    evaluations.clear()
    monkeypatch.setattr(walk, "TRIG32_ERROR", np.inf)  # an infinite margin
    times_64, hit_64 = w.sample(dist, rng_stream(11), shots)
    m = walk.SAMPLE_CHUNK
    assert [(dtype, ts.shape[0]) for dtype, ts in evaluations] == [(np.float32, m), (np.float64, m), (np.float32, 7), (np.float64, 7)]
    assert np.array_equal(times_64, times)
    assert np.array_equal(hit_64, hit)


class ScriptedDraws:
    """Stands in for a Generator: random() hands out the given arrays in turn."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def random(self, size):
        out = self.draws.pop(0)
        assert out.shape == np.empty(size).shape
        return out


def test_a_shot_within_the_margin_is_decided_in_float64(evaluations):
    w = gluedtrees.column_walk(64)
    dist = TimeDistribution(T=300.0, k=2)
    uniforms = rng_stream(5).random((8, dist.k))
    ts = uniforms.sum(axis=1) * dist.T
    p32, p64 = w._hit_probabilities(ts, np.float32), w._hit_probabilities(ts, np.float64)
    at = int(np.argmax(np.abs(p32 - p64)))
    # u halfway between the two probabilities, where their decisions differ;
    # every other u is far from its probability
    u = np.where(p64 > 0.5, 0.0, 0.999)
    u[at] = 0.5 * (p32[at] + p64[at])
    assert (u[at] < p32[at]) != (u[at] < p64[at])
    evaluations.clear()
    times, hit = w.sample(dist, ScriptedDraws(uniforms, u), 8)
    assert np.array_equal(times, ts)
    assert [dtype for dtype, _ in evaluations] == [np.float32, np.float64]
    assert evaluations[1][1].tolist() == [ts[at]]
    assert np.array_equal(hit, u < p64)


def test_a_float32_error_just_inside_the_margin_decides_as_float64(monkeypatch):
    # every float32 probability off by 0.99 of the derived margin, and each u
    # 0.3 of it from its float64 probability on the same side: every shot must
    # decide as in float64, which half the margin would not do
    w = gluedtrees.column_walk(64)
    dist = TimeDistribution(T=300.0, k=2)
    uniforms = rng_stream(5).random((8, dist.k))
    ts = uniforms.sum(axis=1) * dist.T
    sigma, _, _, weight = w._fold
    eps = (walk.TRIG32_ERROR + ts.max() * sigma.max() * 2.0**-50) * weight + w._shot_screen[3]
    margin = 2.0 * eps * (1.0 + w.prune_bound) + eps**2 + 2.0**-40
    p64 = w._hit_probabilities(ts, np.float64)
    side = np.where(p64 < 0.5, 1.0, -1.0)
    p32, u = p64 + 0.99 * margin * side, p64 + 0.3 * margin * side
    assert np.all((u < p32) != (u < p64))
    # with half the margin, a shot decided in float32 would decide otherwise
    assert np.any((np.abs(u - p32) > 0.5 * margin) & ((u < p32) != (u < p64)))
    evaluate = walk.SpectralWalk._hit_probabilities
    monkeypatch.setattr(walk.SpectralWalk, "_hit_probabilities", lambda self, t, dtype: p32.copy() if dtype is np.float32 else evaluate(self, t, dtype))
    times, hit = w.sample(dist, ScriptedDraws(uniforms, u), 8)
    assert np.array_equal(times, ts)
    assert np.array_equal(hit, u < p64)


@pytest.mark.parametrize("T", [300.0, 1e5, 1e7])
def test_float32_probabilities_stay_within_the_margin(T):
    # eps = (TRIG32_ERROR + max|t sigma| 2^-50) weight + dropped bounds the
    # amplitude error only because each phase is reduced to [-pi, pi] before
    # the cast, and the screen drops no half that carries mass
    ts = rng_stream(6).random((2000, 3)).sum(axis=1) * T
    walks = {
        "cycle-32": search_reduced_walk(markov.cycle_chain(32)),
        **{f"column-{two_n}": gluedtrees.column_walk(two_n) for two_n in (32, 128, 2048)},
        "returning-4": returning_walk(),
    }
    for name, w in walks.items():
        sigma, _, _, weight = w._fold
        eps = (walk.TRIG32_ERROR + ts.max() * sigma.max() * 2.0**-50) * weight + w._shot_screen[3]
        miss = np.abs(w._hit_probabilities(ts, np.float32) - w._hit_probabilities(ts, np.float64))
        assert miss.max() <= 2.0 * eps * (1.0 + w.prune_bound) + eps**2 + 2.0**-40, name


def test_the_shot_screen_keeps_the_half_that_carries_mass():
    # start and exit of the column walk sit 2n - 1 steps apart on a path with
    # zero diagonal: only odd powers of H connect them, so its cos half is
    # rounding alone, and its real sin column is exactly zero
    for two_n in 2 ** np.arange(3, 13):
        w = gluedtrees.column_walk(int(two_n))
        sin_only, rows, zero, dropped, turn = w._shot_screen
        assert sin_only and dropped <= walk.DROP_MASS
        assert rows.shape == (w.mc_phases, 1) and zero.tolist() == [0.0]
        assert np.array_equal(turn, w._fold[0] * (0.5 / np.pi))
    # a search walk reaches its marked rows by both halves; the cycle's fold
    # has 3 columns of 6 that are exactly zero, and those go
    for chain in (markov.complete_chain(32), markov.cycle_chain(32), markov.random_reversible_chain(32, 3)):
        w = search_reduced_walk(chain)
        sigma, m, _, _ = w._fold
        sin_only, rows, _, dropped, _ = w._shot_screen
        assert not sin_only and dropped == 0.0 and rows.shape[0] == 2 * sigma.shape[0]
        assert rows.shape[1] < m.shape[1]
    assert search_reduced_walk(markov.cycle_chain(32))._shot_screen[1].shape == (32, 3)
    # only a cos half is ever dropped: a walk whose sin half is zero keeps both
    assert not returning_walk()._shot_screen[0]


@pytest.mark.parametrize(
    "ts,u",
    [(np.ones(2), np.full(1, 0.5)), (np.ones((2, 1)), np.full((2, 1), 0.5)), (np.ones(3), np.full(2, 0.5))],
    ids=["one-uniform-for-two-shots", "two-d", "two-uniforms-for-three-shots"],
)
def test_hits_refuses_mismatched_shots(ts, u):
    with pytest.raises(ValidationError, match="^need one uniform per shot time, 1-d"):
        gluedtrees.column_walk(8).hits(ts, u)


def test_hits_of_no_shots_is_empty():
    hit = gluedtrees.column_walk(8).hits(np.empty(0), np.empty(0))
    assert hit.dtype == bool and hit.shape == (0,)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_hits_refuses_a_time_that_is_not_finite(bad):
    with pytest.raises(ValidationError, match="^shot times must be finite, got min"):
        gluedtrees.column_walk(8).hits(np.array([1.0, bad, 2.0]), np.full(3, 0.5))


def test_float32_cos_and_sin_stay_within_their_bound():
    # the sampler's margin rests on TRIG32_ERROR: a platform whose float32
    # cos or sin misses by more fails here, not in a wrongly decided shot
    lo, hi, points, step = -math.pi - 1e-3, math.pi + 1e-3, 2 * 10**7, 10**6
    out = np.empty(step)
    worst = 0.0
    for start in range(0, points, step):
        x = lo + (hi - lo) / (points - 1) * np.arange(start, start + step)
        for f in (np.cos, np.sin):
            f(x, out=out, dtype=np.float32, casting="same_kind")
            worst = max(worst, float(np.abs(out - f(x)).max()))
    assert worst <= walk.TRIG32_ERROR


def test_reduced_walk_drops_the_amplitudes_at_or_below_dim_ulps():
    # four paired energies; the start amplitude of -2 sits just above
    # d 2^-52 and is kept, that of -1 just below it and is dropped
    d = 4
    at = d * 2.0**-52
    above, below = np.nextafter(at, 1.0), np.nextafter(at, 0.0)
    energies = np.array([-2.0, -1.0, 1.0, 2.0])
    rows = np.full((1, d), 0.5)
    w = walk.reduced_walk(energies, np.array([above, below, 0.6, 0.8]), rows)
    assert w.energies.tolist() == [-2.0, 1.0, 2.0]
    # the walk as built: its dimension and the spectral range its tolerance is taken from
    assert (w.dim, w.spectral_range, w.tol_degen) == (4, 4.0, 4e-8)
    sigma, m, _, _ = w._fold
    assert w.mc_phases == 2
    assert sigma.tolist() == [1.0, 2.0]  # 1 now lacks its mirror; 2 keeps its pair
    # rows [Re Pc; Im Pc] then [Re Ps; Im Ps] per sigma: with no minus side Ps = -i Pc
    assert m.shape == (4, 2)
    assert m[2].tolist() == [m[0, 1], -m[0, 0]]
    assert m[3].tolist() != [m[1, 1], -m[1, 0]]
    assert w.prune_bound == 2.0 * below + below**2
    kept_at = walk.reduced_walk(energies, np.array([above, at, 0.6, 0.8]), rows)
    assert kept_at.mc_phases == 2 and kept_at.prune_bound == 2.0 * at + at**2


def test_reduced_walk_keeps_a_nan_amplitude_which_then_fails():
    w = walk.reduced_walk(np.array([-1.0, 1.0]), np.array([math.nan, 1.0]), np.full((1, 2), 0.5))
    assert w.energies.shape == (2,) and w.prune_bound == 0.0
    with pytest.raises(InconsistencyError, match="^limiting probability = nan outside"):
        w.limiting_probability


def test_a_whole_walk_drops_nothing():
    # a walk read off a full decomposition keeps every energy, reached or not
    w = walk.spectral_walk(np.diag([-1.0, 0.0, 2.0]), walk.basis_state(3, 0), walk.basis_state(3, 0))
    assert (w.dim, w.spectral_range, w.prune_bound) == (3, 3.0, 0.0)
    assert w.energies.tolist() == [-1.0, 0.0, 2.0] and w.c.tolist() == [1.0, 0.0, 0.0]
    assert w.mc_phases == 2  # one phase for each nonzero |E|, of which the start reaches one


def test_sample_peak_memory_one_phase_buffer():
    # one block of phases and their sin, the half the column walk's screen
    # keeps, 16 B per shot and phase, and the chunk's k uniforms per shot;
    # a chunk of complex phases took 21.4 MB
    w = gluedtrees.column_walk(512)
    m, k = walk.SAMPLE_CHUNK, 12
    w.sample(TimeDistribution(T=1.0, k=1), rng_stream(12), 1)  # build the fold and its screen
    tracemalloc.start()
    try:
        w.sample(TimeDistribution(T=64.0 * 256, k=k), rng_stream(12), m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 16 * walk.SAMPLE_BLOCK * w.mc_phases + m * k * 8


def test_sampling_the_column_walk_pages_in_no_sort_or_qr(monkeypatch):
    # one target row: no compression, so neither sort nor LAPACK kernels are paged in
    w = gluedtrees.column_walk(128)

    def refuse(*args, **kwargs):
        raise AssertionError("the column-walk sampler called a sort or a QR")

    for owner, name in ((np, "argsort"), (np, "sort"), (np.linalg, "qr")):
        monkeypatch.setattr(owner, name, refuse)
    _, hit = w.sample(TimeDistribution(T=64.0 * 64, k=9), rng_stream(2), 100)
    assert hit.shape == (100,)


def test_exact_average_of_the_complete_chain_search_peak_memory():
    # 31 755 degenerate pairs x 128 marked rows: one term per group makes their
    # Phi 1, where gathering the pairs' rows at once took about 190 MiB
    w = search_reduced_walk(markov.complete_chain(128))
    dist = TimeDistribution(T=10.0, k=3)
    tracemalloc.start()
    try:
        w.probability(dist)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


def test_sample_walk_rejects_bad_trials():
    with pytest.raises(ValidationError):
        walk.spectral_walk(np.eye(2), walk.basis_state(2, 0), np.eye(2)).sample(TimeDistribution(T=1.0, k=1), rng_stream(1), 0)


def test_sample_refuses_a_fractional_shot_count():
    w = walk.spectral_walk(np.eye(2), walk.basis_state(2, 0), np.eye(2))
    with pytest.raises(ValidationError, match="^shots must be an integer >= 1, got 2.5$"):
        w.sample(TimeDistribution(T=1.0, k=1), rng_stream(1), 2.5)


def test_an_ungroupable_reduced_walk_is_refused_by_probability_and_sample():
    # a chain of near-ties 0.6 tol apart, 1.2 tol wide (tol = 1e-8 * 10): no
    # partition, so no snapped walk to average or sample
    w = walk.SpectralWalk(np.array([0.0, 6e-8, 1.2e-7, 10.0]), np.full(4, 0.5 + 0j), np.eye(4, dtype=complex)[:1], None)
    dist = TimeDistribution(T=1.0, k=1)
    with pytest.raises(AmbiguousDegeneracyError, match="^eigenvalue cluster 0..1.2e-07 has spread"):
        w.probability(dist)
    with pytest.raises(AmbiguousDegeneracyError, match="^eigenvalue cluster 0..1.2e-07 has spread"):
        w.sample(dist, rng_stream(1), 10)


def test_spectral_walk_grid_equals_single_points_and_quadrature():
    rng = rng_stream(28, 0)
    h = random_hermitian(rng, 6)
    psi0, y = random_state(rng, 6), random_state(rng, 6)
    grid = walk.geometric_grid(0.3, 30.0, per_decade=5)
    w = walk.spectral_walk(h, psi0, y)
    for k in (1, 3):
        probs = np.array([w.probability(TimeDistribution(T=float(t), k=k)) for t in grid])
        # a fresh evaluator per T shares no kept value with w
        single = [walk.spectral_walk(h, psi0, y).probability(TimeDistribution(T=float(t), k=k)) for t in grid]
        assert np.max(np.abs(probs - np.array(single))) <= 1e-15
    quad = [walk.avg_probability_quadrature(h, psi0, y, float(t)) for t in grid]
    probs = np.array([w.probability(TimeDistribution(T=float(t), k=1)) for t in grid])
    assert np.max(np.abs(probs - np.array(quad))) <= 1e-8


def test_spectral_walk_state_target_equals_one_column_basis():
    rng = rng_stream(28, 1)
    h = random_hermitian(rng, 5)
    psi0, y = random_state(rng, 5), random_state(rng, 5)
    dist = TimeDistribution(T=4.0, k=2)
    as_state = walk.spectral_walk(h, psi0, y)
    as_basis = walk.spectral_walk(h, psi0, y.amplitudes[:, None])
    assert as_state.probability(dist) == pytest.approx(as_basis.probability(dist), abs=1e-14)
    assert as_state.limiting_probability == pytest.approx(as_basis.limiting_probability, abs=1e-14)


def test_spectral_walk_refuses_stacks_and_the_stacked_form_checks_shapes():
    rng = rng_stream(28, 3)
    h = np.stack([random_hermitian(rng, 4) for _ in range(3)])
    states = walk.pure_state(np.stack([random_state(rng, 4).amplitudes for _ in range(3)]))
    # a (B, d) stack of states is not one state of a d x d operator
    with pytest.raises(ValidationError, match=r"state shape \(3, 4\) != \(4,\)"):
        walk.spectral_walk(h[0], states, walk.basis_state(4, 0))
    with pytest.raises(ValidationError, match="expected a square matrix"):
        walk.spectral_walk(h, states, states)
    dists = [TimeDistribution(T=2.0, k=2)] * 3
    with pytest.raises(ValidationError, match=r"state stacks \(3, 4\), \(2, 4\) != \(3, 4\)"):
        walk.spectral_walks(h, states, walk.PureState(states.amplitudes[:2]), dists)
    with pytest.raises(ValidationError, match="2 time laws for a stack of 3 operators"):
        walk.spectral_walks(h, states, states, dists[:2])
    stack = walk.spectral_walks(h, states, states, dists)
    for i, (hb, psi) in enumerate(zip(h, states.amplitudes, strict=True)):
        one = walk.spectral_walk(hb, walk.PureState(psi), walk.PureState(psi))
        assert np.array_equal(stack.decomposition.eigenvalues[i], one.energies)
        assert np.array_equal(stack.decomposition.eigenvectors[i], one.decomposition.eigenvectors)


def tied_hermitian(rng, dim: int) -> np.ndarray:
    """Q diag(E) Q^dagger with a random unitary Q and exactly repeated E: its
    eigh eigenvalues are near-ties that group together."""
    levels = rng.uniform(-2.0, 2.0, max(2, (dim + 1) // 2))
    energies = np.sort(np.concatenate([levels, rng.choice(levels, dim - levels.shape[0])]))
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return (q * energies) @ q.conj().T


def test_stacked_walks_equal_single_walks_bitwise():
    for dim in range(2, 11):
        rng = rng_stream(29, dim)
        # repeated eigenvalues first, then distinct ones, then one group only; one k of 1..4 per instance
        h = np.stack([tied_hermitian(rng, dim) for _ in range(4)] + [random_hermitian(rng, dim) for _ in range(4)] + [0.3 * np.eye(dim)])
        psi0 = np.stack([random_state(rng, dim).amplitudes for _ in h])
        y = np.stack([random_state(rng, dim).amplitudes for _ in h])
        dists = [TimeDistribution(T=float(np.exp(rng.uniform(-2.0, 7.0))), k=1 + i % 4) for i in range(len(h))]
        stack = walk.spectral_walks(h, walk.PureState(psi0), walk.PureState(y), dists)
        assert stack.T.tolist() == [d.T for d in dists] and stack.k.tolist() == [d.k for d in dists]
        lo = 0
        for i, dist in enumerate(dists):
            one = walk.spectral_walk(h[i], walk.PureState(psi0[i]), walk.PureState(y[i]))
            m = one.partition.n_groups
            assert stack.n_groups[i] == m
            assert tuple(np.flatnonzero(stack.group_starts[i])) == tuple(np.cumsum(one.partition.lengths) - one.partition.lengths)
            if m > 1:
                assert tuple(stack.delta_e_star[lo : lo + m]) == one.partition.delta_e_star
            else:
                with pytest.raises(GapUndefinedError):
                    one.partition.delta_e_star
            assert tuple(stack.overlaps[lo : lo + m]) == one.overlaps
            assert stack.limiting_probability[i] == one.limiting_probability
            lo += m
            for p, law in zip(stack.averages[:, i], (TimeDistribution(T=dist.T, k=1), dist)):
                assert p == one.probability(law), (dim, i, law)
            # the half-angle factors of each walk's own law at its group energies, which the stacked residual reuses
            g1, s1 = walk._phase_factors(dist, one.partition.energies)
            assert np.array_equal(stack.factors[0][i, :m], g1) and np.array_equal(stack.factors[1][i, :m, :m], s1)
        assert lo == stack.overlaps.shape[0] == stack.delta_e_star.shape[0]
        assert dim == 2 or max(np.diff(np.append(np.flatnonzero(starts), dim)).max() for starts in stack.group_starts[:4]) >= 2


def test_stacked_norms_equal_numpy_norm_bitwise():
    # 30 480 complex vectors, d = 2..128, over six decades of scale; norm's
    # own axis= form differs from the one-vector norm on some of them
    rng, axis_form_differs = rng_stream(41), 0
    for d in range(2, 129):
        x = (rng.standard_normal((2, 120, d)) + 1j * rng.standard_normal((2, 120, d))) * 10.0 ** rng.uniform(-3, 3, (2, 120, 1))
        one_at_a_time = np.array([[np.linalg.norm(v) for v in stack] for stack in x])
        assert np.array_equal(walk._norms(x), one_at_a_time), d
        axis_form_differs += int(np.sum(np.linalg.norm(x, axis=-1) != one_at_a_time))
    assert axis_form_differs > 0
    # the raveled differences of a (2, B, d, d) stack of matrices, as the residual takes them
    for d in range(2, 17):
        a = rng.standard_normal((2, 40, d, d)) + 1j * rng.standard_normal((2, 40, d, d))
        diff = a[0] - a[1]
        assert np.array_equal(walk._norms(diff.reshape(40, -1)), [np.linalg.norm(m) for m in diff]), d


def test_group_overlaps_square_as_python_pow():
    # summed left to right over the rows of each group column, each |s|^2 the
    # Python float power, where numpy's square differs in the last bit
    rng = rng_stream(42)
    sums = rng.standard_normal((3, 20000)) + 1j * rng.standard_normal((3, 20000))
    column_major = list(zip(*np.abs(sums).tolist()))
    assert walk._group_overlaps(sums) == [sum(x**2 for x in col) for col in column_major]
    assert np.square(np.abs(sums)).tolist() != [[x**2 for x in row] for row in np.abs(sums).tolist()]


def test_exact_average_equals_the_averaged_state_on_degenerate_spectra():
    # both exact evaluators read the walk snapped to one partition:
    # <y|time_averaged_density(|psi0><psi0|)|y> is the walk's probability
    grouped = 0
    for dim in range(2, 11):
        rng = rng_stream(30, dim)
        h = tied_hermitian(rng, dim)
        psi0, y = random_state(rng, dim), random_state(rng, dim)
        w = walk.spectral_walk(h, psi0, y)
        grouped += w.partition.n_groups < dim
        rho = walk.density_operator(np.outer(psi0.amplitudes, psi0.amplitudes.conj()))
        for T in (0.5, 30.0, 1e6):
            for k in (1, 2, 3):
                dist = TimeDistribution(T=T, k=k)
                avg = walk.time_averaged_density(h, rho, dist).entries
                assert abs(w.probability(dist) - (y.amplitudes.conj() @ avg @ y.amplitudes).real) <= 1e-14, (dim, T, k)
    assert grouped == 8  # each dimension above 2 repeats a level


def hypercube(n: int) -> np.ndarray:
    """Adjacency matrix of the hypercube Q_n: 2^n vertices, one edge per flipped bit."""
    v = np.arange(2**n)
    a = np.zeros((2**n, 2**n))
    for bit in range(n):
        a[v, v ^ (1 << bit)] = 1.0
    return a


@pytest.mark.parametrize(
    "make,groups",
    [(lambda rng: hypercube(6), 7), (lambda rng: tied_hermitian(rng, 10), 5)],
    ids=["hypercube-6", "tied-10"],
)
def test_exact_average_of_a_degenerate_walk_reads_its_groups_only(monkeypatch, make, groups):
    # the exact average and the averaged state build their pair kernel over the
    # G group energies, not over the d eigenvalues, and agree
    rng = rng_stream(31, groups)
    h = make(rng)
    dim = h.shape[0]
    psi0, y = random_state(rng, dim), random_state(rng, dim)
    w = walk.spectral_walk(h, psi0, y)
    assert w.partition.n_groups == groups < dim
    rho = walk.density_operator(np.outer(psi0.amplitudes, psi0.amplitudes.conj()))
    shapes, factors = [], walk._phase_factors
    monkeypatch.setattr(walk, "_phase_factors", lambda dist, energies, *rest: shapes.append(energies.shape) or factors(dist, energies, *rest))
    for T in (0.7, 40.0):
        for k in (1, 3):
            dist = TimeDistribution(T=T, k=k)
            p = w.probability(dist)
            assert shapes[-1] == (groups,)
            avg = walk.time_averaged_density(h, rho, dist).entries
            assert abs(p - (y.amplitudes.conj() @ avg @ y.amplitudes).real) <= 1e-12, (T, k)
    assert shapes == [(groups,)] * 8


def test_stacked_walks_name_the_ambiguous_matrix():
    # a chain of near-ties 0.6 tol apart, 1.2 tol wide (tol = 1e-8 * 10)
    h = np.stack([np.diag([0.0, 1.0, 2.0, 3.0]), np.diag([0.0, 6e-8, 1.2e-7, 10.0])]).astype(complex)
    states = walk.PureState(np.full((2, 4), 0.5, dtype=complex))
    dists = [TimeDistribution(T=1.0, k=1)] * 2
    with pytest.raises(AmbiguousDegeneracyError, match="^stack index 1: eigenvalue cluster 0..1.2e-07 has spread"):
        walk.spectral_walks(h, states, states, dists)
    with pytest.raises(AmbiguousDegeneracyError, match="^eigenvalue cluster 0..1.2e-07 has spread"):
        walk.spectral_walk(h[1], walk.PureState(states.amplitudes[1]), walk.basis_state(4, 0)).partition


def test_grid_minimum_skips_floor_and_nan_values_and_keeps_the_first_minimum():
    grid = np.array([1.0, 2.0, 3.0, 4.0, 6.0])
    # k T / value: inf (NaN), inf (at the floor), 4, 4, 4
    values = np.array([math.nan, 0.5, 1.5, 2.0, 3.0])
    assert walk._grid_minimum(grid, 2, values, 0.5, ValueError("none")) == (4.0, 2)
    with pytest.raises(DegenerateProbabilityError, match="none"):
        walk._grid_minimum(grid, 2, np.array([math.nan, 0.5, 0.1, 0.0, -1.0]), 0.5, DegenerateProbabilityError("none"))


def mp_probability(w: walk.SpectralWalk, dist: TimeDistribution) -> float:
    """sum_r sum_jk a_rj conj(a_rk) Phi(E_k - E_j) at 40 digits from the
    walk's float group energies and amplitudes, with Phi = 1 on the pairs of
    one group, as the float kernel defines it."""
    e, a = w.energies, w.rows * w.c
    group_of = np.repeat(np.arange(w.partition.n_groups), w.partition.lengths)
    with mpmath.workdps(40):
        em = [mpmath.mpf(float(w.partition.energies[g])) for g in group_of]
        gram = [[mpmath.fsum(mpmath.mpc(complex(x)) * mpmath.conj(mpmath.mpc(complex(y))) for x, y in zip(a[:, j], a[:, k]))
                 for k in range(len(e))] for j in range(len(e))]
        total = mpmath.fsum(gram[j][j].real for j in range(len(e)))
        for j in range(len(e)):
            for k in range(j + 1, len(e)):
                phi = 1 if group_of[k] == group_of[j] else mp_characteristic(dist.T, dist.k, em[k] - em[j])
                total += 2 * (gram[j][k] * phi).real
        return float(total)


def oracle_walks():
    """(name, walk, time laws): random Hermitian, glued columns, the complete
    search chain, and a spectrum with pairs inside tol_degen."""
    laws = [TimeDistribution(T=T, k=k) for T in (0.3, 5.0, 200.0) for k in (1, 2, 4)]
    for i, (_, dim, h, psi0, y) in enumerate(instance_stream(41, 12, 2, 10)):
        yield f"random-{i}-dim{dim}", walk.spectral_walk(h, psi0, y), laws
    for two_n in (4, 8, 16, 32):
        n = two_n // 2
        glued_laws = [TimeDistribution(T=T, k=k) for T in (2.0 * n, 64.0 * n) for k in (1, math.ceil(math.log2(5 * n)))]
        yield f"glued-{two_n}", gluedtrees.column_walk(two_n), glued_laws
    chain = markov.lazify(markov.complete_chain(8))
    inter = markov.interpolate(chain, 0, markov.s_star(chain, 0))
    yield "complete-8", search._discriminant_walk(inter, np.sqrt(chain.pi))[0], laws
    rng = rng_stream(41, 99)
    energies = np.array([-1.0, -0.3, -0.3 + 2e-10, 0.4, 0.4 + 5e-10, 0.4 + 7e-10, 1.0])
    c = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    q, _ = np.linalg.qr(rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7)))
    degenerate = walk.SpectralWalk(energies, c / np.linalg.norm(c), q[:2], None)
    assert degenerate.tol_degen == pytest.approx(2e-8)
    # at T = 1e9 the degenerate pairs' own Phi is far from the 1 they get
    yield "degenerate", degenerate, laws + [TimeDistribution(T=1e9, k=k) for k in (1, 3)]


def test_probability_matches_mpmath_oracle():
    for name, w, laws in oracle_walks():
        for dist in laws:
            exact = mp_probability(w, dist)
            assert abs(w.probability(dist) - exact) <= 1e-12 * abs(exact), (name, dist)


def test_probability_peak_memory_column_walk_512():
    w = gluedtrees.column_walk(512)
    d = w.energies.shape[0]
    tracemalloc.start()
    try:
        w.probability(TimeDistribution(T=64.0 * 256, k=12))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the two buffers of the pair kernel, its masks and the O(d) partition, cold
    assert peak <= 2.25 * d * d * 8


def test_probability_keeps_no_dim_squared_array():
    # the walk's cached state stays O(d + R d): no gap matrix outlives an exact average
    w = gluedtrees.column_walk(2048)
    d = w.energies.shape[0]
    w.probability(TimeDistribution(T=64.0 * 1024, k=12))
    arrays = [x for x in (*vars(w).values(), *vars(w.partition).values()) if isinstance(x, np.ndarray)]
    assert arrays and max(x.size for x in arrays) < d * d


def test_a_warm_probability_holds_two_pair_sized_buffers():
    w = gluedtrees.column_walk(512)
    d = w.energies.shape[0]
    w.probability(TimeDistribution(T=10.0, k=3))  # builds the partition and the group overlaps
    tracemalloc.start()
    try:
        w.probability(TimeDistribution(T=64.0 * 256, k=11))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the half-angle arguments, turned into |sinc|^k in place, and sinc itself
    assert peak <= 2.25 * d * d * 8


def test_reduced_walk_has_a_partition():
    # the partition groups the energies alone: a walk without its decomposition has one
    w = walk.SpectralWalk(np.array([-1.0, -1.0, 1.0]), np.array([0.6, 0.0, 0.8]), np.eye(3)[:1], None)
    assert w.probability(TimeDistribution(T=1.0, k=1)) == pytest.approx(0.36, abs=1e-15)  # the target is E_0
    assert w.partition.lengths == (2, 1)
    assert w.partition.delta_e_star == (2.0, 2.0)
    assert w.overlaps == pytest.approx((0.36, 0.0), abs=1e-15)
    assert w.limiting_probability == pytest.approx(0.36, abs=1e-15)


# ---------------------------------------------------------------------------
# hitting-time functional


def test_hitting_time_trivial_eigenstate_target():
    rng = rng_stream(27, 0)
    h = random_hermitian(rng, 4)
    dec = spectral.decompose(h)
    e = walk.pure_state(dec.eigenvectors[:, 0])
    grid = np.array([2.0, 5.0, 9.0])
    est = walk.hitting_time_estimate(h, e, e, grid, k=1)
    assert est.tau == pytest.approx(2.0, rel=1e-12)
    assert est.argmin_T == pytest.approx(2.0)
    assert est.probability_at_argmin == pytest.approx(1.0, abs=1e-10)


def test_hitting_time_unreachable_target():
    h = np.diag([0.0, 1.0])
    with pytest.raises(DegenerateProbabilityError):
        walk.hitting_time_estimate(h, walk.basis_state(2, 0), walk.basis_state(2, 1), np.array([1.0, 10.0]), k=1)


def test_hitting_time_ratio_dominates_grid():
    rng = rng_stream(27, 1)
    h = random_hermitian(rng, 5)
    psi0 = random_state(rng, 5)
    y = random_state(rng, 5)
    grid = walk.geometric_grid(0.5, 50.0, per_decade=10)
    est = walk.hitting_time_estimate(h, psi0, y, grid, k=2)
    for t in grid:
        p = walk.avg_probability_exact(h, psi0, y, TimeDistribution(T=float(t), k=2))
        if p > 1e-15:
            assert est.tau <= 2 * t / p + 1e-9


def test_hitting_time_single_segment_glued_scaling():
    # plain uniform-time walk, grid spanning Theta(n) scales: the optimal
    # time-over-probability ratio grows polynomially with slope well under 3.3
    sizes = (8, 12, 16, 20)
    taus = []
    for n in sizes:
        two_n = 2 * n
        h = gluedtrees.column_hamiltonian(two_n)
        grid = walk.geometric_grid(float(n), 64.0 * n, per_decade=20)
        est = walk.hitting_time_estimate(h, walk.basis_state(two_n, 0), walk.basis_state(two_n, two_n - 1), grid, k=1)
        taus.append(est.tau)
    slope = np.polyfit(np.log(sizes), np.log(taus), 1)[0]
    assert 1.5 <= slope <= 3.3


def test_geometric_grid_shape():
    g = walk.geometric_grid(1.0, 1000.0, per_decade=40)
    assert g[0] == pytest.approx(1.0)
    assert g[-1] == pytest.approx(1000.0)
    assert len(g) == 121
    with pytest.raises(ValidationError):
        walk.geometric_grid(5.0, 2.0)


# ---------------------------------------------------------------------------
# the screened hitting time: exact averages only where the grid minimum can be


def assert_screen_holds(w: walk.SpectralWalk, grid: np.ndarray, k: int) -> None:
    """Every exact p(T) on the grid lies within p_inf +- (D(T) + slack), and
    hitting_time equals the full-grid loop in all five fields, bitwise, or
    raises the same error."""
    p_inf, reach = w.limiting_probability, w._envelope(grid, k)
    for t, r in zip(grid.tolist(), reach.tolist(), strict=True):
        p = w.probability(TimeDistribution(T=t, k=k))
        assert abs(p - p_inf) <= r, (t, k, p, p_inf, r)
    try:
        want = hitting_time_by_grid(w, grid, k)
    except DegenerateProbabilityError as exc:
        with pytest.raises(DegenerateProbabilityError, match=f"^{re.escape(str(exc))}$"):
            w.hitting_time(grid, k)
    else:
        # repr tells every float apart, -0.0 from 0.0 too
        assert repr(w.hitting_time(grid, k)) == repr(want)


@st.composite
def dense_walks(draw) -> walk.SpectralWalk:
    """A walk on a random or exactly tied Hermitian matrix of dimension 2..12,
    towards one random state or 1-3 orthonormal target columns."""
    make = draw(st.sampled_from([random_hermitian, tied_hermitian]))
    dim = draw(st.integers(2, 12))
    n_rows = draw(st.integers(1, min(3, dim)))
    rng = rng_stream(draw(st.integers(0, 2**32 - 1)))
    h, psi0 = make(rng, dim), random_state(rng, dim)
    if n_rows == 1:
        return walk.spectral_walk(h, psi0, random_state(rng, dim))
    basis, _ = np.linalg.qr(rng.standard_normal((dim, n_rows)) + 1j * rng.standard_normal((dim, n_rows)))
    return walk.spectral_walk(h, psi0, basis)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(dense_walks(), st.integers(1, 6), st.floats(-2.0, 2.0), st.floats(0.3, 3.0))
def test_screened_hitting_time_equals_the_full_grid(w, k, lo_decade, decades):
    assert_screen_holds(w, walk.geometric_grid(10.0**lo_decade, 10.0 ** (lo_decade + decades), per_decade=20), k)


@pytest.mark.parametrize("k", [1, 2, 3, 6])
def test_screened_hitting_time_of_hand_walks(k):
    grid = walk.geometric_grid(0.05, 1e5, per_decade=20)
    rng = rng_stream(41, 0)
    psi0, y = random_state(rng, 3), random_state(rng, 3)
    # one group: D is 0, and p(T) sits an ulp off p_inf, so only the slack holds it;
    # so it does at large T, where D falls below an ulp
    assert_screen_holds(walk.spectral_walk(0.3 * np.eye(3), psi0, y), grid, k)
    assert_screen_holds(walk.spectral_walk(random_hermitian(rng, 3), psi0, y), grid, k)
    # y = psi0 at small T: all pairs in phase, so p - p_inf reaches D
    assert_screen_holds(walk.spectral_walk(np.diag([0.0, 1.0, 3.0]), psi0, psi0), grid, k)
    # an imaginary cross term: |Im Phi| runs above half the envelope at k = 1
    plus_i = walk.pure_state(np.array([1.0, 1j]) / math.sqrt(2.0))
    plus = walk.pure_state(np.array([1.0, 1.0]) / math.sqrt(2.0))
    assert_screen_holds(walk.spectral_walk(np.diag([0.0, 1.0]), plus, plus_i), grid, k)


def test_screened_hitting_time_of_an_unreachable_target():
    grid = walk.geometric_grid(0.1, 100.0, per_decade=10)
    for k in (1, 4):
        assert_screen_holds(walk.spectral_walk(np.diag([0.0, 1.0]), walk.basis_state(2, 0), walk.basis_state(2, 1)), grid, k)
        # the start reaches one eigenspace of a tied walk, the target the other
        h = np.diag([0.0, 0.0, 2.0])
        assert_screen_holds(walk.spectral_walk(h, walk.basis_state(3, 0), walk.basis_state(3, 2)), grid, k)


@pytest.mark.parametrize("two_n", [8, 16, 32, 64, 128, 256])
def test_screened_hitting_time_of_the_column_walk(two_n):
    w = gluedtrees.column_walk(two_n)
    _, k, _ = gluedtrees.default_schedule(two_n)
    # the CLI's tau_exact grid, and a wider one reaching down to where p is small
    t_lo = 2.0 / gluedtrees.subspace_S(w).delta_e_s
    for grid in (walk.geometric_grid(t_lo, 64.0 * t_lo), walk.geometric_grid(0.01 * t_lo, 100.0 * t_lo, per_decade=10)):
        for kk in (1, k):
            assert_screen_holds(w, grid, kk)


def test_screened_hitting_time_of_the_hypercube():
    w = walk.spectral_walk(hypercube(6), walk.basis_state(64, 0), walk.basis_state(64, 63))
    grid = walk.geometric_grid(0.1, 1000.0, per_decade=20)
    for k in (1, 2, 5):
        assert_screen_holds(w, grid, k)
