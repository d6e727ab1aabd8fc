import math

import numpy as np
import pytest

from ctqw import gluedtrees, spectral, walk
from ctqw.errors import DegenerateProbabilityError, InconsistencyError, ValidationError
from ctqw.rng import rng_stream
from ctqw.walk import TimeDistribution

from conftest import instance_stream, random_hermitian, random_state


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


def test_characteristic_series_matches_formula_near_zero():
    # the removable singularity is handled by series; both branches must agree
    # just above the switch point
    dist = TimeDistribution(T=1.0, k=1)
    for x in (1.001e-8, 1e-7, 1e-6):
        exact = (np.exp(1j * x) - 1.0) / (1j * x)
        assert walk.characteristic(dist, x) == pytest.approx(exact, abs=1e-15)


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
    part = spectral.group_eigenspaces(spectral.decompose(h))
    de_min = spectral.gaps(part).delta_e_min
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


def test_sample_walk_no_dynamics_is_deterministic():
    freqs = walk.sample_walk(np.zeros((5, 5)), walk.basis_state(5, 3), TimeDistribution(T=1.0, k=1), rng_seed=9, trials=500, measurement_basis=np.eye(5))
    assert freqs[3] == pytest.approx(1.0, abs=0.0)


def test_sample_walk_reproducible():
    rng = rng_stream(26, 0)
    h = random_hermitian(rng, 4)
    psi0 = random_state(rng, 4)
    dist = TimeDistribution(T=5.0, k=2)
    a = walk.sample_walk(h, psi0, dist, rng_seed=77, trials=4000, measurement_basis=np.eye(4))
    b = walk.sample_walk(h, psi0, dist, rng_seed=77, trials=4000, measurement_basis=np.eye(4))
    assert a.tobytes() == b.tobytes()


def test_sample_walk_glued_matches_exact_within_3_sigma():
    two_n, n = 8, 4
    h = gluedtrees.column_hamiltonian(two_n)
    k = math.ceil(math.log2(5 * n))
    dist = TimeDistribution(T=64.0 * n, k=k)
    psi0 = walk.basis_state(two_n, 0)
    y = walk.basis_state(two_n, two_n - 1)
    exact = walk.avg_probability_exact(h, psi0, y, dist)
    trials = 200000
    freqs = walk.sample_walk(h, psi0, dist, rng_seed=5, trials=trials, measurement_basis=np.eye(two_n))
    sigma = math.sqrt(exact * (1 - exact) / trials)
    assert abs(freqs[two_n - 1] - exact) <= 3.0 * sigma


def test_sample_walk_two_level_within_3_sigma():
    h = np.diag([0.0, 1.0])
    plus = walk.pure_state(np.array([1.0, 1.0]) / math.sqrt(2))
    T = math.pi
    trials = 100000
    freqs = walk.sample_walk(h, plus, TimeDistribution(T=T, k=1), rng_seed=6, trials=trials, measurement_basis=np.column_stack([plus.amplitudes, np.array([1.0, -1.0]) / math.sqrt(2)]))
    sigma = math.sqrt(0.5 * 0.5 / trials)
    assert abs(freqs[0] - 0.5) <= 3.0 * sigma


def test_sampler_partial_chunk_counts_and_frequency():
    two_n, n = 8, 4
    h = gluedtrees.column_hamiltonian(two_n)
    w = walk.spectral_walk(h, walk.basis_state(two_n, 0), walk.basis_state(two_n, two_n - 1))
    dist = TimeDistribution(T=64.0 * n, k=math.ceil(math.log2(5 * n)))
    exact = w.probability(dist)
    shots = 2 * walk.SAMPLE_CHUNK + 1
    times, outcomes = w.sample(dist, rng_stream(3), shots)
    assert times.shape == outcomes.shape == (shots,)
    assert set(np.unique(outcomes)) <= {0, 1}
    freq = np.count_nonzero(outcomes == 0) / shots
    assert abs(freq - exact) <= 4.0 * math.sqrt(exact * (1 - exact) / shots)
    # chunks draw in a fixed order, so a shorter run is a prefix of a longer one
    head_t, head = w.sample(dist, rng_stream(3), walk.SAMPLE_CHUNK)
    assert np.array_equal(head, outcomes[: walk.SAMPLE_CHUNK])
    assert np.array_equal(head_t, times[: walk.SAMPLE_CHUNK])


def test_sample_walk_rejects_bad_trials():
    with pytest.raises(ValidationError):
        walk.sample_walk(np.eye(2), walk.basis_state(2, 0), TimeDistribution(T=1.0, k=1), rng_seed=1, trials=0)


def test_spectral_walk_grid_equals_single_points_and_quadrature():
    rng = rng_stream(28, 0)
    h = random_hermitian(rng, 6)
    psi0, y = random_state(rng, 6), random_state(rng, 6)
    grid = walk.geometric_grid(0.3, 30.0, per_decade=5)
    w = walk.spectral_walk(h, psi0, y)
    for k in (1, 3):
        probs = w.probabilities(grid, k)
        # a fresh evaluator per T shares no kept value with w
        single = [walk.spectral_walk(h, psi0, y).probability(TimeDistribution(T=float(t), k=k)) for t in grid]
        assert np.max(np.abs(probs - np.array(single))) <= 1e-15
    quad = [walk.avg_probability_quadrature(h, psi0, y, float(t)) for t in grid]
    assert np.max(np.abs(w.probabilities(grid, 1) - np.array(quad))) <= 1e-8


def test_spectral_walk_state_target_equals_one_column_basis():
    rng = rng_stream(28, 1)
    h = random_hermitian(rng, 5)
    psi0, y = random_state(rng, 5), random_state(rng, 5)
    dist = TimeDistribution(T=4.0, k=2)
    as_state = walk.spectral_walk(h, psi0, y)
    as_basis = walk.spectral_walk(h, psi0, y.amplitudes[:, None])
    assert as_state.probability(dist) == pytest.approx(as_basis.probability(dist), abs=1e-14)
    assert as_state.limiting_probability == pytest.approx(as_basis.limiting_probability, abs=1e-14)


def test_spectral_walk_evaluates_each_time_law_once(monkeypatch):
    rng = rng_stream(28, 2)
    h = random_hermitian(rng, 4)
    w = walk.spectral_walk(h, random_state(rng, 4), random_state(rng, 4))
    calls = []
    phi = walk._phi_matrix
    monkeypatch.setattr(walk, "_phi_matrix", lambda *args: calls.append(args[0]) or phi(*args))
    first = w.probability(TimeDistribution(T=3.0, k=2))
    assert w.probability(TimeDistribution(T=3.0, k=2)) == first
    w.probability(TimeDistribution(T=3.0, k=1))
    assert calls == [TimeDistribution(T=3.0, k=2), TimeDistribution(T=3.0, k=1)]


def test_reduced_walk_has_no_partition():
    w = walk.SpectralWalk(np.array([-1.0, 1.0]), np.ones(2) / math.sqrt(2), np.eye(2), None)
    assert w.probability(TimeDistribution(T=1.0, k=1)) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValidationError):
        w.partition


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
