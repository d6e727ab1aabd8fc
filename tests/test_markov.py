"""Reversible-chain layer: validation, interpolation, hitting times."""
import dataclasses
import math

import re

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from ctqw import markov
from ctqw.errors import (
    InconsistencyError,
    IrreversibleChainError,
    MarkedWeightError,
    NonErgodicError,
    ValidationError,
)
from ctqw.rng import rng_stream

from conftest import birth_death_payload, cube_quotient_payload

TWO_STATE = np.array([[0.7, 0.3], [0.2, 0.8]])


def star_with_heavy_center(extra: float = 10.0) -> np.ndarray:
    """Random walk on K_{1,4} with a weight-`extra` self-loop at the center.

    Plain stars put exactly half the stationary weight on the center; the
    self-loop pushes it strictly above 1/2.
    """
    w = np.zeros((5, 5))
    w[0, 1:] = w[1:, 0] = 1.0
    w[0, 0] = extra
    p = w / w.sum(axis=1, keepdims=True)
    return p


# ---------------------------------------------------------------------------
# validation and stationary distributions


def test_complete_chain_uniform_stationary():
    chain = markov.complete_chain(8)
    assert np.allclose(chain.pi, np.full(8, 1 / 8), atol=1e-12)
    assert chain.detailed_balance_residual <= 1e-12


def test_directed_cycle_rejected():
    p = np.roll(np.eye(3), 1, axis=1)
    with pytest.raises(IrreversibleChainError) as exc:
        markov.validate_chain(p)
    assert "residual" in str(exc.value) or "balance" in str(exc.value)


def test_disconnected_chain_rejected():
    p = np.eye(4)
    with pytest.raises(NonErgodicError):
        markov.validate_chain(p)


def test_bad_row_sums_rejected():
    p = np.array([[0.5, 0.4], [0.5, 0.5]])
    with pytest.raises(ValidationError):
        markov.validate_chain(p)


def test_weighted_degree_stationary():
    # symmetric weights: pi is proportional to weighted degree
    rng = np.random.default_rng(55)
    w = rng.random((6, 6)) + 0.1
    w = w + w.T
    p = w / w.sum(axis=1, keepdims=True)
    chain = markov.validate_chain(p)
    expect = w.sum(axis=1) / w.sum()
    assert np.max(np.abs(chain.pi - expect)) <= 1e-12


def test_periodic_chain_needs_flag():
    # a periodic chain validates; aperiodic records it, and lazify mends it
    p = np.array([[0.0, 1.0], [1.0, 0.0]])
    chain = markov.validate_chain(p)
    assert not chain.aperiodic


def weighted_graph_exact(seed: int):
    """A sparse weighted graph whose weights span 12 decades: ring 0..39 plus
    chords. Returns its payload and pi, the weighted degrees normalized."""
    rng = np.random.default_rng(seed)
    n = 40
    edges = [(i, (i + 1) % n) for i in range(n)] + [tuple(rng.choice(n, 2, replace=False)) for _ in range(30)]
    data = [[int(i), int(j), float(10.0 ** rng.uniform(-6, 6))] for i, j in edges]
    degree = [math.fsum(wt for i, j, wt in data for end in (i, j) if end == v) for v in range(n)]
    total = math.fsum(degree)
    return {"n": n, "format": "weighted-graph", "data": data, "marked": 0}, np.array([d / total for d in degree])


def random_reversible_exact(n: int, seed: int) -> np.ndarray:
    # random_reversible_chain's weights; pi is their row sums, normalized
    w = rng_stream(seed, 19).random((n, n)) + 0.05
    sums = [math.fsum(row) for row in 0.5 * (w + w.T)]
    total = math.fsum(sums)
    return np.array([x / total for x in sums])


@pytest.mark.parametrize(
    "make, exact",
    [
        *[pytest.param(lambda n=n: markov.complete_chain(n), lambda n=n: np.full(n, 1.0 / n), id=f"complete-{n}") for n in (8, 64, 1024)],
        *[pytest.param(lambda n=n: markov.cycle_chain(n), lambda n=n: np.full(n, 1.0 / n), id=f"cycle-{n}") for n in (9, 64, 1024)],
        *[
            pytest.param(lambda n=n: markov.random_reversible_chain(n, 3), lambda n=n: random_reversible_exact(n, 3), id=f"random-{n}")
            for n in (8, 64, 1024)
        ],
        *[
            pytest.param(
                lambda n=n: markov.chain_from_payload(birth_death_payload(n))[0],
                lambda n=n: np.array([2 * 3**i / (3**n - 1) for i in range(n)]),
                id=f"birth-death-{n}",
            )
            for n in (11, 21, 31, 41)
        ],
        *[
            pytest.param(
                lambda d=d: markov.chain_from_payload(cube_quotient_payload(d))[0],
                lambda d=d: np.array([math.comb(d, w) / 2**d for w in range(d + 1)]),
                id=f"cube-quotient-{d}",
            )
            for d in (50, 200)
        ],
        pytest.param(
            lambda: markov.chain_from_payload(weighted_graph_exact(4)[0])[0], lambda: weighted_graph_exact(4)[1], id="weighted-graph"
        ),
    ],
)
def test_stationary_vector_is_exact_to_rounding(make, exact):
    # detailed balance along the breadth-first levels: no solve, so no digits
    # lost on weights that span many decades (the cube quotients reach 2^-200)
    pi, expect = make().pi, exact()
    assert np.max(np.abs(pi - expect) / expect) <= 1e-14


def test_one_way_edge_is_named():
    # strongly connected (0 -> 1 -> 2 -> 0), but 1 -> 0 and 0 -> 2 are missing
    p = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.25, 0.25]])
    with pytest.raises(IrreversibleChainError, match=re.escape("edge (0, 1) is one way: P_ji = 0")):
        markov.validate_chain(p)


def test_symmetric_support_without_detailed_balance_is_refused():
    # every edge runs both ways, yet pi_0 P_01 P_12 P_20 != pi_0 P_02 P_21 P_10:
    # the tree's pi balances 0-1 and 0-2, and the pair (1, 2) fails
    p = np.array([[0.2, 0.5, 0.3], [0.3, 0.2, 0.5], [0.5, 0.3, 0.2]])
    with pytest.raises(IrreversibleChainError, match=r"^detailed balance fails at \((1, 2|2, 1)\)"):
        markov.validate_chain(p)


def test_weights_beyond_float64_range_are_refused():
    # pi_i ~ 3^i over 700 states spans 1e334: no float64 vector holds it
    with pytest.raises(InconsistencyError, match="weights span beyond float64"):
        markov.chain_from_payload(birth_death_payload(700))


def test_disconnected_chain_names_a_cut_off_vertex():
    p = np.eye(3)
    p[0] = [0.5, 0.5, 0.0]  # 0 -> 1 is one way; 2 is isolated
    with pytest.raises(NonErgodicError, match="vertex 2 is not reached from vertex 0"):
        markov.validate_chain(p)
    p[0] = [0.4, 0.3, 0.3]
    p[2] = [0.5, 0.0, 0.5]  # 0 and 2 reach each other; 1 can only be entered
    with pytest.raises(NonErgodicError, match="vertex 1 does not reach vertex 0"):
        markov.validate_chain(p)


def test_connectivity_matches_strong_components():
    rng = np.random.default_rng(2024)
    outcomes = {True: 0, False: 0}
    for case in range(200):
        n = 1 if case % 25 == 0 else int(rng.integers(2, 41))
        support = rng.random((n, n)) < rng.uniform(0.3, 3.0) * math.log(n + 1) / n
        j = int(rng.integers(n))
        if case % 4 == 1:
            support[:, j] = False  # j can only be left
        elif case % 4 == 2:
            support[j, :] = False  # j can only be entered
        n_comp, label = connected_components(csr_matrix(support), directed=True, connection="strong")
        outcomes[n_comp == 1] += 1
        if n_comp == 1:
            assert np.all(markov._connected_levels(support) >= 0)
        else:
            with pytest.raises(NonErgodicError) as exc:
                markov._connected_levels(support)
            v = int(re.search(r"vertex (\d+) ", str(exc.value)).group(1))
            assert label[v] != label[0]
    assert min(outcomes.values()) >= 40


def loop_period(p):
    # the per-edge gcd loop over a vertex-by-vertex sweep that _period vectorizes
    n = p.shape[0]
    level = np.full(n, -1)
    level[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in np.nonzero(p[u] > 0)[0]:
                if level[v] < 0:
                    level[v] = level[u] + 1
                    nxt.append(int(v))
        frontier = nxt
    g = 0
    rows, cols = np.nonzero(p > 0)
    for u, v in zip(rows, cols):
        g = math.gcd(g, int(level[u] + 1 - level[v]))
    return g if g > 0 else 1


def test_period_matches_loop():
    chains = [markov.cycle_chain(n) for n in range(3, 12)]
    chains += [markov.lazify(c) for c in chains[:4]]
    chains += [markov.complete_chain(n) for n in (2, 3, 5, 16)]
    chains += [markov.random_reversible_chain(n, seed) for n, seed in ((2, 0), (7, 1), (30, 2))]
    periods = []
    for chain in chains:
        support = chain.P > 0
        period = markov._period(support, markov._connected_levels(support))
        assert period == loop_period(chain.P)
        assert chain.aperiodic == (period == 1)
        periods.append(period)
    assert periods[:9] == [1, 2, 1, 2, 1, 2, 1, 2, 1]  # odd and even cycles
    assert set(periods[9:]) == {1, 2}  # only complete_chain(2) is periodic


# ---------------------------------------------------------------------------
# lazification


def test_lazify_keeps_stationary_maps_spectrum():
    base = markov.validate_chain(np.array([[0.0, 1.0], [1.0, 0.0]]))
    lazy = markov.lazify(base)
    assert lazy.lazified and lazy.aperiodic
    assert np.allclose(lazy.pi, base.pi, atol=1e-14)
    evals = np.sort(np.linalg.eigvals(lazy.P).real)
    assert evals[0] == pytest.approx(0.0, abs=1e-12)  # -1 maps to 0
    d_evals = np.linalg.eigvalsh(markov.discriminant(lazy.P))
    assert np.all(d_evals >= -1e-12)


def test_lazify_doubles_hitting_time():
    base = markov.validate_chain(TWO_STATE)
    lazy = markov.lazify(base)
    ht = markov.classical_hitting_time(base, 0)
    assert markov.classical_hitting_time(lazy, 0) == pytest.approx(2.0 * ht, rel=1e-12)


def test_sampled_hitting_time_matches_solve():
    lazy = markov.lazify(markov.validate_chain(TWO_STATE))
    out = markov.sample_hitting_time(lazy, marked=0, rng_seed=97, walks=20000)
    assert abs(out["mean"] - out["exact"]) <= 3.0 * out["std_error"]


# ---------------------------------------------------------------------------
# interpolation and s*


def test_interpolate_endpoints():
    chain = markov.complete_chain(5)
    p0 = markov.interpolate(chain, 2, 0.0)
    assert np.allclose(p0.P_s, chain.P, atol=1e-14)
    p1 = markov.interpolate(chain, 2, 1.0)
    absorbing = np.zeros(5)
    absorbing[2] = 1.0
    assert np.allclose(p1.P_s[2], absorbing, atol=1e-14)
    with pytest.raises(ValidationError):
        markov.interpolate(chain, 2, 1.5)
    with pytest.raises(ValidationError):
        markov.interpolate(chain, 2, -0.1)


def test_interpolated_stationary_closed_form():
    chain = markov.validate_chain(TWO_STATE)
    for s in (0.0, 0.25, 0.8):
        ic = markov.interpolate(chain, 0, s)
        pv = chain.pi[0]
        z = (1 - s) * (1 - pv) + pv
        assert ic.pi_s[0] == pytest.approx(pv / z, rel=1e-12)
        # stationarity of the closed form under P_s
        assert np.max(np.abs(ic.pi_s @ ic.P_s - ic.pi_s)) <= 1e-12


def test_s_star_values():
    assert markov.s_star(markov.complete_chain(8), 3) == pytest.approx(1.0 - 1.0 / 7.0, rel=1e-12)
    # pi_v exactly 1/2 (star center): boundary value 0
    w = np.zeros((5, 5))
    w[0, 1:] = w[1:, 0] = 1.0
    star = markov.validate_chain(w / w.sum(axis=1, keepdims=True))
    assert star.pi[0] == pytest.approx(0.5, abs=1e-14)
    assert markov.s_star(star, 0) == 0.0
    # vanishing marked weight pushes s* toward 1
    assert markov.s_star(markov.complete_chain(400), 0) > 0.99


def test_s_star_overweight_vertex_rejected():
    chain = markov.validate_chain(star_with_heavy_center())
    assert chain.pi[0] > 0.5
    with pytest.raises(MarkedWeightError):
        markov.s_star(chain, 0)


def test_marked_weight_at_s_star():
    chain = markov.complete_chain(8)
    s = markov.s_star(chain, 1)
    ic = markov.interpolate(chain, 1, s)
    assert ic.pi_s[1] == pytest.approx(0.5, abs=1e-12)
    # top discriminant eigenvector puts weight 1/sqrt(2) on the marked vertex
    d = markov.discriminant(ic.P_s)
    evals, evecs = np.linalg.eigh(d)
    top = np.abs(evecs[:, -1])
    assert top[1] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-10)


# ---------------------------------------------------------------------------
# hitting times


def test_hitting_time_single_state():
    chain = markov.validate_chain(np.array([[1.0]]))
    assert markov.classical_hitting_time(chain, 0) == 0.0


def test_hitting_time_beyond_float64_is_refused():
    # HT of vertex 0 is about 3^40 steps: I - Q is singular in float64
    lazy = markov.lazify(markov.chain_from_payload(birth_death_payload(41))[0])
    with pytest.raises(InconsistencyError, match="beyond float64 precision"):
        markov.classical_hitting_time(lazy, 0)


@pytest.mark.xfail(
    strict=True,
    reason="s_star returns s* = 1 - pi_m / (1 - pi_m), and interpolate takes 1 - s* again: at pi_m = 1.9e-10 "
    "the cancellation leaves the marked weight 4.7e-8 off 1/2 (ROADMAP, correctness debt 8)",
)
def test_half_weight_point_of_a_tiny_marked_weight():
    lazy = markov.lazify(markov.chain_from_payload(birth_death_payload(21))[0])
    ic = markov.interpolate(lazy, 0, markov.s_star(lazy, 0))
    assert abs(ic.pi_s[0] - 0.5) <= 1e-12


def gap_at_s_star(chain, marked):
    """(s*, 1 - lambda_2 of the interpolated discriminant at s*, HT)."""
    s = markov.s_star(chain, marked)
    eigs = np.linalg.eigvalsh(markov.discriminant(markov.interpolate(chain, marked, s).P_s))
    return s, float(1.0 - eigs[-2]), markov.classical_hitting_time(chain, marked)


def test_two_state_hand_oracle():
    # from state 1, absorb at 0: h = 1 + 0.8 h so h = 5; HT averages over
    # pi = (0.4, 0.6): 0.6 * 5 = 3. s* = 1 - 0.4/0.6 = 1/3; the interpolated
    # discriminant gap at s* is 0.4, so gap * HT = 1.2
    chain = markov.validate_chain(TWO_STATE)
    assert np.allclose(chain.pi, [0.4, 0.6], atol=1e-12)
    assert markov.classical_hitting_time(chain, 0) == pytest.approx(3.0, rel=1e-12)
    s, gap, ht = gap_at_s_star(chain, 0)
    assert s == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert gap == pytest.approx(0.4, rel=1e-10)
    assert gap * ht == pytest.approx(1.2, rel=1e-10)


def test_sample_hitting_time_three_sigma():
    for chain, marked in ((markov.complete_chain(6), 2), (markov.cycle_chain(5), 0)):
        out = markov.sample_hitting_time(chain, marked, rng_seed=31, walks=20000)
        assert abs(out["mean"] - out["exact"]) <= 3.0 * out["std_error"]
        assert out["walks"] == 20000


class ScriptedRng:
    """Stands in for a generator: hands out fixed uniforms, call by call."""

    def __init__(self, *draws):
        self.draws = [np.asarray(d, dtype=float) for d in draws]

    def random(self, size):
        draw = self.draws.pop(0)
        assert draw.shape == (size,)
        return draw


def test_sample_hitting_time_row_cumsum_below_one(monkeypatch):
    # row 1 of this chain sums, in floats, to 2^-52 below 1; the largest
    # uniform, 1 - 2^-53, lies above it. The walk must take the row's last
    # supported column (vertex 2), not jump to vertex 0, the marked one.
    p = np.full((3, 3), 0.25) + 0.25 * np.eye(3)
    chain = markov.validate_chain(p)
    short = p.copy()
    short[1, 2] = 0.25 - 2.0**-52
    assert np.cumsum(short[1])[-1] == 1.0 - 2.0**-52
    short_chain = dataclasses.replace(chain, P=short)
    # start at vertex 1, draw the largest uniform, then step 2 -> 0
    draws = ScriptedRng([0.5], [1.0 - 2.0**-53], [0.1])
    monkeypatch.setattr(markov, "rng_stream", lambda *path: draws)
    out = markov.sample_hitting_time(short_chain, 0, rng_seed=1, walks=1)
    assert out["mean"] == 2.0
    assert not draws.draws


def test_gap_hitting_time_floor():
    # Delta(s*) * HT stays above the constant 1 on both families
    for n in (4, 8, 16, 32):
        _, gap, ht = gap_at_s_star(markov.complete_chain(n), 0)
        assert gap * ht >= 1.0
    for n in (4, 8, 16):
        _, gap, ht = gap_at_s_star(markov.cycle_chain(n), 0)
        assert gap * ht >= 1.0


# ---------------------------------------------------------------------------
# discriminant similarity


def test_discriminant_similar_to_interpolated_chain():
    chain = markov.random_reversible_chain(6, seed=8)
    for s in (0.0, 0.3, 0.7):
        ic = markov.interpolate(chain, 4, s)
        d = markov.discriminant(ic.P_s)
        ev_d = np.sort(np.linalg.eigvalsh(d))
        ev_p = np.sort(np.linalg.eigvals(ic.P_s).real)
        assert np.max(np.abs(ev_d - ev_p)) <= 1e-8
        # top eigenvector is sqrt(pi_s) up to sign
        _, evecs = np.linalg.eigh(d)
        top = evecs[:, -1]
        top = top * np.sign(top[np.argmax(np.abs(top))])
        assert np.max(np.abs(top - np.sqrt(ic.pi_s))) <= 1e-8


# ---------------------------------------------------------------------------
# payloads


def test_payload_round_trip_dense():
    chain = markov.random_reversible_chain(4, seed=2)
    payload = {"n": 4, "format": "dense", "data": chain.P.tolist(), "marked": 3}
    back, marked = markov.chain_from_payload(payload)
    assert marked == 3
    assert np.allclose(back.P, chain.P, atol=1e-15)


def test_payload_weighted_graph():
    payload = {
        "n": 3,
        "format": "weighted-graph",
        "data": [[0, 1, 2.0], [1, 2, 1.0], [0, 2, 1.0]],
        "marked": 1,
    }
    chain, marked = markov.chain_from_payload(payload)
    assert marked == 1
    w = np.array([[0, 2, 1], [2, 0, 1], [1, 1, 0]], dtype=float)
    assert np.allclose(chain.P, w / w.sum(axis=1, keepdims=True), atol=1e-14)


def test_payload_weighted_graph_indices_must_be_whole_numbers():
    payload = {"n": 3, "format": "weighted-graph", "marked": 1}
    for bad in ([0, 1.7, 1.0], [0.5, 1, 1.0], [float("nan"), 1, 1.0]):
        with pytest.raises(ValidationError, match="whole-number vertex indices"):
            markov.chain_from_payload({**payload, "data": [[0, 1, 1.0], bad, [0, 2, 1.0]]})
    # whole-number floats, as JSON may carry them, name the same edges as ints
    floats, _ = markov.chain_from_payload({**payload, "data": [[0.0, 1.0, 1.0], [1.0, 2.0, 1.0], [2, 0, 1.0]]})
    ints, _ = markov.chain_from_payload({**payload, "data": [[0, 1, 1.0], [1, 2, 1.0], [2, 0, 1.0]]})
    assert np.array_equal(floats.P, ints.P)


def test_payload_size_and_marked_must_be_whole_numbers():
    payload = {"n": 3, "format": "weighted-graph", "data": [[0, 1, 1.0], [1, 2, 1.0], [0, 2, 1.0]], "marked": 1}
    for field, bad in [
        ("marked", 1.7), ("marked", True), ("marked", float("nan")), ("marked", "1"),
        ("n", 3.9), ("n", False), ("n", float("inf")), ("n", "3"),
    ]:
        with pytest.raises(ValidationError, match=f"'{field}' must be a whole number"):
            markov.chain_from_payload({**payload, field: bad})
    with pytest.raises(ValidationError, match="n >= 1"):
        markov.chain_from_payload({**payload, "n": -1})
    # whole-number floats, as JSON may carry them, read as ints
    chain, marked = markov.chain_from_payload({**payload, "n": 3.0, "marked": 2.0})
    assert marked == 2 and chain.P.shape == (3, 3)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "fmt, data, message",
    [
        ("dense", [[0.5, 0.5, 0.0], [0.5, NAN, 0.5], [0.0, 0.5, 0.5]], "transition probability at (1, 1) is nan"),
        ("weighted-graph", [[0, 1, 1.0], [1, 2, NAN], [0, 2, 1.0]], "weighted-graph weight at (1, 2) is nan"),
        ("weighted-graph", [[0, 1, 1.0], [1, 2, INF], [0, 2, 1.0]], "weighted-graph weight at (1, 2) is inf"),
        ("weighted-graph", [[0, 1, 0, INF], [1, 0, 1, 0], [0, 1, 0, 1], [INF, 0, 1, 0]], "weighted-graph weight at (0, 3) is inf"),
    ],
)
def test_payload_non_finite_data_rejected(fmt, data, message):
    # named as such, not diagnosed as a disconnected chain
    with pytest.raises(ValidationError, match=re.escape(message) + ", not finite"):
        markov.chain_from_payload({"n": len(data), "format": fmt, "data": data, "marked": 0})


def test_payload_bad_format_rejected():
    with pytest.raises(ValidationError):
        markov.chain_from_payload({"n": 2, "format": "sparse", "data": [], "marked": 0})


@pytest.mark.parametrize("walks,max_steps", [(2.5, None), (True, None), (0, None), (5, 1.5), (5, -1)])
def test_sample_hitting_time_refuses_a_bad_count(walks, max_steps):
    with pytest.raises(ValidationError, match="must be an integer >= "):
        markov.sample_hitting_time(markov.lazify(markov.complete_chain(4)), 0, 1, walks=walks, max_steps=max_steps)


def test_sample_hitting_time_cap_raises():
    chain = markov.complete_chain(8)
    with pytest.raises(InconsistencyError):
        markov.sample_hitting_time(chain, 0, rng_seed=1, walks=50, max_steps=1)
