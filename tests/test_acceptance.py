"""Acceptance gate: one test per release criterion.

Each test prints its key measurements, asserts the stated tolerance, and
checks the stated wall-clock budget. Run with -v for one line per criterion.
"""
import json
import math
import time

import numpy as np
import pytest

from ctqw import bounds, cli, gluedtrees, markov, search, walk
from ctqw.walk import TimeDistribution

from conftest import instance_stream, rows_of


def loglog_slope(ns, values) -> float:
    return float(np.polyfit(np.log(ns), np.log(values), 1)[0])


def test_criterion_01_bound_corpus_200():
    t0 = time.monotonic()
    rows = rows_of(cli._bounds_block((0, 200, 1, 10, 0.1, 1000.0, (1, 2, 3, 4))))
    elapsed = time.monotonic() - t0
    by_kind = {}
    for row in rows:
        by_kind.setdefault(row["kind"], []).append(row)
    for kind in ("mixing", "eigenspace", "subset", "residual"):
        worst = min(r["slack"] for r in by_kind[kind])
        print(f"criterion 1: {kind} rows={len(by_kind[kind])} min_slack={worst:.3e}")
        assert worst >= -1e-9
        assert all(r["holds"] for r in by_kind[kind])
    assert all(r["holds"] for r in by_kind["comparison"])
    print(f"criterion 1: {len(rows)} rows in {elapsed:.1f}s")
    assert elapsed < 60.0


def test_criterion_02_quadrature_cross_check_50():
    t0 = time.monotonic()
    worst = 0.0
    for rng, dim, h, psi0, y in instance_stream(4242, 50):
        T = float(10 ** rng.uniform(-0.5, 1.3))
        pe = walk.avg_probability_exact(h, psi0, y, TimeDistribution(T=T, k=1))
        pq = walk.avg_probability_quadrature(h, psi0, y, T)
        worst = max(worst, abs(pe - pq))
    elapsed = time.monotonic() - t0
    print(f"criterion 2: worst |exact - quadrature| = {worst:.3e} in {elapsed:.1f}s")
    assert worst <= 1e-7
    assert elapsed < 60.0


def test_criterion_03_momentum_structure():
    t0 = time.monotonic()
    for two_n in (8, 16, 24, 32):
        n = two_n // 2
        dev = gluedtrees.column_spectrum_check(two_n)
        assert dev <= 1e-9
        rep = gluedtrees.solve_momenta(two_n)
        p1 = rep.p[rep.branch < 0][-1]  # the smallest minus-branch momentum; p descends
        asym = math.pi / n - math.pi / ((1.0 + math.sqrt(2.0)) * n * n)
        envelope = abs(p1 - asym) * n**3
        sub = gluedtrees.subspace_S(gluedtrees.column_walk(two_n))
        print(
            f"criterion 3: 2n={two_n} spectrum_dev={dev:.2e} "
            f"|p1-asym|*n^3={envelope:.3f} delta_e_s={sub.delta_e_s:.5f}"
        )
        assert abs(p1 - asym) <= 1.0 / n**3
        assert sub.delta_e_s >= math.pi / (16 * n)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0


def test_criterion_04_traversal_floor_and_scaling():
    t0 = time.monotonic()
    sizes = (8, 12, 16, 20, 24)
    taus = []
    for two_n in sizes:
        n = two_n // 2
        h = gluedtrees.column_hamiltonian(two_n)
        psi0 = walk.basis_state(two_n, 0)
        y = walk.basis_state(two_n, two_n - 1)
        w = walk.spectral_walk(h, psi0, y)
        k = math.ceil(math.log2(5 * n))
        p_shot = w.probability(TimeDistribution(T=64.0 * n, k=k))
        assert p_shot >= 1.0 / (4 * n) - 1.0 / (5 * n)
        sub = gluedtrees.subspace_S(w)
        t_lo = 2.0 / sub.delta_e_s
        est = w.hitting_time(walk.geometric_grid(t_lo, 64.0 * t_lo), k)
        taus.append(est.tau)
        print(f"criterion 4: 2n={two_n} p_shot={p_shot:.4f} tau_exact={est.tau:.1f}")
    slope = loglog_slope([s // 2 for s in sizes], taus)
    elapsed = time.monotonic() - t0
    print(f"criterion 4: tau_exact slope = {slope:.4f} in {elapsed:.1f}s")
    assert 1.8 <= slope <= 2.4
    assert elapsed < 300.0


def test_criterion_05_schedule_hierarchy():
    t0 = time.monotonic()
    sizes = (8, 12, 16, 20, 24)
    outs = [gluedtrees.certified_hitting_times(gluedtrees.column_walk(two_n)) for two_n in sizes]
    r12 = [o["tau_l1"] / o["tau_l2"] for o in outs]
    r23 = [o["tau_l2"] / o["tau_l3"] for o in outs]
    ns = [s // 2 for s in sizes]
    s1 = loglog_slope(ns, [o["tau_l1"] for o in outs])
    s2 = loglog_slope(ns, [o["tau_l2"] for o in outs])
    s3 = loglog_slope(ns, [o["tau_l3"] for o in outs])
    elapsed = time.monotonic() - t0
    print(f"criterion 5: tau_l1/tau_l2 = {[f'{r:.2f}' for r in r12]}")
    print(f"criterion 5: tau_l2/tau_l3 = {[f'{r:.2f}' for r in r23]}")
    print(f"criterion 5: slopes l1={s1:.2f} l2={s2:.2f} l3={s3:.2f} in {elapsed:.1f}s")
    # single-eigenspace schedule beats plain mixing by a factor that grows
    # with size
    assert all(r > 1.0 for r in r12)
    assert all(b > a for a, b in zip(r12, r12[1:]))
    assert r12[-1] >= 2.0 * r12[0]
    # the subset schedule wins asymptotically: strictly smaller growth
    # exponent, and the head-to-head ratio both grows and has crossed 1 by
    # the largest size
    assert s3 <= s2 - 0.4
    assert s2 <= s1 - 1.0
    assert r23[-1] > r23[0]
    assert r23[-1] > 1.1
    assert elapsed < 300.0


def test_criterion_06_full_vs_column():
    t0 = time.monotonic()
    worst = 0.0
    for depth in (2, 3, 4):
        for seed in (0, 1, 2):
            inst = gluedtrees.generate_instance(depth, seed=seed)
            rec = gluedtrees.full_vs_column_equivalence(inst, T=37.0, k=2, trials=2)
            assert rec.passes
            worst = max(worst, rec.difference)
    elapsed = time.monotonic() - t0
    print(f"criterion 6: worst full-vs-column difference = {worst:.2e} in {elapsed:.1f}s")
    assert worst <= 1e-8
    assert elapsed < 60.0


def test_criterion_07_search_spectrum_structure():
    t0 = time.monotonic()
    cases = [("complete", n) for n in (4, 8, 16)] + [("cycle", n) for n in (4, 8)]
    for family, n in cases:
        chain = markov.lazify(markov.chain_family(family, n))
        for s in (0.0, markov.s_star(chain, 0)):
            rep = search.spectrum_report(chain, 0, s)
            assert rep.zero_multiplicity == (n - 1) ** 2 + 1, (family, n, s)
            assert rep.pairing_residual <= 1e-8
            assert rep.ratio_in_range  # amplified gap within sqrt(2) of sqrt(gap)
        print(f"criterion 7: {family} N={n} zero_mult={(n - 1) ** 2 + 1} ok")
    elapsed = time.monotonic() - t0
    print(f"criterion 7: done in {elapsed:.1f}s")
    assert elapsed < 60.0


def test_criterion_08_search_success_floor():
    t0 = time.monotonic()
    recs = []
    for eps in (0.2, 0.1, 0.05):
        rec = search.run_search(
            markov.complete_chain(16), 0, eps, rng_seed=816, family="complete", shots=100000
        )
        recs.append(rec)
        print(
            f"criterion 8: eps={eps} p_exact={rec.p_exact:.4f} "
            f"floor={rec.success_floor:.3f} mc={rec.mc_freq:.4f} T={rec.T:.4f} k={rec.k}"
        )
        assert rec.floor_holds
        assert rec.p_exact >= 0.25 - eps
        assert rec.mc_within_3sigma
    assert recs[0].T == pytest.approx(5.303, abs=1e-3)
    assert [r.p_exact for r in recs] == pytest.approx([0.763, 0.684, 0.490], abs=5e-3)
    x = np.log([1.0 / r.epsilon for r in recs])
    y = np.array([r.total_time for r in recs])
    fit = np.polyfit(x, y, 1)
    resid = y - np.polyval(fit, x)
    r2 = 1.0 - float(np.sum(resid**2) / np.sum((y - y.mean()) ** 2))
    elapsed = time.monotonic() - t0
    print(f"criterion 8: total-time fit R^2 = {r2:.4f} in {elapsed:.1f}s")
    assert r2 >= 0.95
    assert elapsed < 180.0


def test_criterion_09_classical_hitting_time_mc():
    t0 = time.monotonic()
    cases = [("complete", markov.complete_chain(8)), ("complete", markov.complete_chain(16)),
             ("cycle", markov.cycle_chain(8)), ("cycle", markov.cycle_chain(16))]
    for family, chain in cases:
        out = markov.sample_hitting_time(chain, 0, rng_seed=909, walks=1_000_000)
        dev = abs(out["mean"] - out["exact"])
        print(
            f"criterion 9: {family} N={chain.n} exact={out['exact']:.4f} "
            f"mc={out['mean']:.4f} dev/sigma={dev / out['std_error']:.2f}"
        )
        assert dev <= 3.0 * out["std_error"]
    elapsed = time.monotonic() - t0
    print(f"criterion 9: done in {elapsed:.1f}s")
    assert elapsed < 120.0


def test_criterion_10_byte_identical_reruns(tmp_path):
    configs = {
        "gluedtrees": {"n": [8, 12], "seed": 5, "mc_runs": 60},
        "search": {
            "families": ["complete", "cycle"],
            "N": [5],
            "epsilons": [0.2, 0.1],
            "shots": 3000,
            "seed": 6,
        },
        "bounds": {"instances": 15, "seed": 7},
    }
    for command, payload in configs.items():
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps(payload), encoding="utf-8")
        first = tmp_path / f"{command}-a"
        second = tmp_path / f"{command}-b"
        assert cli.main([command, "--config", str(cfg), "--out", str(first)]) == 0
        assert cli.main([command, "--config", str(cfg), "--out", str(second)]) == 0
        for suffix in (".json", ".csv"):
            a = (first / f"{command}{suffix}").read_bytes()
            b = (second / f"{command}{suffix}").read_bytes()
            assert a == b, f"{command}{suffix} differs between reruns"
        print(f"criterion 10: {command} rerun byte-identical")
