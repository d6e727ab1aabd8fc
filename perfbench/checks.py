"""Correctness checks on one CLI output bundle, independent of the record's
own pass/fail flags.

Each checker returns a list of (name, ok). The names depend only on the
config and the reference, never on the output, so a run that crashed or
wrote nothing is charged the same checks as one that succeeded.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

REL_TOL = 1e-9
MC_SIGMAS = 4.0
SLACK_TOL = 1e-9  # a certified inequality holds when actual - bound >= -SLACK_TOL

GLUEDTREES_EXACT = ["p_shot", "delta_e_s", "tau_l1", "tau_l2", "tau_l3", "tau_exact"]
SEARCH_EXACT = ["p_exact", "ht", "T", "s_star", "gap_s_star"]
BOUND_KINDS = ["mixing", "eigenspace", "subset", "residual", "comparison"]


def same(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(a, b, rel_tol=REL_TOL)


def digest(out: Path) -> str:
    """sha256 over the names and bytes of every file in the bundle."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.iterdir() if p.is_file()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def load_record(out: Path, kind: str):
    try:
        return json.loads((out / f"{kind}.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def truncated_geometric(p: float, cap: int) -> tuple[float, float]:
    """Mean and variance of min(G, cap) for G geometric with success p."""
    q = 1.0 - p
    mean = (1.0 - q**cap) / p
    # E[X^2] = sum_{r=1}^{cap} (2r - 1) P(X >= r), P(X >= r) = q^(r-1)
    second = sum((2 * r - 1) * q ** (r - 1) for r in range(1, cap + 1))
    return mean, second - mean * mean


def gluedtrees(cfg: dict, ref: dict, record) -> list:
    rows = {row["n"]: row for row in record["rows"]} if record else {}
    out = [("all_hold", bool(record and record["summary"]["all_hold"]))]
    for two_n in sorted(cfg["n"]):
        row = rows.get(two_n)
        expect = ref["rows"].get(str(two_n))
        if expect is not None:
            for col in GLUEDTREES_EXACT:
                out.append((f"n={two_n} {col}", row is not None and same(row[col], expect[col])))
        ok = False
        if row is not None:
            # the sweep repeats until the exit is seen, at most 20 (two_n/2) times
            mean, var = truncated_geometric(row["p_shot"], 10 * two_n)
            sigma = math.sqrt(var / cfg["mc_runs"])
            ok = abs(row["mc_mean_repetitions"] - mean) <= MC_SIGMAS * sigma
        out.append((f"n={two_n} mc_mean_repetitions", ok))
    return out


def search(cfg: dict, ref: dict, record) -> list:
    rows = {}
    if record:
        rows = {(row["family"], row["N"], row["epsilon"]): row for row in record["rows"]}
    out = [("all_floor_holds", bool(record and record["summary"]["all_floor_holds"]))]
    for family in cfg["families"]:
        for n in cfg["N"]:
            for eps in sorted(cfg["epsilons"], reverse=True):
                name = f"{family}/{n}/{eps!r}"
                row = rows.get((family, n, eps))
                expect = ref["rows"].get(name)
                if expect is not None:
                    for col in SEARCH_EXACT:
                        out.append((f"{name} {col}", row is not None and same(row[col], expect[col])))
                ok = False
                if row is not None:
                    p = row["p_exact"]
                    sigma = math.sqrt(p * (1.0 - p) / cfg["shots"])
                    ok = abs(row["mc_freq"] - p) <= MC_SIGMAS * sigma
                out.append((f"{name} mc_freq", ok))
    return out


def by_instance(rows: list) -> dict:
    grouped = {}
    for row in rows:
        grouped.setdefault(row["instance"], []).append(row)
    return grouped


def _instance_shape_ok(rows: list) -> bool:
    kinds = [row["kind"] for row in rows]
    n_eig = kinds.count("eigenspace")
    return n_eig >= 1 and kinds == ["mixing"] + ["eigenspace"] * n_eig + BOUND_KINDS[2:]


def _inequality_ok(row: dict) -> bool:
    if row["kind"] == "comparison" or row["bound_value"] is None or row["actual_value"] is None:
        return True
    return row["actual_value"] - row["bound_value"] >= -SLACK_TOL


def bounds(cfg: dict, ref: dict, record) -> list:
    rows = record["rows"] if record else []
    grouped = by_instance(rows)
    shape = bool(record) and sorted(grouped) == list(range(cfg["instances"])) and all(
        _instance_shape_ok(group) for group in grouped.values()
    )
    out = [
        ("all_hold", bool(record and record["summary"]["all_hold"])),
        ("rows per instance", shape),
        ("inequalities", bool(record) and all(_inequality_ok(row) for row in rows)),
    ]
    expect = ref["seeds"].get(str(cfg["seed"]))
    if expect is not None and cfg["instances"] == ref["instances"]:
        out.append(("row count", len(rows) == expect["rows"]))
        for idx, values in expect["values"].items():
            got = [[row["bound_value"], row["actual_value"]] for row in grouped.get(int(idx), [])]
            ok = len(got) == len(values) and all(
                same(g, e) for pair_g, pair_e in zip(got, values) for g, e in zip(pair_g, pair_e)
            )
            out.append((f"instance {idx} values", ok))
    return out


CHECKERS = {"gluedtrees": gluedtrees, "search": search, "bounds": bounds}


def check(command: str, cfg: dict, ref: dict, out: Path) -> list:
    return CHECKERS[command](cfg, ref, load_record(out, command))
