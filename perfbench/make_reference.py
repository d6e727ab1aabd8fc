"""Regenerate perfbench/reference.json, the exact values the checks compare to.

    python3 perfbench/make_reference.py

Run it only on a commit whose outputs are known to be right; the file
checked in was made on the commit that introduced the benchmark. The
glued-trees and search exact columns do not depend on the seed (the seed
drives only the Monte Carlo streams), which this script verifies on two
seeds. Bounds values depend on the seed, so they are kept for BOUNDS_SEEDS,
for every BOUNDS_STRIDE-th instance.
"""
from __future__ import annotations

import json
import shutil

import checks
import run

SEEDS = (7, 8)
BOUNDS_SEEDS = range(11)
BOUNDS_STRIDE = 50


def bundle(workload: str, seed: int, work) -> dict:
    command, base = run.WORKLOADS[workload]
    cfg_path = work / f"{workload}-{seed}.json"
    cfg_path.write_text(json.dumps(dict(base, seed=seed)), encoding="utf-8")
    child = run.run_child(command, "plain", cfg_path, work, f"{workload}-{seed}", run.RUN_BUDGET_S)
    if not child.completed:
        raise SystemExit(f"{workload} seed {seed} did not complete (exit {child.code})")
    return checks.load_record(child.out, command)


def exact_rows(workload: str, key, columns: list, work) -> dict:
    tables = []
    for seed in SEEDS:
        rows = bundle(workload, seed, work)["rows"]
        tables.append({key(row): {col: row[col] for col in columns} for row in rows})
    if any(table != tables[0] for table in tables):
        raise SystemExit(f"{workload}: exact columns differ between seeds {SEEDS}")
    return tables[0]


def main() -> None:
    work = run.OUT / "reference-work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        ref = {
            "gluedtrees": {
                "rows": exact_rows("gluedtrees-sweep", lambda r: str(r["n"]), checks.GLUEDTREES_EXACT, work)
            },
            "search": {
                "rows": exact_rows(
                    "search-dense", lambda r: f"{r['family']}/{r['N']}/{r['epsilon']!r}", checks.SEARCH_EXACT, work
                )
            },
        }
        instances = run.WORKLOADS["bounds-corpus"][1]["instances"]
        seeds = {}
        for seed in BOUNDS_SEEDS:
            rows = bundle("bounds-corpus", seed, work)["rows"]
            grouped = checks.by_instance(rows)
            seeds[str(seed)] = {
                "rows": len(rows),
                "values": {
                    str(idx): [[r["bound_value"], r["actual_value"]] for r in grouped[idx]]
                    for idx in range(0, instances, BOUNDS_STRIDE)
                },
            }
        ref["bounds"] = {"instances": instances, "stride": BOUNDS_STRIDE, "seeds": seeds}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(ref, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {run.REFERENCE}")


if __name__ == "__main__":
    main()
