"""Command-line experiment runner.

Three subcommands emit deterministic CSV + JSON bundles into an output
directory:

    ctqw gluedtrees --config cfg.json [--jobs K] [--seed S] [--out DIR]
    ctqw search     --config cfg.json [--jobs K] [--seed S] [--out DIR]
    ctqw bounds     --config cfg.json [--jobs K] [--seed S] [--out DIR]

The CTQW_OUT environment variable overrides --out, which overrides the
config's "out" field, which falls back to the working directory. Exit
codes: 0 every assertion holds, 2 an assertion failed (output files are
still written), 3 bad configuration or input, 4 internal numerical
inconsistency.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import bounds, gluedtrees, markov, records, search, spectral, walk
from ._version import __version__
from .errors import AssertionFailure, ConfigError, CtqwError, ValidationError
from .rng import rng_stream, task_seed
from .walk import TimeDistribution

__all__ = ["main"]

GLUEDTREES_COLUMNS = ["n", "delta_e_s", "p_shot", "tau_l1", "tau_l2", "tau_l3", "mc_success"]
SEARCH_COLUMNS = [
    "family",
    "N",
    "epsilon",
    "s_star",
    "gap_s_star",
    "ht",
    "T",
    "k",
    "p_exact",
    "mc_freq",
    "floor_holds",
    "walk_dim",
]
BOUNDS_COLUMNS = [
    "instance",
    "dim",
    "T",
    "k",
    "kind",
    "bound_value",
    "actual_value",
    "slack",
    "holds",
]


#: kind -> (CSV columns, CSV comment line) of the bundle the subcommand writes
BUNDLES = {
    "gluedtrees": (
        GLUEDTREES_COLUMNS,
        "glued-trees sweep: subset gap, per-shot probability, certified hitting times, MC success",
    ),
    "search": (
        SEARCH_COLUMNS,
        "spatial search sweep: interpolation point, spectral gap, hitting time, schedule, success",
    ),
    "bounds": (BOUNDS_COLUMNS, "averaged-probability bound corpus: one row per certified inequality"),
}


# ---------------------------------------------------------------------------
# shared plumbing


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A number that is a finite float: no bool, NaN, infinity or int beyond the float range."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return cfg


def _resolve_out(args, cfg: dict) -> Path:
    if not isinstance(cfg.get("out", ""), str):
        raise ConfigError(f"config field 'out' must be a string path, got {cfg['out']!r}")
    # precedence: environment > flag > config > working directory
    env = os.environ.get("CTQW_OUT")
    if env:
        out = Path(env)
    elif args.out is not None:
        out = Path(args.out)
    else:
        out = Path(cfg.get("out", "."))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from None
    return out


def _as_int(cfg: dict, key: str, default=None, minimum=None):
    value = cfg.get(key, default)
    if not _is_int(value):
        raise ConfigError(f"config field '{key}' must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"config field '{key}' must be >= {minimum}, got {value}")
    return value


def _run_tasks(worker, tasks, jobs: int) -> list:
    """Run worker on every task and concatenate the row lists, in task order."""
    workers = min(jobs, len(tasks))
    if workers <= 1:
        chunks = map(worker, tasks)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # pool.map preserves task order, so collection stays deterministic
            chunks = list(pool.map(worker, tasks))
    return [row for chunk in chunks for row in chunk]


def _write_bundle(out: Path, kind: str, seed: int, config, rows, summary, failure, success) -> int:
    """Write <kind>.json and <kind>.csv; exit code 2 when failure names a failed assertion."""
    columns, comment = BUNDLES[kind]
    record = records.ExperimentRecord(kind=kind, config=config, seed=seed, rows=tuple(rows), summary=summary)
    record.write(out / f"{kind}.json")
    records.write_csv(out / f"{kind}.csv", columns, rows, comment)
    print(f"{kind}: wrote {out / f'{kind}.csv'} and {out / f'{kind}.json'}")
    if failure:
        print(f"{kind}: {failure}", file=sys.stderr)
        return 2
    print(f"{kind}: {success}")
    return 0


def _finite_or_none(value: float):
    value = float(value)
    return value if math.isfinite(value) else None


# ---------------------------------------------------------------------------
# gluedtrees subcommand


def _gluedtrees_row(task: tuple) -> list:
    two_n, mc_seed, mc_runs = task
    taus = gluedtrees.certified_hitting_times(two_n)
    stats = gluedtrees.traversal_success_stats(two_n, mc_seed, mc_runs)
    column = taus["walk"]
    sub = taus["subspace"]
    p_shot = column.probability(TimeDistribution(T=stats["T"], k=stats["k"]))
    floor = stats["per_shot_floor"]
    t_lo = 2.0 / sub.delta_e_s
    exact = column.hitting_time(walk.geometric_grid(t_lo, 64.0 * t_lo), stats["k"])
    slacks = [taus[f"slack_l{i}"] for i in (1, 2, 3)]
    check_flags = [v for v in sub.checks.values() if isinstance(v, bool)]
    holds = (
        all(check_flags)
        and p_shot >= floor - 1e-12
        and all(slack >= -bounds.SLACK_TOL for slack in slacks)
    )
    row = {
        "n": two_n,
        "delta_e_s": sub.delta_e_s,
        "p_shot": float(p_shot),
        "p_shot_floor": floor,
        "T": stats["T"],
        "k": stats["k"],
        "max_repetitions": stats["max_repetitions"],
        "tau_l1": taus["tau_l1"],
        "tau_l2": taus["tau_l2"],
        "tau_l3": taus["tau_l3"],
        "slack_l1": slacks[0],
        "slack_l2": slacks[1],
        "slack_l3": slacks[2],
        "tau_exact": float(exact.tau),
        "tau_exact_argmin_T": float(exact.argmin_T),
        "delta_e_min": taus["delta_e_min"],
        "delta_e_star_l2": taus["delta_e_star_l2"],
        "limiting_probability": taus["p_inf"],
        "alpha4_mass": sub.alpha4_mass,
        "first_term_mass": sub.first_term_mass,
        "min_sine": sub.checks["min_sine"],
        "max_sine": sub.checks["max_sine"],
        "mc_success": stats["success_fraction"],
        "mc_runs": stats["runs"],
        "mc_mean_repetitions": stats["mean_repetitions"],
        "mc_shots": stats["shots"],
        "holds": bool(holds),
    }
    return [row]


def _cmd_gluedtrees(cfg: dict, seed: int, jobs: int) -> tuple:
    sizes = cfg.get("n")
    if not isinstance(sizes, list) or not sizes:
        raise ConfigError("config field 'n' must be a nonempty list of even sizes >= 8")
    for value in sizes:
        if not _is_int(value) or value < 8 or value % 2:
            raise ConfigError(f"size {value!r} is invalid: sizes must be even integers >= 8")
    mc_runs = _as_int(cfg, "mc_runs", default=200, minimum=1)

    tasks = [(two_n, task_seed(seed, idx), mc_runs) for idx, two_n in enumerate(sorted(sizes))]
    rows = _run_tasks(_gluedtrees_row, tasks, jobs)

    xs = np.log([row["n"] // 2 for row in rows])
    slope = None
    if len(rows) >= 2:
        slope = float(np.polyfit(xs, np.log([row["tau_exact"] for row in rows]), 1)[0])
    summary = {
        "sizes": [row["n"] for row in rows],
        "all_hold": bool(all(row["holds"] for row in rows)),
        "tau_exact_loglog_slope": slope,
        "tau_l1_over_l2": [row["tau_l1"] / row["tau_l2"] for row in rows],
        "tau_l2_over_l3": [row["tau_l2"] / row["tau_l3"] for row in rows],
    }
    config = {"n": sorted(sizes), "mc_runs": mc_runs}
    bad = [row["n"] for row in rows if not row["holds"]]
    failure = f"assertion failed for sizes {bad}" if bad else None
    return config, rows, summary, failure, f"all {len(rows)} sizes certified"


# ---------------------------------------------------------------------------
# search subcommand


def _search_rows(task: tuple) -> list:
    # one chain, shared by every epsilon row; one MC stream per row
    family, n, marked, payload, seed, idx, epsilons, shots, time_factor = task
    if payload is not None:
        chain, marked = markov.chain_from_payload(payload)
    else:
        chain = markov.chain_family(family, n, seed=task_seed(seed, idx))
    rows = []
    for j, eps in enumerate(epsilons):
        rec = search.run_search(
            chain,
            marked,
            eps,
            task_seed(seed, idx, j),
            family=family,
            shots=shots,
            time_factor=time_factor,
        )
        row = asdict(rec)
        row["N"], row["ht"] = row.pop("n"), row.pop("hitting_time")
        rows.append(row)
    return rows


def _linear_fit(xs: list, ys: list) -> dict:
    if len(xs) < 2:
        return {"slope": None, "intercept": None, "r_squared": None}
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    total = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if total == 0.0 else 1.0 - float(np.sum(resid**2)) / total
    return {"slope": float(slope), "intercept": float(intercept), "r_squared": float(r2)}


def _cmd_search(cfg: dict, seed: int, jobs: int) -> tuple:
    epsilons = cfg.get("epsilons")
    if not isinstance(epsilons, list) or not epsilons:
        raise ConfigError("config field 'epsilons' must be a nonempty list")
    for eps in epsilons:
        if not _is_real(eps) or not 0.0 < eps < 0.25:
            raise ConfigError(f"epsilon {eps!r} is invalid: must lie strictly in (0, 1/4)")
    epsilons = sorted(epsilons, reverse=True)
    shots = _as_int(cfg, "shots", default=100000, minimum=1)
    marked = _as_int(cfg, "marked", default=0, minimum=0)
    time_factor = cfg.get("time_factor")
    if time_factor is not None:
        if not _is_real(time_factor) or time_factor <= 0:
            raise ConfigError(f"config field 'time_factor' must be a positive number, got {time_factor!r}")
        time_factor = float(time_factor)

    specs = []
    families = cfg.get("families", [])
    sizes = cfg.get("N", [])
    if families or sizes:
        if not isinstance(families, list) or not families:
            raise ConfigError("config field 'families' must be a nonempty list when 'N' is given")
        if not isinstance(sizes, list) or not sizes:
            raise ConfigError("config field 'N' must be a nonempty list when 'families' is given")
        for family in families:
            if family not in markov.CHAIN_FAMILIES:
                raise ConfigError(f"unknown chain family {family!r}; known: {markov.CHAIN_FAMILIES}")
        for n in sizes:
            if not _is_int(n) or n < 2:
                raise ConfigError(f"chain size {n!r} is invalid: must be an integer >= 2")
            if marked >= n:
                raise ConfigError(f"marked vertex {marked} is out of range for size {n}")
        specs += [(str(family), n, marked, None) for family in families for n in sizes]
    chain_paths = cfg.get("chains", [])
    if chain_paths:
        if not isinstance(chain_paths, list):
            raise ConfigError("config field 'chains' must be a list of file paths")
        for path in chain_paths:
            try:
                payload = json.loads(Path(path).read_text(encoding="utf-8"))
            except OSError as exc:
                raise ConfigError(f"cannot read chain file {path}: {exc}") from None
            except json.JSONDecodeError as exc:
                raise ConfigError(f"chain file {path} is not valid JSON: {exc}") from None
            specs.append((Path(path).stem, 0, 0, payload))
    if not specs:
        raise ConfigError("search config needs 'families' + 'N', or 'chains'")

    tasks = [(*spec, seed, idx, epsilons, shots, time_factor) for idx, spec in enumerate(specs)]
    rows = _run_tasks(_search_rows, tasks, jobs)

    fits = []
    for family, n in sorted({(row["family"], row["N"]) for row in rows}):
        group = [row for row in rows if row["family"] == family and row["N"] == n]
        fit = _linear_fit(
            [math.log2(1.0 / row["epsilon"]) for row in group],
            [row["total_time"] for row in group],
        )
        fits.append({"family": family, "N": n, **fit})
    summary = {
        "all_floor_holds": bool(all(row["floor_holds"] for row in rows)),
        "total_time_fits": fits,
    }
    config = {
        "families": families,
        "N": sizes,
        "epsilons": epsilons,
        "marked": marked,
        "shots": shots,
        "time_factor": time_factor,
        "chains": chain_paths,
    }
    bad = [(row["family"], row["N"], row["epsilon"]) for row in rows if not row["floor_holds"]]
    failure = f"success floor violated for {bad}" if bad else None
    return config, rows, summary, failure, f"all {len(rows)} runs meet the 1/4 - epsilon floor"


# ---------------------------------------------------------------------------
# bounds subcommand


def _bounds_instance(task: tuple) -> list:
    idx, seed, dim_max, t_lo, t_hi, k_values = task
    rng = rng_stream(seed, 31, idx)
    dim = int(rng.integers(2, dim_max + 1))
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = spectral.hermitian((a + a.conj().T) / 2.0)

    def state():
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        return walk.pure_state(v / np.linalg.norm(v))

    psi0, y = state(), state()
    T = float(np.exp(rng.uniform(math.log(t_lo), math.log(t_hi))))
    k = int(k_values[int(rng.integers(0, len(k_values)))])
    w = walk.spectral_walk(h, psi0, y)
    part = w.partition
    reports = [("mixing", 1, bounds.mixing_bound(w, T))]
    reports += [("eigenspace", 1, bounds.eigenspace_bound(w, T, g)) for g in range(part.n_groups)]
    size = int(rng.integers(1, part.n_groups + 1))
    subset = sorted(int(i) for i in rng.choice(part.n_groups, size=size, replace=False))
    dist = TimeDistribution(T=T, k=k)
    reports.append(("subset", k, bounds.subset_bound(w, dist, subset)))
    rho0 = walk.density_operator(np.outer(psi0.amplitudes, psi0.amplitudes.conj()))
    reports.append(("residual", k, bounds.residual_bound(part, rho0, subset, dist)))

    g = int(rng.integers(0, part.n_groups))
    comp = bounds.bound_comparison(w, T, g)
    ok = comp.implication_ok
    values = [(kind, k_used, r.bound_value, r.actual_value, r.slack, r.holds) for kind, k_used, r in reports]
    values.append(("comparison", 1, comp.tau_mixing_scale, comp.tau_selective, 0.0 if ok else -1.0, ok))
    return [
        {
            "instance": idx,
            "dim": dim,
            "T": T,
            "k": k_used,
            "kind": kind,
            "bound_value": _finite_or_none(bound_value),
            "actual_value": _finite_or_none(actual_value),
            "slack": float(slack),
            "holds": bool(holds),
        }
        for kind, k_used, bound_value, actual_value, slack, holds in values
    ]


def _cmd_bounds(cfg: dict, seed: int, jobs: int) -> tuple:
    instances = _as_int(cfg, "instances", default=200, minimum=1)
    dim_max = _as_int(cfg, "dim_max", default=10, minimum=2)
    t_range = cfg.get("t_range", [0.1, 1000.0])
    if (
        not isinstance(t_range, list)
        or len(t_range) != 2
        or not all(_is_real(t) for t in t_range)
        or not 0 < t_range[0] < t_range[1]
    ):
        raise ConfigError(f"config field 't_range' must be [t_lo, t_hi] with 0 < t_lo < t_hi, got {t_range!r}")
    k_values = cfg.get("k_values", [1, 2, 3, 4])
    if not isinstance(k_values, list) or not k_values or any(not _is_int(k) or k < 1 for k in k_values):
        raise ConfigError(f"config field 'k_values' must be a list of integers >= 1, got {k_values!r}")
    inject_fault = cfg.get("inject_fault", False)
    if not isinstance(inject_fault, bool):
        raise ConfigError(f"config field 'inject_fault' must be a boolean, got {inject_fault!r}")

    tasks = [
        (idx, seed, dim_max, float(t_range[0]), float(t_range[1]), tuple(k_values))
        for idx in range(instances)
    ]
    rows = _run_tasks(_bounds_instance, tasks, jobs)

    if inject_fault:
        # self-test of the failure path: shift every slack down by 1e-3 and
        # re-derive holds; comparison rows carry zero slack, so at least one
        # row per instance must trip
        for row in rows:
            row["slack"] = row["slack"] - 1e-3
            row["holds"] = bool(row["holds"] and row["slack"] >= -bounds.SLACK_TOL)

    min_slack = {}
    for kind in ("mixing", "eigenspace", "subset", "residual"):
        values = [row["slack"] for row in rows if row["kind"] == kind]
        min_slack[kind] = min(values) if values else None
    summary = {
        "instances": instances,
        "row_count": len(rows),
        "min_slack": min_slack,
        "comparison_all_ok": bool(
            all(row["holds"] for row in rows if row["kind"] == "comparison")
        ),
        "all_hold": bool(all(row["holds"] for row in rows)),
        "fault_injected": inject_fault,
    }
    config = {
        "instances": instances,
        "dim_max": dim_max,
        "t_range": [float(t_range[0]), float(t_range[1])],
        "k_values": list(k_values),
        "inject_fault": inject_fault,
    }
    failed = sum(1 for row in rows if not row["holds"])
    failure = f"{failed} of {len(rows)} inequality rows failed" if failed else None
    return config, rows, summary, failure, f"all {len(rows)} inequality rows hold"


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as bad input (exit 3); subparsers inherit it."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ctqw",
        description="deterministic experiments for averaged quantum-walk hitting bounds",
    )
    parser.add_argument("--version", action="version", version=f"ctqw {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("gluedtrees", _cmd_gluedtrees),
        ("search", _cmd_search),
        ("bounds", _cmd_bounds),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
        p.add_argument("--seed", type=int, default=None, help="overrides the config seed")
        p.add_argument("--out", default=None, help="output directory (CTQW_OUT overrides)")
        p.set_defaults(fn=fn)
    return parser


def _run(args) -> int:
    """Shared setup, then one subcommand: it validates its own config fields, runs
    its tasks and returns (config echo, rows, summary, failure or None, success)."""
    cfg = _load_config(args.config)
    seed = cfg.get("seed") if args.seed is None else args.seed
    if not _is_int(seed) or seed < 0:
        raise ConfigError(f"a seed >= 0 is required: set 'seed' in the config or pass --seed, got {seed!r}")
    out = _resolve_out(args, cfg)
    return _write_bundle(out, args.command, seed, *args.fn(cfg, seed, args.jobs))


def main(argv=None) -> int:
    try:
        return _run(_build_parser().parse_args(argv))
    except (ConfigError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except AssertionFailure as exc:
        print(f"assertion failed: {exc}", file=sys.stderr)
        return 2
    except CtqwError as exc:  # InconsistencyError and every other internal failure
        print(f"inconsistency: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
