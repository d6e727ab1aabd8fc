"""Command-line experiment runner.

Three subcommands emit deterministic CSV + JSON bundles into an output
directory:

    ctqw gluedtrees --config cfg.json [--jobs K] [--seed S] [--out DIR]
    ctqw search     --config cfg.json [--jobs K] [--seed S] [--out DIR]
    ctqw bounds     --config cfg.json [--jobs K] [--seed S] [--out DIR]

The CTQW_OUT environment variable overrides --out, which overrides the
config's "out" field, which falls back to the working directory. Exit
codes: 0 every assertion holds, 2 an assertion failed (output files are
still written), 3 bad configuration or input (a config the memory cannot
hold included), 4 internal numerical inconsistency.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import bounds, gluedtrees, markov, records, search, spectral, walk
from ._version import __version__
from .errors import AssertionFailure, ConfigError, CtqwError, ValidationError, renamed
from .rng import rng_stream, set_stream, stream_keys, task_seed
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

#: cap on the matrix entries (instances x dim^2) of a stack of same-dimension
#: bounds instances; a lone instance may pass it
BOUNDS_STACK_ENTRIES = 4096
#: largest bounds dim_max: 256 instances at dim_max 128 peak at about 54 MB of RSS
BOUNDS_DIM_MAX = 128
#: most 16-byte items (a complex amplitude, a stream key) a numpy array can
#: index: the bound of a count and of a size's square
ITEMS_MAX = np.iinfo(np.intp).max // 16

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


def _reject_repeats(key: str, values: list) -> None:
    """A repeated entry would run one row twice and fit a slope through one point."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ConfigError(f"config field '{key}' repeats {value!r}")


def _as_int(cfg: dict, key: str, default=None, minimum=None, maximum=ITEMS_MAX):
    value = cfg.get(key, default)
    if not _is_int(value):
        raise ConfigError(f"config field '{key}' must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"config field '{key}' must be >= {minimum}, got {value}")
    if value > maximum:
        raise ConfigError(f"config field '{key}' must be <= {maximum}, got {value}")
    return value


def _run_tasks(worker, tasks, jobs: int) -> list:
    """Run worker on every task: its results, in task order."""
    workers = min(jobs, len(tasks))
    if workers <= 1:
        return list(map(worker, tasks))
    # imported here: the process pool's modules cost a sequential run peak RSS
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        # pool.map preserves task order, so collection stays deterministic
        return list(pool.map(worker, tasks))


def _table(rows: list) -> dict:
    """The table of dict rows of one key set: a column per key."""
    return {key: np.array([row[key] for row in rows]) for key in rows[0]}


def _joined(tables: list) -> dict:
    """The tables of the same columns, one after the other."""
    return {key: np.concatenate([table[key] for table in tables]) for key in tables[0]}


def _write_bundle(out: Path, kind: str, seed: int, config, table, summary, failure, success) -> int:
    """Render <kind>.json and <kind>.csv, then write both, so that a row that cannot be
    serialized leaves no bundle; exit code 2 when failure names a failed assertion."""
    columns, comment = BUNDLES[kind]
    record = records.ExperimentRecord(kind=kind, config=config, seed=seed, rows=table, summary=summary)
    for suffix, pieces in zip(("json", "csv"), record.pieces(columns, comment)):
        records._write(out / f"{kind}.{suffix}", pieces)
    print(f"{kind}: wrote {out / f'{kind}.csv'} and {out / f'{kind}.json'}")
    if failure:
        print(f"{kind}: {failure}", file=sys.stderr)
        return 2
    print(f"{kind}: {success}")
    return 0


# ---------------------------------------------------------------------------
# gluedtrees subcommand


def _gluedtrees_row(task: tuple) -> dict:
    two_n, mc_seed, mc_runs = task
    column = gluedtrees.column_walk(two_n)
    taus = gluedtrees.certified_hitting_times(column)
    stats = gluedtrees.traversal_success_stats(two_n, mc_seed, mc_runs, column)
    sub = taus["subspace"]
    p_shot, floor = stats["p_shot"], stats["per_shot_floor"]
    t_lo = 2.0 / sub.delta_e_s
    exact = column.hitting_time(walk.geometric_grid(t_lo, 64.0 * t_lo), stats["k"])
    slacks = [taus[f"slack_l{i}"] for i in (1, 2, 3)]
    holds = (
        all(sub.checks.values())
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
        "min_sine": min(sub.sines),
        "max_sine": max(sub.sines),
        "mc_success": stats["success_fraction"],
        "mc_runs": stats["runs"],
        "mc_mean_repetitions": stats["mean_repetitions"],
        "mc_shots": stats["shots"],
        "mc_phases": column.mc_phases,
        "mc_prune_bound": column.prune_bound,
        "holds": bool(holds),
    }
    return _table([row])


def _cmd_gluedtrees(cfg: dict, seed: int, jobs: int) -> tuple:
    sizes = cfg.get("n")
    if not isinstance(sizes, list) or not sizes:
        raise ConfigError("config field 'n' must be a nonempty list of even sizes >= 8")
    for value in sizes:
        if not _is_int(value) or value < 8 or value % 2 or value * value > ITEMS_MAX:
            raise ConfigError(f"size {value!r} is invalid: sizes must be even integers >= 8 whose n x n arrays numpy can index")
    _reject_repeats("n", sizes)
    mc_runs = _as_int(cfg, "mc_runs", default=200, minimum=1)

    tasks = [(two_n, task_seed(seed, idx), mc_runs) for idx, two_n in enumerate(sorted(sizes))]
    table = _joined(_run_tasks(_gluedtrees_row, tasks, jobs))

    n, holds = table["n"], table["holds"]
    slope = None
    if len(n) >= 2:
        slope = float(np.polyfit(np.log(n / 2), np.log(table["tau_exact"]), 1)[0])
    summary = {
        "sizes": n.tolist(),
        "all_hold": bool(holds.all()),
        "tau_exact_loglog_slope": slope,
        "tau_l1_over_l2": (table["tau_l1"] / table["tau_l2"]).tolist(),
        "tau_l2_over_l3": (table["tau_l2"] / table["tau_l3"]).tolist(),
    }
    config = {"n": sorted(sizes), "mc_runs": mc_runs}
    bad = n[~holds].tolist()
    failure = f"assertion failed for sizes {bad}" if bad else None
    return config, table, summary, failure, f"all {len(n)} sizes certified"


# ---------------------------------------------------------------------------
# search subcommand


def _search_rows(task: tuple) -> dict:
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
    return _table(rows)


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
    _reject_repeats("epsilons", epsilons)
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
        _reject_repeats("families", families)
        for n in sizes:
            if not _is_int(n) or n < 2 or n * n > ITEMS_MAX:
                raise ConfigError(f"chain size {n!r} is invalid: must be an integer >= 2 whose N x N arrays numpy can index")
            if marked >= n:
                raise ConfigError(f"marked vertex {marked} is out of range for size {n}")
        _reject_repeats("N", sizes)
        specs += [(str(family), n, marked, None) for family in families for n in sizes]
    chain_paths = cfg.get("chains", [])
    if chain_paths:
        if not isinstance(chain_paths, list) or not all(isinstance(path, str) for path in chain_paths):
            raise ConfigError("config field 'chains' must be a list of file paths")
        # the stem names the chain in the family column of both files
        stems = [Path(path).stem for path in chain_paths]
        for stem in stems:
            if any(ch in stem for ch in ',"\r\n'):
                raise ConfigError(f"chain file stem {stem!r} may not contain commas, quotes or newlines")
        _reject_repeats("chains", stems)
        for path, stem in zip(chain_paths, stems):
            try:
                payload = json.loads(Path(path).read_text(encoding="utf-8"))
            except OSError as exc:
                raise ConfigError(f"cannot read chain file {path}: {exc}") from None
            except json.JSONDecodeError as exc:
                raise ConfigError(f"chain file {path} is not valid JSON: {exc}") from None
            specs.append((stem, 0, 0, payload))
    if not specs:
        raise ConfigError("search config needs 'families' + 'N', or 'chains'")

    tasks = [(*spec, seed, idx, epsilons, shots, time_factor) for idx, spec in enumerate(specs)]
    table = _joined(_run_tasks(_search_rows, tasks, jobs))

    family, n, eps, holds = (table[key] for key in ("family", "N", "epsilon", "floor_holds"))
    fits = []
    for name, size in sorted(set(zip(family.tolist(), n.tolist()))):
        group = (family == name) & (n == size)
        fit = _linear_fit([math.log2(1.0 / e) for e in eps[group].tolist()], table["total_time"][group])
        fits.append({"family": name, "N": size, **fit})
    summary = {"all_floor_holds": bool(holds.all()), "total_time_fits": fits}
    config = {
        "families": families,
        "N": sizes,
        "epsilons": epsilons,
        "marked": marked,
        "shots": shots,
        "time_factor": time_factor,
        "chains": chain_paths,
    }
    bad = list(zip(*(column[~holds].tolist() for column in (family, n, eps))))
    failure = f"success floor violated for {bad}" if bad else None
    return config, table, summary, failure, f"all {len(holds)} runs meet the 1/4 - epsilon floor"


# ---------------------------------------------------------------------------
# bounds subcommand


def _bounds_stack(dim: int, streams: list, rng, task: tuple, tables: list) -> None:
    """Draw, decompose and certify the instances of one dimension of a task,
    given as (idx, key) pairs, onto tables; each numpy kernel runs once per
    stack, and only the draws are made per instance, by rng set to its stream."""
    *_, dim_max, t_lo, t_hi, k_values = task
    n, sq = len(streams), dim * dim
    draws, logs, picks, states = np.empty((n, 2 * sq + 4 * dim)), np.empty(n), [], []
    for pos, (_, key) in enumerate(streams):
        # the dimension again, then H's real and imaginary parts and psi0's and y's: one call, the order of one call per part
        set_stream(rng, key).integers(2, dim_max + 1)
        draws[pos] = rng.normal(size=2 * sq + 4 * dim)
        logs[pos] = rng.uniform(math.log(t_lo), math.log(t_hi))
        picks.append(k_values[int(rng.integers(0, len(k_values)))])
        states.append(rng.bit_generator.state)
    dists = list(map(TimeDistribution, np.exp(logs).tolist(), picks))
    a = draws[:, :sq].reshape(n, dim, dim) + 1j * draws[:, sq : 2 * sq].reshape(n, dim, dim)
    vecs = draws[:, 2 * sq :].reshape(n, 2, 2, dim)
    pure = np.ascontiguousarray((vecs[:, :, 0] + 1j * vecs[:, :, 1]).swapaxes(0, 1))  # (2, n, dim): psi0, then y
    pure /= walk._norms(pure)[..., None]
    try:
        h = spectral.hermitian((a + a.conj().swapaxes(-1, -2)) / 2.0)
        psi0, y = walk.pure_state(pure[0]), walk.pure_state(pure[1])
        stack = walk.spectral_walks(h, psi0, y, dists)
        rho0 = walk.density_operator(psi0.amplitudes[:, :, None] * psi0.amplitudes.conj()[:, None, :])
        subsets, groups = [], []
        for state, m in zip(states, stack.n_groups.tolist()):
            # per stream, from where its draws stopped: the subset's size, its groups, then the comparison's group
            rng.bit_generator.state = state
            subsets.append(rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False))
            groups.append(int(rng.integers(0, m)))
        table = bounds.certify_stack(stack, subsets, groups, rho0)
    except CtqwError as exc:
        raise renamed(exc, [f"instance {idx} (dim {dim})" for idx, _ in streams]) from None
    table["instance"] = np.array([idx for idx, _ in streams])[table.pop("walk")]
    table["dim"] = np.full(table["T"].shape, dim)
    tables.append(table)


def _bounds_block(task: tuple) -> dict:
    """The table of instances lo..hi-1, each drawn from its own stream as if
    alone, certified one stack of same-dimension instances at a time."""
    lo, hi, seed, dim_max = task[:4]
    # rng_stream(seed, 31, idx) of each instance: one generator (any: set_stream resets it) set to each key
    keys, rng = stream_keys(seed, 31, indices=np.arange(lo, hi)), rng_stream(0)
    pending, tables = {}, []  # dim -> its open stack [(idx, key)]
    for idx, key in zip(range(lo, hi), keys.tolist()):
        dim = int(set_stream(rng, key).integers(2, dim_max + 1))
        pending.setdefault(dim, []).append((idx, key))
        if (len(pending[dim]) + 1) * dim * dim > BOUNDS_STACK_ENTRIES:
            _bounds_stack(dim, pending.pop(dim), rng, task, tables)
    while pending:
        _bounds_stack(*pending.popitem(), rng, task, tables)
    table = _joined(tables)
    order = np.argsort(table["instance"], kind="stable")  # each instance's rows keep their order
    return {key: column[order] for key, column in table.items()}


def _cmd_bounds(cfg: dict, seed: int, jobs: int) -> tuple:
    instances = _as_int(cfg, "instances", default=200, minimum=1)
    dim_max = _as_int(cfg, "dim_max", default=10, minimum=2, maximum=BOUNDS_DIM_MAX)
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

    parts = min(jobs, instances)
    common = (seed, dim_max, *map(float, t_range), tuple(k_values))
    tasks = [(instances * p // parts, instances * (p + 1) // parts, *common) for p in range(parts)]
    table = _joined(_run_tasks(_bounds_block, tasks, jobs))

    kind, slack, holds = table["kind"], table["slack"], table["holds"]
    if inject_fault:
        # inject_fault tests the failure path: each instance's comparison rows
        # carry zero slack, so 1e-3 less fails them
        slack -= 1e-3
        holds &= slack >= -bounds.SLACK_TOL
    min_slack = {}
    for name in ("mixing", "eigenspace", "subset", "residual"):
        # the first of equal slacks, as a row loop keeps it: -0.0 and 0.0 keep their bytes
        of_kind = slack[kind == name]
        min_slack[name] = float(of_kind[np.argmin(of_kind)]) if of_kind.size else None
    failed = int(np.count_nonzero(~holds))
    summary = {
        "instances": instances,
        "row_count": len(slack),
        "min_slack": min_slack,
        "comparison_all_ok": bool(holds[kind == "comparison"].all()),
        "all_hold": not failed,
        "fault_injected": inject_fault,
    }
    for key in ("bound_value", "actual_value"):
        # a non-finite bound or actual value is written as null; a non-finite slack is refused by the record
        finite = np.isfinite(table[key])
        table[key] = table[key] if finite.all() else np.where(finite, table[key], None)
    config = {
        "instances": instances,
        "dim_max": dim_max,
        "t_range": [float(t_range[0]), float(t_range[1])],
        "k_values": list(k_values),
        "inject_fault": inject_fault,
    }
    failure = f"{failed} of {len(slack)} inequality rows failed" if failed else None
    return config, table, summary, failure, f"all {len(slack)} inequality rows hold"


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
    its tasks and returns (config echo, table, summary, failure or None, success)."""
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
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
    except MemoryError as exc:  # a config too large for the machine is bad input
        print(f"error: out of memory{': ' if str(exc) else ''}{exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
