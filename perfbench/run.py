"""Benchmark of the ctqw command-line experiments.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; ctqw is imported from ./src.

One run generates the workload's config from the seed and starts fresh
child processes (perfbench/child.py), one after another, each calling
`ctqw.cli.main` once with `--jobs 1` (closed loop, one client). It starts
at least MIN_PLAIN untraced children and then more while the next one is
expected to end within S seconds of the start. BLAS/OpenMP threads are
pinned to 1 and CTQW_OUT is unset in every child. Every bundle a child writes is checked (perfbench/checks.py)
and compared byte for byte with the first bundle of the run.

--trace 0 reports the end-to-end metrics over untraced children:
  wall_s       time inside cli.main, until the bundle is written (median)
  peak_rss_mb  the child's peak resident set size (median)
  setup_s      fresh-process import of ctqw plus config load (median over
               the children and SETUP_PROBES import-only children)
--trace 1 alternates untraced and traced children (perfbench/layers.py) and
reports the per-layer split of the traced ones, the traced wall time and
the tracing overhead. Traced children never feed an end-to-end metric.

A child that exits non-zero or crashes fails every check it was due and is
no timing sample. The last line of standard output is one JSON object with
the keys correct, attempted, failed (counts of checks) and metrics. The
full result, with the pinned environment, goes to .perfbench-out/.

--workload all runs every workload untraced and traced and the fault
self-test, and prints every metric. In the self-test a bounds run with
"inject_fault": true exits 2 and must be counted as failed checks and
never as a timing sample.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
REFERENCE = HERE / "reference.json"

#: name -> (subcommand, config without seed); BENCHMARK.json and README.md
#: say why each workload was chosen
WORKLOADS = {
    "gluedtrees-sweep": ("gluedtrees", {"n": [32, 64, 96, 128], "mc_runs": 200}),
    "search-dense": (
        "search",
        {"families": ["complete", "cycle"], "N": [32], "epsilons": [0.1, 0.05], "shots": 20000},
    ),
    "bounds-corpus": ("bounds", {"instances": 2000}),
}
SELFTEST_CONFIG = {"instances": 20, "inject_fault": True}

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 3
MIN_PLAIN = 3  # a median that no single slow child decides; also feeds the rerun check
MIN_TRACED = 2  # two traced children are needed to compare the counters
RUN_BUDGET_S = 165.0  # no child may run past this, so a run ends within 180 s

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
DETERMINISTIC_UNITS = ("count", "B")


def per_layer_units() -> dict:
    """Per-layer metric name -> unit, in report order."""
    units = {}
    for name in layers.Tracer().report():
        if name.endswith("_s"):
            units[name] = "s"
        elif name.endswith("_mb"):
            units[name] = "MB"
        elif name.endswith(".bytes"):
            units[name] = "B"
        else:
            units[name] = "count"
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("CTQW_OUT", None)  # it would override --out and share one directory
    return env


def environment() -> dict:
    """What the numbers depend on besides the code."""
    info = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "threads": {var: "1" for var in THREAD_VARS},
        "git_commit": None,
        "git_dirty": None,
    }
    try:
        import numpy
        import scipy

        info["numpy"] = numpy.__version__
        info["scipy"] = scipy.__version__
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (ImportError, KeyError, TypeError) as exc:
        info["numpy_error"] = repr(exc)
    if (ROOT / ".git").exists():
        try:
            git = ["git", "-C", str(ROOT)]
            info["git_commit"] = subprocess.run(
                git + ["rev-parse", "HEAD"], capture_output=True, text=True, check=True
            ).stdout.strip()
            status = subprocess.run(
                git + ["status", "--porcelain", "--untracked-files=no"], capture_output=True, text=True, check=True
            ).stdout
            info["git_dirty"] = bool(status.strip())
        except (OSError, subprocess.CalledProcessError):
            pass
    return info


@dataclass
class Child:
    mode: str
    code: int | None  # None: killed at the time budget
    result: dict | None  # None: crashed before writing its result
    out: Path

    @property
    def completed(self) -> bool:
        return self.code == 0 and self.result is not None


def run_child(command: str, mode: str, cfg_path: Path, work: Path, tag: str, timeout: float) -> Child:
    out = work / tag
    out.mkdir()
    result_path = work / f"{tag}.result.json"
    argv = [sys.executable, str(HERE / "child.py"), str(ROOT), command, str(cfg_path), str(out), str(result_path), mode]
    with open(work / f"{tag}.log", "wb") as log:
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=child_env(), cwd=work)
        code = None
        try:
            code = proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    result = json.loads(result_path.read_text(encoding="utf-8")) if result_path.is_file() else None
    return Child(mode, code, result, out)


@dataclass
class Tally:
    """Checks attempted and failed, and the children that count as samples."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    plain: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    setup: list = field(default_factory=list)
    first_digest: str | None = None

    def add(self, child: Child, command: str, cfg: dict, ref: dict, tag: str) -> None:
        results = [("exit 0", child.completed)] + checks.check(command, cfg, ref[command], child.out)
        digest = checks.digest(child.out)
        if self.first_digest is None:
            self.first_digest = digest
        else:
            results.append(("bytes identical to the first bundle", digest == self.first_digest))
        if not child.completed:
            results = [(name, False) for name, _ in results]
        self.attempted += len(results)
        for name, ok in results:
            if not ok:
                self.failed += 1
                self.failures.append(f"{tag}: {name}")
        if child.completed:
            (self.traced if child.mode == "trace" else self.plain).append(child.result)


def summary(values: list) -> dict:
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def run_workload(command: str, cfg: dict, seconds: float, trace: bool, ref: dict, label: str) -> dict:
    started = time.perf_counter()
    deadline = started + RUN_BUDGET_S
    work = OUT / f"work-{os.getpid()}-{label}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = Tally()
    try:
        cfg_path = work / "config.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        # compiles bytecode and warms the file cache; not measured
        warm = run_child(command, "setup", cfg_path, work, "warmup", deadline - time.perf_counter())
        if not warm.completed:
            log = (work / "warmup.log").read_text(encoding="utf-8", errors="replace")
            raise SystemExit(f"ctqw cannot be imported from {ROOT / 'src'}:\n{log}")
        if not trace:
            for i in range(SETUP_PROBES):
                probe = run_child(command, "setup", cfg_path, work, f"setup{i}", deadline - time.perf_counter())
                if probe.completed:
                    tally.setup.append(probe.result["setup_s"])
        longest = 0.0
        i = 0
        while True:
            now = time.perf_counter()
            enough = len(tally.plain) >= (1 if trace else MIN_PLAIN) and len(tally.traced) >= (MIN_TRACED if trace else 0)
            # past the minimum, no child is started that would end after the measuring time
            if (enough and now + longest - started > seconds) or now + longest > deadline:
                break
            mode = "trace" if trace and i % 2 == 0 else "plain"
            t0 = time.perf_counter()
            child = run_child(command, mode, cfg_path, work, f"run{i}-{mode}", deadline - t0)
            longest = max(longest, time.perf_counter() - t0)
            tally.add(child, command, cfg, ref, f"run{i}-{mode}")
            i += 1
            if i >= MIN_PLAIN and not tally.plain and not tally.traced:
                break  # every child fails; more of them would only repeat that
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"label": label, "config": cfg, "trace": trace, "tally": tally, "elapsed_s": time.perf_counter() - started}


def metrics_of(run: dict) -> tuple[dict, dict]:
    """(metrics for the JSON line, sample summaries for the report)."""
    tally = run["tally"]
    plain_wall = [r["wall_s"] for r in tally.plain]
    if not run["trace"]:
        if not tally.plain:
            raise SystemExit(f"{run['label']}: no child completed; failures: {tally.failures[:10]}")
        series = {
            "wall_s": plain_wall,
            "peak_rss_mb": [r["peak_rss_mb"] for r in tally.plain],
            "setup_s": tally.setup + [r["setup_s"] for r in tally.plain],
        }
        stats = {name: summary(values) for name, values in series.items()}
        return {name: {"value": stats[name]["median"], "unit": unit} for name, unit in END_TO_END.items()}, stats
    if not tally.traced or not tally.plain:
        raise SystemExit(f"{run['label']}: too few traced or untraced children completed")
    units = per_layer_units()
    stats = {}
    for name, unit in units.items():
        if name.startswith("trace."):
            continue
        values = [r["trace"][name] for r in tally.traced]
        if unit in DETERMINISTIC_UNITS:
            tally.attempted += 1
            if len(set(values)) > 1:
                tally.failed += 1
                tally.failures.append(f"counter {name} differs between traced runs: {values}")
            values = values[:1]  # reported as counted, not as a median
        stats[name] = summary(values)
    traced_wall = [r["wall_s"] for r in tally.traced]
    stats["trace.wall_s"] = summary(traced_wall)
    overhead = stats["trace.wall_s"]["median"] - statistics.median(plain_wall)
    stats["trace.overhead_s"] = summary([overhead])
    return {name: {"value": stats[name]["median"], "unit": unit} for name, unit in units.items()}, stats


def print_report(run: dict, metrics: dict, stats: dict) -> None:
    tally = run["tally"]
    mode = "traced" if run["trace"] else "untraced"
    print(f"== {run['label']} ({mode}, seed {run['config']['seed']}, {run['elapsed_s']:.1f} s)")
    for name, metric in metrics.items():
        s = stats[name]
        if s["n"] == 1:
            value = metric["value"]
            print(f"  {name:36s} {value:>18.6f} {metric['unit']}" if isinstance(value, float) else
                  f"  {name:36s} {value:>18} {metric['unit']}")
        else:
            print(
                f"  {name:36s} {metric['value']:18.6f} {metric['unit']:5s}"
                f" q1 {s['q1']:.6f} q3 {s['q3']:.6f} n={s['n']}"
            )
    if run["trace"]:
        # equal by construction (the root span is cli.main), so it is shown, not checked
        for r in tally.traced:
            accounted = sum(v for k, v in r["trace"].items() if k.endswith(".self_s"))
            print(f"  layer self times sum to {accounted:.6f} s of traced wall {r['wall_s']:.6f} s")
    fraction = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"  failed_fraction {fraction:.6f} ({tally.failed} of {tally.attempted} checks)")
    for failure in tally.failures[:20]:
        print(f"  FAILED {failure}")


def save(name: str, payload: dict) -> None:
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}.json").write_text(json.dumps(payload, indent=1, sort_keys=True), encoding="utf-8")


def selftest(seed: int, ref: dict) -> bool:
    """A faulted bounds run must count as failed checks and never be a sample."""
    run = run_workload("bounds", dict(SELFTEST_CONFIG, seed=seed), 0.0, False, ref, label="selftest")
    tally = run["tally"]
    ok = tally.attempted > 0 and tally.failed == tally.attempted and not tally.plain
    print(
        f"== selftest: injected fault gave {tally.failed} failed of {tally.attempted} checks,"
        f" {len(tally.plain)} timing samples: {'ok' if ok else 'BROKEN'}"
    )
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so that every running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "ctqw" / "cli.py").is_file():
        print(f"error: no ctqw source under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    passes = [False, True] if args.workload == "all" else [bool(args.trace)]
    attempted = failed = 0
    all_metrics = {}
    for name in names:
        for trace in passes:
            command, base = WORKLOADS[name]
            run = run_workload(command, dict(base, seed=args.seed), args.seconds, trace, ref, label=name)
            metrics, stats = metrics_of(run)
            print_report(run, metrics, stats)
            tally = run["tally"]
            save(
                f"{name}-seed{args.seed}-trace{int(trace)}",
                {
                    "workload": name,
                    "config": run["config"],
                    "environment": env,
                    "metrics": metrics,
                    "samples": stats,
                    "attempted": tally.attempted,
                    "failed": tally.failed,
                    "failures": tally.failures,
                    "plain": tally.plain,
                    "traced": tally.traced,
                },
            )
            attempted += tally.attempted
            failed += tally.failed
            prefix = f"{name}." if args.workload == "all" else ""
            all_metrics.update({prefix + k: v for k, v in metrics.items()})
    correct = failed == 0
    if args.workload == "all":
        correct = selftest(args.seed, ref) and correct
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": all_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
