"""Serialization invariants and the in-process CLI contract."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ctqw import cli, gluedtrees, records, rng, spectral
from ctqw.errors import InconsistencyError, ValidationError


# ---------------------------------------------------------------------------
# float and JSON formatting


def test_format_float_17_digits():
    assert records.format_float(1.0 / 3.0) == "0.33333333333333331"
    assert records.format_float(2.0) == "2.0"
    assert records.format_float(-0.5) == "-0.5"
    assert records.format_float(2.0**100) == "1.2676506002282294e+30"


def test_format_float_rejects_non_finite():
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValidationError):
            records.format_float(bad)


def test_format_float_round_trips():
    rng = np.random.default_rng(0)
    for x in rng.standard_normal(200) * 10.0 ** rng.integers(-12, 12, 200):
        assert float(records.format_float(float(x))) == float(x)


def test_canonical_json_sorted_and_round_trip():
    obj = {"b": [1, 2.5, True, None], "a": {"z": "s", "y": 0.1}}
    text = records.canonical_json(obj)
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"b": [1, 2.5, True, None], "a": {"z": "s", "y": 0.1}}
    # identical input, identical bytes
    assert records.canonical_json(obj) == text


def test_canonical_json_numpy_coercion():
    obj = {"v": np.float64(0.5), "n": np.int64(3), "b": np.bool_(True), "arr": np.array([1.0, 2.0])}
    loaded = json.loads(records.canonical_json(obj))
    assert loaded == {"v": 0.5, "n": 3, "b": True, "arr": [1.0, 2.0]}


def test_canonical_json_rejects_non_string_keys():
    with pytest.raises(ValidationError):
        records.canonical_json({1: "x"})


# ---------------------------------------------------------------------------
# CSV rendering


def test_render_csv_layout():
    text = records.render_csv(
        ["a", "b", "c"],
        [{"a": 1, "b": True, "c": None}, {"a": 0.25, "b": False, "c": "ok"}],
        comment="demo",
    )
    lines = text.splitlines()
    assert lines[0] == "# demo"
    assert lines[1] == "a,b,c"
    assert lines[2] == "1,true,"
    assert lines[3] == "0.25,false,ok"


def test_render_csv_rejects_breaking_cells():
    for bad in ("x,y", 'quo"te', "new\nline"):
        with pytest.raises(ValidationError):
            records.render_csv(["a"], [{"a": bad}])
    with pytest.raises(ValidationError):
        records.render_csv(["a"], [], comment="two\nlines")


def test_experiment_record_round_trip():
    rec = records.ExperimentRecord(
        kind="demo",
        config={"n": [8]},
        seed=5,
        rows=({"x": 1.5, "ok": True},),
        summary={"all": True},
    )
    back = records.record_from_json(rec.to_json())
    assert back.kind == "demo" and back.seed == 5
    assert back.rng == rec.rng == rng.RNG_NAME
    assert back.rows == ({"x": 1.5, "ok": True},)
    assert "wall_clock_s" not in json.loads(rec.to_json())  # timings stay out of records
    with pytest.raises(ValidationError):
        records.record_from_json('{"kind": "demo"}')


# ---------------------------------------------------------------------------
# CLI: gluedtrees


def write_cfg(path, payload) -> str:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_cli_gluedtrees_small(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "g.json", {"n": [8], "seed": 9, "mc_runs": 40})
    rc = cli.main(["gluedtrees", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "certified" in out
    data = json.loads((tmp_path / "gluedtrees.json").read_text())
    assert data["kind"] == "gluedtrees"
    assert data["seed"] == 9
    assert data["summary"]["all_hold"] is True
    assert data["rows"][0]["n"] == 8
    row = data["rows"][0]
    assert row["mc_shots"] == round(row["mc_runs"] * row["mc_mean_repetitions"])
    assert row["mc_shots"] <= row["mc_runs"] * row["max_repetitions"]
    csv_lines = (tmp_path / "gluedtrees.csv").read_text().splitlines()
    assert csv_lines[0].startswith("#")
    assert csv_lines[1].split(",") == cli.GLUEDTREES_COLUMNS
    assert len(csv_lines) == 3

    # rerun into a second directory: byte-identical artifacts
    other = tmp_path / "again"
    rc = cli.main(["gluedtrees", "--config", cfg, "--out", str(other)])
    assert rc == 0
    assert (other / "gluedtrees.json").read_bytes() == (tmp_path / "gluedtrees.json").read_bytes()
    assert (other / "gluedtrees.csv").read_bytes() == (tmp_path / "gluedtrees.csv").read_bytes()


def test_cli_gluedtrees_root_refinement_failure_exits_4(tmp_path, monkeypatch, capsys):
    # a failed momentum certificate is an internal failure, not a traceback
    monkeypatch.setattr(gluedtrees, "SQRT2", 10.0)  # sinh((n+1)q) / sinh(nq) < 10 on (0, 1]
    cfg = write_cfg(tmp_path / "g.json", {"n": [8], "seed": 9, "mc_runs": 4})
    assert cli.main(["gluedtrees", "--config", cfg, "--out", str(tmp_path)]) == 4
    assert "hyperbolic momentum residual" in capsys.readouterr().err


def test_cli_gluedtrees_rejects_bad_size(tmp_path):
    cfg = write_cfg(tmp_path / "g.json", {"n": [3], "seed": 1})
    assert cli.main(["gluedtrees", "--config", cfg, "--out", str(tmp_path)]) == 3


def test_cli_missing_config(tmp_path):
    assert cli.main(["gluedtrees", "--config", str(tmp_path / "nope.json")]) == 3


def test_cli_bad_json_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert cli.main(["gluedtrees", "--config", str(bad)]) == 3


# ---------------------------------------------------------------------------
# CLI: search


def test_cli_search_small(tmp_path):
    cfg = write_cfg(
        tmp_path / "s.json",
        {"families": ["complete"], "N": [6], "epsilons": [0.1, 0.2], "shots": 2000, "seed": 4},
    )
    rc = cli.main(["search", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    data = json.loads((tmp_path / "search.json").read_text())
    assert data["summary"]["all_floor_holds"] is True
    assert [row["epsilon"] for row in data["rows"]] == [0.2, 0.1]
    fits = data["summary"]["total_time_fits"]
    assert fits[0]["slope"] > 0
    # the reduced walk dimension, 2N - 1, is the last CSV column
    assert [row["walk_dim"] for row in data["rows"]] == [11, 11]
    header = (tmp_path / "search.csv").read_text().splitlines()[1]
    assert header.endswith(",floor_holds,walk_dim")

    other = tmp_path / "again"
    assert cli.main(["search", "--config", cfg, "--out", str(other)]) == 0
    assert (other / "search.json").read_bytes() == (tmp_path / "search.json").read_bytes()


def test_cli_search_chain_file(tmp_path):
    chain_file = tmp_path / "chain.json"
    chain_file.write_text(
        json.dumps(
            {
                "n": 3,
                "format": "weighted-graph",
                "data": [[0, 1, 1.0], [1, 2, 1.0], [0, 2, 1.0], [0, 0, 1.0]],
                "marked": 1,
            }
        ),
        encoding="utf-8",
    )
    cfg = write_cfg(
        tmp_path / "s.json", {"chains": [str(chain_file)], "epsilons": [0.1], "shots": 500, "seed": 2}
    )
    assert cli.main(["search", "--config", cfg, "--out", str(tmp_path)]) == 0


def test_cli_search_fractional_vertex_index_exits_3(tmp_path, capsys):
    chain_file = tmp_path / "chain.json"
    payload = {"n": 3, "format": "weighted-graph", "data": [[0, 1.7, 1.0], [1, 2, 1.0]], "marked": 1}
    chain_file.write_text(json.dumps(payload), encoding="utf-8")
    cfg = write_cfg(tmp_path / "s.json", {"chains": [str(chain_file)], "epsilons": [0.1], "seed": 2})
    assert cli.main(["search", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert "whole-number vertex indices" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("marked", 1.7), ("marked", True), ("n", 3.9), ("marked", "1")])
def test_cli_search_fractional_payload_field_exits_3(tmp_path, capsys, field, value):
    chain_file = tmp_path / "chain.json"
    payload = {"n": 3, "format": "weighted-graph", "data": [[0, 1, 1.0], [1, 2, 1.0]], "marked": 1}
    chain_file.write_text(json.dumps({**payload, field: value}), encoding="utf-8")
    cfg = write_cfg(tmp_path / "s.json", {"chains": [str(chain_file)], "epsilons": [0.1], "seed": 2})
    assert cli.main(["search", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert f"field '{field}' must be a whole number" in capsys.readouterr().err


def test_cli_search_failed_floor_exits_2(tmp_path, capsys):
    payload = {"families": ["complete"], "N": [8], "epsilons": [0.1], "time_factor": 0.01, "shots": 500, "seed": 3}
    cfg = write_cfg(tmp_path / "s.json", payload)
    assert cli.main(["search", "--config", cfg, "--out", str(tmp_path)]) == 2
    data = json.loads((tmp_path / "search.json").read_text())
    assert data["summary"]["all_floor_holds"] is False
    assert [row["floor_holds"] for row in data["rows"]] == [False]
    assert (tmp_path / "search.csv").exists()
    assert "success floor violated" in capsys.readouterr().err


def test_cli_search_irreversible_chain_file(tmp_path):
    chain_file = tmp_path / "bad.json"
    chain_file.write_text(
        json.dumps(
            {
                "n": 3,
                "format": "dense",
                "data": [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
                "marked": 0,
            }
        ),
        encoding="utf-8",
    )
    cfg = write_cfg(tmp_path / "s.json", {"chains": [str(chain_file)], "epsilons": [0.1], "seed": 2})
    assert cli.main(["search", "--config", cfg, "--out", str(tmp_path)]) == 3


# ---------------------------------------------------------------------------
# CLI: bounds


def test_cli_bounds_small(tmp_path):
    cfg = write_cfg(tmp_path / "b.json", {"instances": 12, "seed": 3})
    rc = cli.main(["bounds", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    data = json.loads((tmp_path / "bounds.json").read_text())
    assert data["summary"]["all_hold"] is True
    assert set(data["summary"]["min_slack"]) == {"mixing", "eigenspace", "subset", "residual"}
    assert all(v >= -1e-9 for v in data["summary"]["min_slack"].values())
    assert data["summary"]["comparison_all_ok"] is True


def test_cli_bounds_fault_injection(tmp_path):
    cfg = write_cfg(tmp_path / "b.json", {"instances": 3, "seed": 3, "inject_fault": True})
    rc = cli.main(["bounds", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    data = json.loads((tmp_path / "bounds.json").read_text())
    assert data["summary"]["fault_injected"] is True
    assert data["summary"]["all_hold"] is False
    # files are still written on the failure path
    assert (tmp_path / "bounds.csv").exists()


def test_cli_bounds_jobs_parallel_identical(tmp_path):
    cfg = write_cfg(tmp_path / "b.json", {"instances": 6, "seed": 12})
    one = tmp_path / "one"
    two = tmp_path / "two"
    assert cli.main(["bounds", "--config", cfg, "--out", str(one), "--jobs", "1"]) == 0
    assert cli.main(["bounds", "--config", cfg, "--out", str(two), "--jobs", "2"]) == 0
    assert (one / "bounds.json").read_bytes() == (two / "bounds.json").read_bytes()
    assert (one / "bounds.csv").read_bytes() == (two / "bounds.csv").read_bytes()


def test_cli_search_jobs_parallel_identical(tmp_path):
    cfg = write_cfg(
        tmp_path / "s.json",
        {"families": ["complete", "random-reversible"], "N": [5], "epsilons": [0.2, 0.1], "shots": 300, "seed": 3},
    )
    one = tmp_path / "one"
    two = tmp_path / "two"
    assert cli.main(["search", "--config", cfg, "--out", str(one), "--jobs", "1"]) == 0
    assert cli.main(["search", "--config", cfg, "--out", str(two), "--jobs", "2"]) == 0
    assert (one / "search.json").read_bytes() == (two / "search.json").read_bytes()
    assert (one / "search.csv").read_bytes() == (two / "search.csv").read_bytes()


class SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    max_workers = []

    def __init__(self, max_workers):
        self.max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize("jobs, workers", [("64", [3]), ("1", []), ("0", [])])
def test_cli_jobs_capped_at_task_count(tmp_path, monkeypatch, jobs, workers):
    monkeypatch.setattr(SerialPool, "max_workers", [])
    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    cfg = write_cfg(tmp_path / "b.json", {"instances": 3, "seed": 12})
    assert cli.main(["bounds", "--config", cfg, "--out", str(tmp_path), "--jobs", jobs]) == 0
    assert SerialPool.max_workers == workers
    assert json.loads((tmp_path / "bounds.json").read_text())["summary"]["instances"] == 3


# ---------------------------------------------------------------------------
# CLI: shared plumbing


def test_cli_env_out_overrides_flag(tmp_path, monkeypatch):
    env_dir = tmp_path / "envdir"
    monkeypatch.setenv("CTQW_OUT", str(env_dir))
    cfg = write_cfg(tmp_path / "b.json", {"instances": 2, "seed": 1})
    assert cli.main(["bounds", "--config", cfg, "--out", str(tmp_path / "flagdir")]) == 0
    assert (env_dir / "bounds.json").exists()
    assert not (tmp_path / "flagdir" / "bounds.json").exists()


def test_cli_seed_flag_overrides_config(tmp_path):
    cfg = write_cfg(tmp_path / "b.json", {"instances": 2, "seed": 1})
    assert cli.main(["bounds", "--config", cfg, "--out", str(tmp_path), "--seed", "77"]) == 0
    data = json.loads((tmp_path / "bounds.json").read_text())
    assert data["seed"] == 77


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "required: command"),
        (["walk"], "invalid choice: 'walk'"),
        (["bounds"], "required: --config"),
        (["bounds", "--config", "b.json", "--jobs", "x"], "--jobs: invalid int value: 'x'"),
    ],
)
def test_cli_usage_error_exits_3(argv, message, capsys):
    assert cli.main(argv) == 3
    assert message in capsys.readouterr().err


def test_cli_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["search", "--help"])
    assert exc.value.code == 0
    assert "--config" in capsys.readouterr().out


def test_cli_uncreatable_out_dir_exits_3(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    cfg = write_cfg(tmp_path / "b.json", {"instances": 2, "seed": 1})
    assert cli.main(["bounds", "--config", cfg, "--out", str(blocker / "sub")]) == 3
    assert f"cannot create output directory {blocker / 'sub'}" in capsys.readouterr().err


@pytest.mark.parametrize("out", [5, None, ["d"], {"path": "d"}])
def test_cli_non_string_config_out_exits_3(tmp_path, monkeypatch, capsys, out):
    monkeypatch.delenv("CTQW_OUT", raising=False)
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path / "b.json", {"instances": 2, "seed": 1, "out": out})
    assert cli.main(["bounds", "--config", cfg]) == 3
    assert "config field 'out' must be a string" in capsys.readouterr().err
    assert not (tmp_path / "bounds.csv").exists()


def test_cli_seed_required(tmp_path):
    cfg = write_cfg(tmp_path / "b.json", {"instances": 2})
    assert cli.main(["bounds", "--config", cfg, "--out", str(tmp_path)]) == 3


@pytest.mark.parametrize(
    "command, payload, argv, message",
    [
        ("bounds", {"instances": 2, "seed": 1}, ["--seed", "-1"], "a seed >= 0 is required"),
        ("bounds", {"instances": 2, "seed": -3}, [], "a seed >= 0 is required"),
        (
            "search",
            {"families": ["complete"], "N": [4], "epsilons": [0.1], "seed": 1, "time_factor": float("inf")},
            [],
            "config field 'time_factor'",
        ),
        ("bounds", {"instances": 2, "seed": 1, "t_range": [0.1, float("inf")]}, [], "config field 't_range'"),
    ],
    ids=["seed-flag", "seed-config", "time-factor-infinity", "t-range-infinity"],
)
def test_cli_negative_seed_or_non_finite_number_exits_3(tmp_path, capsys, command, payload, argv, message):
    cfg = write_cfg(tmp_path / "c.json", payload)
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path), *argv]) == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / f"{command}.json").exists()


def test_cli_inconsistency_exit_code(tmp_path, monkeypatch):
    def boom(cfg, seed, jobs):
        raise InconsistencyError("synthetic")

    monkeypatch.setattr(cli, "_cmd_bounds", boom)
    cfg = write_cfg(tmp_path / "b.json", {"instances": 2, "seed": 1})
    assert cli.main(["bounds", "--config", cfg]) == 4


def test_cli_numerical_postcondition_exits_4(tmp_path, monkeypatch):
    # a broken eigendecomposition is an internal failure, not bad input
    eigh = np.linalg.eigh

    def broken_eigh(a):
        w, v = eigh(a)
        return w, 2.0 * v

    monkeypatch.setattr(np.linalg, "eigh", broken_eigh)
    cfg = write_cfg(tmp_path / "b.json", {"instances": 2, "seed": 1})
    assert cli.main(["bounds", "--config", cfg, "--out", str(tmp_path)]) == 4


def run_python(*args) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with this checkout's ctqw first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=60)


def test_module_entry_point_imports_cli_once():
    proc = run_python("-W", "error::RuntimeWarning", "-m", "ctqw.cli", "--version")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ctqw ")


def test_import_loads_no_scipy():
    # scipy serves only the quadrature oracle; importing it would dominate start-up
    code = (
        "import sys\n"
        "scipy = lambda: sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "import ctqw\n"
        "print(scipy())\n"
        "import ctqw.cli\n"
        "print(scipy())\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]"]


# ---------------------------------------------------------------------------
# CLI: per-task random streams


def search_rows(tmp_path, payload) -> list:
    tmp_path.mkdir(exist_ok=True)
    cfg = write_cfg(tmp_path / "s.json", payload)
    assert cli.main(["search", "--config", cfg, "--out", str(tmp_path)]) == 0
    return json.loads((tmp_path / "search.json").read_text())["rows"]


def test_cli_search_epsilon_rows_share_one_chain(tmp_path):
    # the total-time fit regresses over epsilon, so every row of a
    # (family, N) group must be the same chain
    rows = search_rows(
        tmp_path,
        {"families": ["random-reversible"], "N": [6, 7], "epsilons": [0.2, 0.1, 0.05], "shots": 100, "seed": 7},
    )
    for n in (6, 7):
        group = [row for row in rows if row["N"] == n]
        assert len(group) == 3
        assert len({row["ht"] for row in group}) == 1
    assert len({row["ht"] for row in rows}) == 2
    assert len({row["rng_seed"] for row in rows}) == len(rows)


def test_cli_search_nearby_seeds_share_no_stream(tmp_path):
    payload = {"families": ["complete"], "N": [4], "epsilons": [0.2, 0.1], "shots": 100}
    streams = [
        {row["rng_seed"] for row in search_rows(tmp_path / str(seed), {**payload, "seed": seed})}
        for seed in (7, 8)
    ]
    assert len(streams[0]) == len(streams[1]) == 2
    assert not streams[0] & streams[1]


def count_calls(monkeypatch, module, names) -> dict:
    counts = dict.fromkeys(names, 0)
    for name in names:
        orig = getattr(module, name)

        def counted(*args, _orig=orig, _name=name, **kwargs):
            counts[_name] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


def test_bounds_instance_decomposes_once(monkeypatch):
    counts = count_calls(monkeypatch, spectral, ["decompose", "gaps"])
    for idx in range(20):
        counts.update(decompose=0, gaps=0)
        rows = cli._bounds_instance((idx, 7, 10, 0.1, 1000.0, (1, 2, 3, 4)))
        assert all(row["holds"] for row in rows)
        assert counts["decompose"] == 1
        assert counts["gaps"] <= 2


def test_gluedtrees_row_decomposes_the_column_generator_twice(monkeypatch):
    counts = count_calls(monkeypatch, spectral, ["decompose"])
    row = cli._gluedtrees_row((16, 5, 20))[0]
    # certified_hitting_times' column walk, and the Monte Carlo's own
    assert counts["decompose"] == 2
    assert row["holds"]
    assert min(row[f"slack_l{i}"] for i in (1, 2, 3)) > 0


def test_gluedtrees_row_holds_requires_certified_slack(monkeypatch):
    certified = gluedtrees.certified_hitting_times
    monkeypatch.setattr(
        gluedtrees, "certified_hitting_times", lambda two_n: {**certified(two_n), "slack_l2": -1e-3}
    )
    assert not cli._gluedtrees_row((16, 5, 20))[0]["holds"]
