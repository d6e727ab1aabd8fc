"""Serialization invariants and the in-process CLI contract."""
import concurrent.futures
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ctqw import cli, gluedtrees, markov, records, rng, search, spectral, walk
from ctqw.errors import InconsistencyError, ValidationError

from conftest import birth_death_payload, bottleneck_payload, cube_quotient_payload, rows_of


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


FLAT_ROW = {
    "f": np.float64(0.1),
    "i": np.int64(-3),
    "b": np.bool_(False),
    "n": None,
    "s": "mixing",
    "two": 2.0,
}


def test_canonical_json_flat_row_bytes():
    assert records.canonical_json(FLAT_ROW) == (
        '{\n  "b": false,\n  "f": 0.10000000000000001,\n  "i": -3,\n'
        '  "n": null,\n  "s": "mixing",\n  "two": 2.0\n}\n'
    )
    table = {key: np.array([value]) for key, value in FLAT_ROW.items()}
    assert records.render_csv(["s", "f", "i", "b", "n", "two"], table) == (
        "s,f,i,b,n,two\nmixing,0.10000000000000001,-3,false,,2.0\n"
    )


def test_canonical_json_nested_dict_bytes():
    # the outer dict holds a list, so it takes the general path; the first
    # dict inside the list is flat, the second holds a list again
    obj = {"z": "q", "outer": [{"b": 1, "a": 0.5}, {"c": [True]}]}
    assert records.canonical_json(obj) == (
        "{\n"
        '  "outer": [\n'
        "    {\n"
        '      "a": 0.5,\n'
        '      "b": 1\n'
        "    },\n"
        "    {\n"
        '      "c": [\n'
        "        true\n"
        "      ]\n"
        "    }\n"
        "  ],\n"
        '  "z": "q"\n'
        "}\n"
    )


@pytest.mark.parametrize("row", [{**FLAT_ROW, "f": float("nan")}, {**FLAT_ROW, 2: 1.0}, {3: np.float64(1.0)}])
def test_canonical_json_flat_row_rejects_nan_and_non_string_key(row):
    with pytest.raises(ValidationError):
        records.canonical_json(row)
    with pytest.raises(ValidationError):
        records.canonical_json([row])


def oracle_json(obj, indent: int = 0) -> str:
    """Plain recursive emitter of the canonical format, one value at a time."""
    pad, end = " " * (indent + 2), " " * indent
    if isinstance(obj, (np.generic, np.ndarray)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        items = [pad + json.dumps(key) + ": " + oracle_json(obj[key], indent + 2) for key in sorted(obj)]
        return "{\n" + ",\n".join(items) + "\n" + end + "}" if items else "{}"
    if isinstance(obj, list):
        items = [pad + oracle_json(item, indent + 2) for item in obj]
        return "[\n" + ",\n".join(items) + "\n" + end + "]" if items else "[]"
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        text = format(obj, ".17g")
        return text if any(ch in text for ch in ".eE") else text + ".0"
    return json.dumps(obj)


def test_canonical_json_matches_oracle_on_bounds_rows():
    config, table, summary, failure, _ = cli._cmd_bounds({"instances": 50}, 7, 1)
    rows = rows_of(table)
    assert failure is None and len(rows) > 50 * 5
    record = {"config": config, "rows": rows, "summary": summary}
    assert records.canonical_json(rows) == oracle_json(rows) + "\n"
    assert records.canonical_json(record) == oracle_json(record) + "\n"


# ---------------------------------------------------------------------------
# CSV rendering


def test_render_csv_layout():
    text = records.render_csv(
        ["a", "b", "c"],
        {"a": np.array([1, 0.25], dtype=object), "b": np.array([True, False]), "c": np.array([None, "ok"])},
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
            records.render_csv(["a"], {"a": np.array(["ok", bad])})
    with pytest.raises(ValidationError):
        records.render_csv(["a"], {}, comment="two\nlines")


@pytest.mark.parametrize(
    "values",
    [
        [7, 7, 7, 3, 3, 9],  # a last run of one
        [1, 1, 2, 2, 2],  # a last run of several
        [-5, 0, 0, 12345678901234, 12345678901234, -5],
        [4],
    ],
)
@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
def test_int_columns_render_each_cell_once_per_run(values, dtype):
    column = np.array(values, dtype=np.int64).astype(dtype)
    texts = [str(v) for v in column.tolist()]
    assert records._column(column) == (texts, texts)


def test_uint64_columns_render_past_the_int64_range():
    column = np.array([2**64 - 1, 2**64 - 1, 2**63, 0], dtype=np.uint64)
    texts = ["18446744073709551615", "18446744073709551615", "9223372036854775808", "0"]
    assert records._column(column) == (texts, texts)


def test_float_columns_render_as_format_float():
    # random bit patterns span the exponent range; the edges are the signed zeros,
    # subnormals, the integral values about 2^53 and 1e17, where a '.0' is added
    # and then no longer, and the largest doubles
    bits = rng.rng_stream(3).integers(0, 2**64, size=50_000, dtype=np.uint64).view(np.float64)
    draws = rng.rng_stream(4)
    integral = np.round(draws.standard_normal(5000) * 10.0 ** draws.integers(0, 20, 5000))
    edges = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.0**53, 2.0**53 + 2.0, -(2.0**53), 1e16, 1e17, -1e17]
    edges += [np.nextafter(1e17, 0.0), np.nextafter(1e17, 1e18), sys.float_info.max, -sys.float_info.max]
    values = np.concatenate([bits[np.isfinite(bits)], integral, edges])
    texts = [records.format_float(x) for x in values.tolist()]
    assert records._column(values) == (texts, texts)


def test_experiment_record_round_trip():
    rec = records.ExperimentRecord(
        kind="demo",
        config={"n": [8]},
        seed=5,
        rows={"x": np.array([1.5]), "ok": np.array([True])},
        summary={"all": True},
    )
    back = json.loads(rec.to_json())
    assert back["kind"] == "demo" and back["seed"] == 5
    assert back["rng"] == rec.rng == rng.RNG_NAME
    assert back["rows"] == [{"x": 1.5, "ok": True}]
    assert "wall_clock_s" not in back  # timings stay out of records


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


def test_cli_gluedtrees_scaled_normalization_exits_4(tmp_path, monkeypatch, capsys):
    # a closed-form column walk that fails its completeness certificate is an internal failure
    alpha_sq = gluedtrees.alpha_sq
    monkeypatch.setattr(gluedtrees, "alpha_sq", lambda two_n, p: alpha_sq(two_n, p) * (1.0 + 1e-9))
    cfg = write_cfg(tmp_path / "g.json", {"n": [8], "seed": 9, "mc_runs": 4})
    assert cli.main(["gluedtrees", "--config", cfg, "--out", str(tmp_path)]) == 4
    assert "column walk certificate sum c^2 - 1" in capsys.readouterr().err


def test_cli_gluedtrees_rejects_bad_size(tmp_path):
    cfg = write_cfg(tmp_path / "g.json", {"n": [3], "seed": 1})
    assert cli.main(["gluedtrees", "--config", cfg, "--out", str(tmp_path)]) == 3


def test_cli_missing_config(tmp_path):
    assert cli.main(["gluedtrees", "--config", str(tmp_path / "nope.json")]) == 3


def test_cli_bad_json_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert cli.main(["gluedtrees", "--config", str(bad)]) == 3


@pytest.mark.parametrize("what", ["config", "chain file"])
def test_cli_file_not_in_utf8_exits_3(tmp_path, capsys, what):
    # its UnicodeDecodeError once escaped cli.main as a traceback (exit 1)
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{")
    cfg = str(bad) if what == "config" else write_cfg(tmp_path / "s.json", {"chains": [str(bad)], "epsilons": [0.1], "seed": 2})
    assert cli.main(["search", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {what} {bad}: 'utf-8' codec can't decode") and err.count("\n") == 1


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


def test_cli_search_infinite_weight_exits_3(tmp_path, capsys):
    chain_file = tmp_path / "chain.json"
    payload = {"n": 3, "format": "weighted-graph", "data": [[0, 1, 1.0], [1, 2, float("inf")]], "marked": 1}
    chain_file.write_text(json.dumps(payload), encoding="utf-8")  # JSON "Infinity"
    cfg = write_cfg(tmp_path / "s.json", {"chains": [str(chain_file)], "epsilons": [0.1], "seed": 2})
    assert cli.main(["search", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert "weighted-graph weight at (1, 2) is inf, not finite" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("marked", 1.7), ("marked", True), ("n", 3.9), ("marked", "1")])
def test_cli_search_fractional_payload_field_exits_3(tmp_path, capsys, field, value):
    chain_file = tmp_path / "chain.json"
    payload = {"n": 3, "format": "weighted-graph", "data": [[0, 1, 1.0], [1, 2, 1.0]], "marked": 1}
    chain_file.write_text(json.dumps({**payload, field: value}), encoding="utf-8")
    cfg = write_cfg(tmp_path / "s.json", {"chains": [str(chain_file)], "epsilons": [0.1], "seed": 2})
    assert cli.main(["search", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert f"field '{field}' must be a whole number" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["dense", "weighted-graph"])
@pytest.mark.parametrize("data", [[["a", "b"], ["c", "d"]], [[0.5, 0.5], [1.0]]], ids=["non-numeric", "ragged"])
def test_cli_search_malformed_chain_data_exits_3(tmp_path, capsys, fmt, data):
    chain_file = tmp_path / "chain.json"
    chain_file.write_text(json.dumps({"n": 2, "format": fmt, "data": data, "marked": 0}), encoding="utf-8")
    cfg = write_cfg(tmp_path / "s.json", {"chains": [str(chain_file)], "epsilons": [0.1], "seed": 2})
    assert cli.main(["search", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert "chain payload field 'data'" in capsys.readouterr().err
    assert not (tmp_path / "out" / "search.json").exists()


def test_cli_search_failed_floor_exits_2(tmp_path, capsys):
    payload = {"families": ["complete"], "N": [8], "epsilons": [0.1], "time_factor": 0.01, "shots": 500, "seed": 3}
    cfg = write_cfg(tmp_path / "s.json", payload)
    assert cli.main(["search", "--config", cfg, "--out", str(tmp_path)]) == 2
    data = json.loads((tmp_path / "search.json").read_text())
    assert data["summary"]["all_floor_holds"] is False
    assert [row["floor_holds"] for row in data["rows"]] == [False]
    assert (tmp_path / "search.csv").exists()
    assert "success floor violated" in capsys.readouterr().err


@pytest.mark.parametrize("miss, holds, rc", [(1e-6, False, 2), (1e-10, True, 0)])
def test_cli_search_floor_forgives_rounding_and_no_more(tmp_path, monkeypatch, miss, holds, rc):
    # floor_holds allows p_exact 1e-9 below 1/4 - epsilon: 1e-6 below misses the
    # floor and exits 2, 1e-10 below holds it
    monkeypatch.setattr(walk.SpectralWalk, "probability", lambda self, dist: 0.25 - 0.1 - miss)
    assert search.run_search(markov.complete_chain(8), 0, 0.1, rng_seed=3, shots=0).floor_holds is holds
    cfg = write_cfg(tmp_path / "s.json", {"families": ["complete"], "N": [8], "epsilons": [0.1], "shots": 500, "seed": 3})
    assert cli.main(["search", "--config", cfg, "--out", str(tmp_path)]) == rc
    rows = json.loads((tmp_path / "search.json").read_text())["rows"]
    assert [(row["p_exact"], row["floor_holds"]) for row in rows] == [(0.25 - 0.1 - miss, holds)]


def run_chain_file(tmp_path, payload, shots=2000):
    chain_file = tmp_path / "chain.json"
    chain_file.write_text(json.dumps(payload), encoding="utf-8")
    cfg = write_cfg(tmp_path / "s.json", {"chains": [str(chain_file)], "epsilons": [0.1], "shots": shots, "seed": 7})
    return cli.main(["search", "--config", cfg, "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("w", [1e-5, 1e-7])
def test_cli_search_through_a_bottleneck(tmp_path, w):
    # two 8-cliques joined by one edge of weight w: eigh cannot resolve D's
    # top eigenvector there, and sqrt(pi_s) needs no eigensolver
    assert run_chain_file(tmp_path, bottleneck_payload(w)) == 0
    (row,) = json.loads((tmp_path / "out" / "search.json").read_text())["rows"]
    assert row["ht"] > 0.5 / w
    assert abs(row["mc_freq"] - row["p_exact"]) <= 3.0 * math.sqrt(row["p_exact"] * (1.0 - row["p_exact"]) / 2000)


def search_row(tmp_path, payload) -> dict:
    tmp_path.mkdir(exist_ok=True)
    assert run_chain_file(tmp_path, payload) == 0
    (row,) = json.loads((tmp_path / "out" / "search.json").read_text())["rows"]
    assert row["walk_dim"] == 2 * row["N"] - 1  # the Perron eigenvalue is the one energy 0
    return row


@pytest.mark.parametrize("w", [1e-11, 1e-12])
def test_cli_search_bottleneck_past_a_hitting_time_of_1e12(tmp_path, w):
    # 1 - lambda_2 of D(P_s*) falls below 1e-12 here, yet its energy, about 1e-6, is
    # resolved: a lambda_2 put at energy 0 with the top eigenvalue read p_exact 0.297
    reference = search_row(tmp_path / "ref", bottleneck_payload(1e-9))
    row = search_row(tmp_path, bottleneck_payload(w))
    assert row["gap_s_star"] < 1e-12 and abs(row["p_exact"] - reference["p_exact"]) <= 5e-3
    assert abs(row["mc_freq"] - row["p_exact"]) <= 3.0 * math.sqrt(row["p_exact"] * (1.0 - row["p_exact"]) / 2000)


@pytest.mark.parametrize("d", [40, 45])
def test_cli_search_cube_quotient_past_a_hitting_time_of_1e12(tmp_path, d):
    row = search_row(tmp_path, cube_quotient_payload(d))
    assert row["ht"] > 1e12 and row["floor_holds"] and row["p_exact"] > 0.65


def test_cli_search_half_weight_point_of_a_tiny_marked_weight(tmp_path):
    # pi_0 = 1.9e-10: a chain at s* that took 1 - s* again missed the half-weight
    # point by 4.7e-8, and the overlap preconditions refused it with exit 3
    row = search_row(tmp_path, birth_death_payload(21))
    assert row["overlap_marked"] == 0.5 and row["floor_holds"] and row["mc_within_3sigma"]


@pytest.mark.parametrize("payload", [cube_quotient_payload(50), bottleneck_payload(1e-13)], ids=["cube-50", "bottleneck-1e-13"])
def test_cli_search_gap_beyond_float64_exits_4(tmp_path, capsys, payload):
    # lambda_2 within n 2^-52 of 1: eigh cannot tell it from the top eigenvalue
    assert run_chain_file(tmp_path, payload, shots=100) == 4
    err = capsys.readouterr().err
    assert err.startswith("inconsistency: D's lambda_2 = ") and "its gap is beyond float64 precision" in err
    assert err.count("\n") == 1 and not (tmp_path / "out" / "search.json").exists()


@pytest.mark.parametrize("payload", [bottleneck_payload(1e-17), birth_death_payload(41)], ids=["bottleneck-1e-17", "birth-death-41"])
def test_cli_search_hitting_time_beyond_float64_exits_4(tmp_path, capsys, payload):
    # numpy's LinAlgError from the hitting-time solve becomes one line, not a traceback
    assert run_chain_file(tmp_path, payload, shots=100) == 4
    err = capsys.readouterr().err
    assert err.startswith("inconsistency: hitting-time solve is singular") and err.count("\n") == 1
    assert not (tmp_path / "out" / "search.json").exists()


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


@pytest.mark.parametrize(
    "command, payload, message",
    [
        ("gluedtrees", {"n": [8, 8], "mc_runs": 5}, "'n' repeats 8"),
        ("search", {"families": ["complete"], "N": [8], "epsilons": [0.1, 0.1], "shots": 100}, "'epsilons' repeats 0.1"),
        ("search", {"families": ["complete", "complete"], "N": [8], "epsilons": [0.1], "shots": 100}, "'families' repeats 'complete'"),
        ("search", {"families": ["complete"], "N": [8, 8], "epsilons": [0.1], "shots": 100}, "'N' repeats 8"),
    ],
    ids=["n", "epsilons", "families", "N"],
)
def test_cli_repeated_config_entry_exits_3(tmp_path, capsys, command, payload, message):
    # a repeated entry would run one row twice and fit a slope through one point
    cfg = write_cfg(tmp_path / "c.json", {**payload, "seed": 1})
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 3
    assert f"config field {message}" in capsys.readouterr().err
    assert not any(out.iterdir())


def write_chain(path) -> str:
    payload = {"n": 3, "format": "weighted-graph", "data": [[0, 1, 1.0], [1, 2, 1.0], [0, 2, 1.0], [0, 0, 1.0]], "marked": 1}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_cli_repeated_chain_stem_exits_3(tmp_path, capsys):
    chains = [write_chain(tmp_path / "a" / "chain.json"), write_chain(tmp_path / "b" / "chain.json")]
    cfg = write_cfg(tmp_path / "s.json", {"chains": chains, "epsilons": [0.1], "shots": 100, "seed": 2})
    out = tmp_path / "out"
    assert cli.main(["search", "--config", cfg, "--out", str(out)]) == 3
    assert "config field 'chains' repeats 'chain'" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_cli_chain_stem_with_comma_leaves_no_bundle(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path / "s.json", {"chains": [write_chain(tmp_path / "a,b.json")], "epsilons": [0.1], "shots": 100, "seed": 2}
    )
    out = tmp_path / "out"
    assert cli.main(["search", "--config", cfg, "--out", str(out)]) == 3
    assert "config field 'chains' must be a list of file paths whose stems hold no comma, quote or newline" in capsys.readouterr().err
    assert not any(out.iterdir())


SEARCH_CFG = {"families": ["complete"], "N": [8], "epsilons": [0.1]}
#: (command, config, field, one bad value of it) for every config field of the three subcommands
FIELD_REFUSALS = [
    ("gluedtrees", {"n": [8]}, "n", [8, 10.5]),
    ("gluedtrees", {"n": [8]}, "mc_runs", True),
    ("search", SEARCH_CFG, "epsilons", [0.1, 0.25]),
    ("search", SEARCH_CFG, "shots", 0),
    ("search", SEARCH_CFG, "marked", -1),
    ("search", SEARCH_CFG, "time_factor", 0),
    ("search", SEARCH_CFG, "families", ["star"]),
    ("search", SEARCH_CFG, "N", [8, 1]),
    ("search", SEARCH_CFG, "chains", [5]),
    ("bounds", {}, "instances", 2.0),
    ("bounds", {}, "dim_max", 1),
    ("bounds", {}, "t_range", [10, 1]),
    ("bounds", {}, "k_values", [2, 0]),
    ("bounds", {}, "inject_fault", "yes"),
]


@pytest.mark.parametrize("command, base, key, value", FIELD_REFUSALS, ids=[f"{c}-{k}" for c, _, k, _ in FIELD_REFUSALS])
def test_cli_each_config_field_refuses_a_bad_value_in_one_line(tmp_path, capsys, command, base, key, value):
    cfg, out = write_cfg(tmp_path / "c.json", {**base, key: value, "seed": 1}), tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: config field {key!r} must be ") and err.endswith(f", got {value!r}\n")
    assert err.count("\n") == 1 and not any(out.iterdir())


def test_cli_empty_family_lists_run_and_a_repeated_k_is_kept(tmp_path, capsys):
    # 'families' and 'N' absent or [] mean no family rows; either one given alone is refused
    chain = write_chain(tmp_path / "tri.json")
    for extra, rc in (({"families": [], "N": []}, 0), ({}, 0), ({"families": ["cycle"]}, 3), ({"N": [4]}, 3)):
        cfg = write_cfg(tmp_path / "s.json", {"chains": [chain], "epsilons": [0.1], "shots": 100, "seed": 2, **extra})
        assert cli.main(["search", "--config", cfg, "--out", str(tmp_path / "s")]) == rc
    assert "config field 'N' must be a nonempty list of " in capsys.readouterr().err
    config = json.loads((tmp_path / "s" / "search.json").read_text())["config"]
    assert (config["families"], config["N"], config["chains"]) == ([], [], [chain])
    # a repeated k weights its draw
    cfg = write_cfg(tmp_path / "b.json", {"instances": 5, "k_values": [2, 2, 3], "seed": 3})
    assert cli.main(["bounds", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    assert json.loads((tmp_path / "b" / "bounds.json").read_text())["config"]["k_values"] == [2, 2, 3]


def oracle_cell(value) -> str:
    """CSV text of one cell, written out plainly."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return value if isinstance(value, str) else records.format_float(value)


def two_pass_bundle(kind: str, seed: int, config, rows, summary) -> tuple[str, str]:
    """The oracle of the one-pass writer: the JSON text of the whole record by
    canonical_json, checked against the plain emitter, then the CSV text on
    its own, one cell at a time."""
    columns, comment = cli.BUNDLES[kind]
    record = records.ExperimentRecord(kind=kind, config=config, seed=seed, rows={}, summary=summary)
    document = {"kind": kind, "version": record.version, "rng": record.rng, "seed": seed, "config": config}
    document.update(rows=list(rows), summary=summary)
    json_text = records.canonical_json(document)
    assert json_text == oracle_json(document) + "\n"
    lines = ["# " + comment, ",".join(columns)]
    lines += [",".join(oracle_cell(row[col]) for col in columns) for row in rows]
    return json_text, "\n".join(lines) + "\n"


MIXED_TABLE = {
    # the object columns keep their cells as they are: numpy scalars, None, ints and floats mixed
    "instance": np.array([np.int64(0), 1, 2], dtype=object),
    "dim": np.array([3, np.int32(4), 2], dtype=object),
    "T": np.array([0.5, 2.0, 1e300]),
    "k": np.array([1, np.int64(3), 4], dtype=object),
    "kind": np.array(["mixing", "residual", "subset"]),
    "bound_value": np.array([None, np.float64(1e-12), -3.0], dtype=object),
    "actual_value": np.array([np.float32(0.25), None, 1.0], dtype=object),
    "slack": np.array([0.125, -0.0, 4.0]),
    "holds": np.array([np.bool_(True), False, True], dtype=object),
    "note": np.array(['a,b "quoted"', "", None], dtype=object),  # no CSV column: JSON only
}


def test_write_bundle_renders_both_files_before_writing_either(tmp_path):
    # the JSON text of this row renders, its CSV cell does not
    table = {**{col: np.array([3]) for col in cli.SEARCH_COLUMNS}, "family": np.array(["a,b"])}
    with pytest.raises(ValidationError):
        cli._write_bundle(tmp_path, "search", 1, {}, table, {}, None, "ok")
    assert not any(tmp_path.iterdir())


def test_write_bundle_writes_nothing_when_a_later_row_has_no_text(tmp_path):
    # a NaN slack, or a container cell, in the second row
    last_twice = {key: column[[2, 2]] for key, column in MIXED_TABLE.items()}
    for key, column in (("slack", np.array([4.0, float("nan")])), ("note", np.array([None, {"y": [None, 1.5]}]))):
        with pytest.raises(ValidationError):
            cli._write_bundle(tmp_path, "bounds", 1, {}, {**last_twice, key: column}, {}, None, "ok")
        assert not any(tmp_path.iterdir())


def test_write_bundle_equals_the_two_pass_oracle(tmp_path, capsys):
    bundles = [("bounds", 3, {"mixed": True}, MIXED_TABLE, {"rows": [1, None]})]
    runs = {
        "bounds": {"instances": 50},
        "gluedtrees": {"n": [8, 16], "mc_runs": 5},
        "search": {"families": ["complete", "cycle"], "N": [6], "epsilons": [0.2, 0.1], "shots": 500},
    }
    for kind, cfg in runs.items():
        config, table, summary, failure, _ = getattr(cli, f"_cmd_{kind}")(cfg, 7, 1)
        assert failure is None
        bundles.append((kind, 7, config, table, summary))
    for kind, seed, config, table, summary in bundles:
        assert cli._write_bundle(tmp_path, kind, seed, config, table, summary, None, "ok") == 0
        json_text, csv_text = two_pass_bundle(kind, seed, config, rows_of(table), summary)
        assert (tmp_path / f"{kind}.json").read_text(encoding="utf-8") == json_text
        assert (tmp_path / f"{kind}.csv").read_text(encoding="utf-8") == csv_text


def test_write_bundle_never_holds_a_joined_text(tmp_path, capsys):
    # the bounds rows stay a table of columns, about 0.75 KB per instance
    # (1.1 KB on a cold start), not a dict per row (3.5-3.9 KB per instance)
    tracemalloc.start()
    try:
        result = cli._cmd_bounds({"instances": 2000}, 7, 1)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained <= 1500 * 2000
    # both files' pieces are held until both are rendered, but never the
    # joined JSON text besides them: that alone would add its 5.3 MB
    tracemalloc.start()
    try:
        cli._write_bundle(tmp_path, "bounds", 7, *result)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    written = sum(path.stat().st_size for path in tmp_path.iterdir())
    assert written > 7e6
    assert peak <= 1.6 * written


def test_bounds_bundle_bytes_are_pinned(tmp_path, capsys):
    # a 40-instance seed-7 bundle: a last-bit move anywhere in the bounds
    # pipeline changes these digests and has to be declared
    cfg = write_cfg(tmp_path / "b.json", {"instances": 40, "seed": 7})
    assert cli.main(["bounds", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in (tmp_path / "out").iterdir()}
    assert digests == {
        "bounds.csv": "6c64eee9aeb8327697b803b84950cfdb3d41246687a838b288c0fc15f703da6b",
        "bounds.json": "d2e477c2b5cd125c6944bd0a218592b5c07e02867e2baf0ddae2eab6a6f3c854",
    }


def test_bounds_fault_bundle_bytes_are_pinned(tmp_path, capsys):
    # the same bundle with inject_fault, digests taken before the summary and
    # the fault shift became array masks
    cfg = write_cfg(tmp_path / "b.json", {"instances": 40, "seed": 7, "inject_fault": True})
    assert cli.main(["bounds", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in (tmp_path / "out").iterdir()}
    assert digests == {
        "bounds.csv": "6e928d0609a2ce8932714f1e4b17d4f09f78cec49dabe9b65a081cd791da4cb5",
        "bounds.json": "0380fb672d3be4188763fb93c08dedc93def77cf3dae9ae325f731088403154f",
    }


def test_gluedtrees_bundle_bytes_are_pinned(tmp_path, capsys):
    # three sizes at seed 7, Monte Carlo columns included: a last-bit move
    # anywhere in the glued-trees pipeline changes these digests
    cfg = write_cfg(tmp_path / "g.json", {"n": [8, 16, 32], "mc_runs": 20, "seed": 7})
    assert cli.main(["gluedtrees", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in (tmp_path / "out").iterdir()}
    assert digests == {
        "gluedtrees.csv": "c24b46bff261b286141e9c8416644b3bee65b22425ca080f23375771961da0fb",
        "gluedtrees.json": "7abccbaabd119ad825d55b6050e87d5c7c13bef3e69be9be5b956e55bd53371c",
    }


def test_search_bundle_bytes_are_pinned(tmp_path, capsys):
    # complete and cycle at N = 8, two epsilons, seed 7, with the chain at s*
    # built from pi_m / (1 - pi_m) itself (markov.half_weight)
    config = {"families": ["complete", "cycle"], "N": [8], "epsilons": [0.1, 0.05], "shots": 2000, "seed": 7}
    cfg = write_cfg(tmp_path / "s.json", config)
    assert cli.main(["search", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in (tmp_path / "out").iterdir()}
    assert digests == {
        "search.csv": "a6066c680858c58f7e7d540250cb4c26e3c5518f276c1c6ace18f374a071d22f",
        "search.json": "eba834bd87e8c778baf2c77b0765941707b1284627f793421f540086c26bf5f8",
    }


def test_bounds_summary_equals_the_row_loop():
    # the summary's masks against a loop over the rows, which keeps the first
    # of equal slacks: compared as record text, so -0.0 and 0.0 differ
    for inject_fault in (False, True):
        _, table, summary, failure, _ = cli._cmd_bounds({"instances": 60, "inject_fault": inject_fault}, 3, 1)
        min_slack, comparison_ok, failed = dict.fromkeys(("mixing", "eigenspace", "subset", "residual")), True, 0
        for row in rows_of(table):
            kind, slack = row["kind"], row["slack"]
            if kind == "comparison":
                comparison_ok = comparison_ok and row["holds"]
            elif min_slack[kind] is None or slack < min_slack[kind]:
                min_slack[kind] = slack
            failed += not row["holds"]
        expected = {"min_slack": min_slack, "comparison_all_ok": comparison_ok, "all_hold": not failed}
        assert records.canonical_json({key: summary[key] for key in expected}) == records.canonical_json(expected)
        assert summary["row_count"] == len(table["slack"]) and (failure is None) == (not failed) == (not inject_fault)


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


def bounds_bundle(tmp_path, name, instances, jobs="1") -> bytes:
    cfg = write_cfg(tmp_path / "b.json", {"instances": instances, "seed": 12})
    assert cli.main(["bounds", "--config", cfg, "--out", str(tmp_path / name), "--jobs", jobs]) == 0
    return b"".join((tmp_path / name / f"bounds.{suffix}").read_bytes() for suffix in ("json", "csv"))


def test_cli_bounds_block_size_does_not_change_the_bundle(tmp_path, monkeypatch):
    # stacks of one instance, of up to 200 entries, of the default cap, and one
    # stack per dimension (20 instances of dim <= 10 hold at most 20 * 10^2 entries)
    bundles = []
    for cap in (1, 200, cli.BOUNDS_STACK_ENTRIES, 20 * 10 * 10):
        monkeypatch.setattr(cli, "BOUNDS_STACK_ENTRIES", cap)
        bundles.append(bounds_bundle(tmp_path, f"cap{cap}", 20))
    assert bundles[0] == bundles[1] == bundles[2] == bundles[3]


def test_cli_bounds_blocks_spread_over_jobs_identically(tmp_path):
    # 7 instances in one share per worker: 7, then 3 + 4, then 2 + 2 + 3
    bundles = [bounds_bundle(tmp_path, f"jobs{jobs}", 7, jobs) for jobs in ("1", "2", "3")]
    assert bundles[0] == bundles[1] == bundles[2]


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


@pytest.mark.parametrize("jobs, workers", [("64", [3]), ("1", [])])
def test_cli_jobs_capped_at_task_count(tmp_path, monkeypatch, jobs, workers):
    monkeypatch.setattr(SerialPool, "max_workers", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    cfg = write_cfg(tmp_path / "b.json", {"instances": 3, "seed": 12})
    assert cli.main(["bounds", "--config", cfg, "--out", str(tmp_path), "--jobs", jobs]) == 0
    assert SerialPool.max_workers == workers
    assert json.loads((tmp_path / "bounds.json").read_text())["summary"]["instances"] == 3


@pytest.mark.parametrize("cap", [20, 100, cli.BOUNDS_STACK_ENTRIES])
def test_cli_bounds_stacks_stay_within_the_entry_cap(tmp_path, monkeypatch, cap):
    # 300 instances of dim <= 6 in 7 uneven shares, run in-process: each stack
    # holds at most cap matrix entries, or one instance when d^2 passes the cap;
    # a dimension has one stack pending at a time, certified as soon as it is
    # full; and every instance is certified exactly once
    monkeypatch.setattr(SerialPool, "max_workers", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(cli, "BOUNDS_STACK_ENTRIES", cap)
    shares, stacks, shapes = [], [], []
    block, stack, walks = cli._bounds_block, cli._bounds_stack, walk.spectral_walks
    monkeypatch.setattr(cli, "_bounds_block", lambda task: shares.append(task[:2]) or block(task))
    monkeypatch.setattr(cli, "_bounds_stack", lambda dim, streams, *rest: stacks.append((dim, [i for i, _ in streams])) or stack(dim, streams, *rest))
    monkeypatch.setattr(walk, "spectral_walks", lambda h, *rest: shapes.append(h.entries.shape) or walks(h, *rest))
    cfg = write_cfg(tmp_path / "b.json", {"instances": 300, "dim_max": 6, "seed": 12})
    assert cli.main(["bounds", "--config", cfg, "--out", str(tmp_path), "--jobs", "7"]) == 0
    assert SerialPool.max_workers == [7] and {hi - lo for lo, hi in shares} == {42, 43}
    assert [lo for lo, _ in shares] == [0] + [hi for _, hi in shares[:-1]] and shares[-1][1] == 300
    assert shapes == [(len(idx), dim, dim) for dim, idx in stacks]
    assert all(b * d * d <= cap or b == 1 for b, d, _ in shapes)
    assert sorted(i for _, idx in stacks for i in idx) == list(range(300))
    for lo, hi in shares:
        for d in range(2, 7):
            runs = [idx for dim, idx in stacks if dim == d and lo <= idx[0] < hi]
            # in instance order, one after the other, each full but the last
            assert all(run == sorted(run) for run in runs)
            assert all(run[-1] < later[0] for run, later in zip(runs, runs[1:]))
            assert all(len(run) == max(1, cap // (d * d)) for run in runs[:-1])


@pytest.mark.parametrize("jobs", ["0", "-5"])
def test_cli_jobs_below_one_exits_3(tmp_path, capsys, jobs):
    # a worker count below 1 is bad input, not a quiet sequential run
    cfg = write_cfg(tmp_path / "b.json", {"instances": 3, "seed": 12})
    assert cli.main(["bounds", "--config", cfg, "--out", str(tmp_path), "--jobs", jobs]) == 3
    assert f"--jobs must be >= 1, got {jobs}" in capsys.readouterr().err
    assert not (tmp_path / "bounds.json").exists()


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


def test_cli_bounds_extreme_t_range_exits_3(tmp_path, capsys):
    # a tiny T takes (2/(T delta_e_s))^k past the float range
    cfg = write_cfg(tmp_path / "b.json", {"instances": 20, "seed": 7, "t_range": [1e-300, 1e300]})
    assert cli.main(["bounds", "--config", cfg, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "overflows at T = " in err and ", k = " in err and ", delta_e_s = " in err
    assert not (tmp_path / "bounds.json").exists()


@pytest.mark.parametrize("dim_max", [cli.BOUNDS_DIM_MAX + 1, 100000])
def test_cli_bounds_dim_max_above_the_cap_exits_3(tmp_path, capsys, dim_max):
    # a block of same-dimension instances holds O(128 dim^2) numbers: past the cap, bad input
    cfg = write_cfg(tmp_path / "b.json", {"instances": 3, "seed": 1, "dim_max": dim_max})
    assert cli.main(["bounds", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert f"config field 'dim_max' must be an integer in [2, {cli.BOUNDS_DIM_MAX}], got {dim_max}" in capsys.readouterr().err
    assert not (tmp_path / "bounds.json").exists()


def test_cli_bounds_dim_max_at_the_cap_runs(tmp_path):
    cfg = write_cfg(tmp_path / "b.json", {"instances": 2, "seed": 1, "dim_max": cli.BOUNDS_DIM_MAX})
    assert cli.main(["bounds", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "bounds.json").read_text())["config"]["dim_max"] == cli.BOUNDS_DIM_MAX


@pytest.mark.parametrize("message", ["Unable to allocate 7.45 GiB for an array with shape (1000000000,) and data type int64", ""])
def test_cli_memory_error_exits_3(tmp_path, monkeypatch, capsys, message):
    # stands in for an allocation the machine cannot hold; nothing is allocated for real
    def too_big(cfg, seed, jobs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "_cmd_gluedtrees", too_big)
    cfg = write_cfg(tmp_path / "g.json", {"n": [8], "mc_runs": 1000000000, "seed": 1})
    assert cli.main(["gluedtrees", "--config", cfg, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err == f"error: out of memory{': ' if message else ''}{message}\n"
    assert not (tmp_path / "gluedtrees.json").exists()


@pytest.mark.parametrize(
    "command, payload, rc, message",
    [
        ("search", {"chains": [], "epsilons": [0.1], "shots": 2**64 + 1}, 3, f"config field 'shots' must be an integer in [1, {cli.ITEMS_MAX}], got {2**64 + 1}"),
        ("search", {"families": ["complete"], "N": [2**63], "epsilons": [0.1]}, 3, f"config field 'N' must be a nonempty list of integers >= 2 above 'marked' whose N x N arrays numpy can index, got [{2**63}]"),
        ("gluedtrees", {"n": [2**63]}, 3, f"config field 'n' must be a nonempty list of even integers >= 8 whose n x n arrays numpy can index, got [{2**63}]"),
        ("gluedtrees", {"n": [8], "mc_runs": 2**64 + 1}, 3, f"config field 'mc_runs' must be an integer in [1, {cli.ITEMS_MAX}], got {2**64 + 1}"),
        ("bounds", {"instances": 2**64 + 1}, 3, f"config field 'instances' must be an integer in [1, {cli.ITEMS_MAX}], got {2**64 + 1}"),
        ("search", {"families": ["complete"], "N": [5], "epsilons": [0.1], "shots": 1000, "time_factor": 1e300}, 0, None),
        ("search", {"chains": [2**63], "epsilons": [0.1]}, 3, "chain payload needs n >= 1 whose n x n arrays"),
        ("bounds", {"instances": cli.ITEMS_MAX + 1}, 3, f"config field 'instances' must be an integer in [1, {cli.ITEMS_MAX}], got {cli.ITEMS_MAX + 1}"),
        # a count numpy can index but no memory holds: 4 EiB, so nothing is allocated for real
        ("search", {"chains": [], "epsilons": [0.1], "shots": cli.ITEMS_MAX}, 3, "out of memory: Unable to allocate"),
        ("gluedtrees", {"n": [8], "mc_runs": cli.ITEMS_MAX}, 3, "out of memory: Unable to allocate"),
        ("bounds", {"instances": cli.ITEMS_MAX}, 3, "out of memory: Unable to allocate"),
    ],
    ids=[
        "shots-2^64+1",
        "search-N-2^63",
        "gluedtrees-n-2^63",
        "mc_runs-2^64+1",
        "instances-2^64+1",
        "time-factor-1e300",
        "chain-file-n-2^63",
        "instances-past-the-bound",
        "shots-at-the-bound",
        "mc_runs-at-the-bound",
        "instances-at-the-bound",
    ],
)
def test_cli_count_numpy_cannot_index_exits_3(tmp_path, capsys, command, payload, rc, message):
    # each of these once escaped cli.main as a traceback (exit 1): a count or a
    # size whose arrays no numpy array can index, or a shot margin whose square overflowed
    if "chains" in payload:
        # the chain file's n: 3, or the one the test names
        n = payload["chains"][0] if payload["chains"] else 3
        chain = {"n": n, "format": "weighted-graph", "data": [[0, 1, 1.0], [1, 2, 1.0], [0, 2, 1.0], [0, 0, 1.0]], "marked": 1}
        payload = {**payload, "chains": [write_cfg(tmp_path / "chain.json", chain)]}
    cfg, out = write_cfg(tmp_path / "c.json", {**payload, "seed": 1}), tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == rc
    err = capsys.readouterr().err
    if message is None:
        assert err == ""
    else:
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not any(out.iterdir())


@pytest.mark.parametrize("command, key", [("gluedtrees", "n"), ("search", "N")])
def test_cli_sizes_past_numpy_indexing_are_refused(tmp_path, monkeypatch, capsys, command, key):
    # the largest size whose square numpy can index reaches the tasks, the next is refused;
    # the tasks only raise, so nothing is allocated
    def no_memory(worker, tasks, jobs):
        raise MemoryError("stand-in")

    monkeypatch.setattr(cli, "_run_tasks", no_memory)
    side, step = (math.isqrt(cli.ITEMS_MAX) & ~1, 2) if command == "gluedtrees" else (math.isqrt(cli.ITEMS_MAX), 1)
    extra = {"families": ["cycle"], "epsilons": [0.1]} if command == "search" else {}
    for size, message in ((side, "out of memory: stand-in"), (side + step, f"whose {key} x {key} arrays numpy can index, got [{side + step}]")):
        cfg = write_cfg(tmp_path / "c.json", {key: [size], "seed": 1, **extra})
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        assert message in capsys.readouterr().err


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
    # scipy serves only the quadrature oracle; importing it would dominate start-up.
    # Nor does the CLI load a process pool (about 1.8 MB of peak RSS) before --jobs asks for one
    code = (
        "import sys\n"
        "unwanted = ('scipy', 'multiprocessing', 'concurrent.futures.process')\n"
        "loaded = lambda: sorted(m for m in sys.modules if m in unwanted or m.startswith(tuple(u + '.' for u in unwanted)))\n"
        "import ctqw\n"
        "print(loaded())\n"
        "import ctqw.cli\n"
        "print(loaded())\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]"]


def test_bounds_run_loads_no_numpy_ma(tmp_path):
    # numpy.ma (pulled in by np.unique, for one) would cost a run about 1 MB of peak RSS;
    # the bounds, glued-trees and search runs each load neither it nor scipy
    runs = {
        "bounds": {"instances": 20, "seed": 7},
        "gluedtrees": {"n": [8, 16], "mc_runs": 20, "seed": 7},
        "search": {"families": ["complete", "cycle"], "N": [8], "epsilons": [0.1], "shots": 200, "seed": 7},
    }
    code = "import sys\nfrom ctqw import cli\n"
    for command, payload in runs.items():
        cfg = write_cfg(tmp_path / f"{command}.json", payload)
        code += (
            f"assert cli.main([{command!r}, '--config', {cfg!r}, '--out', {str(tmp_path)!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m in ('numpy.ma', 'scipy') or m.startswith(('numpy.ma.', 'scipy.'))))\n"
        )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert [line for line in proc.stdout.splitlines() if line.startswith("[")] == ["[]", "[]", "[]"]


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
    stacks, gap_stacks, per_partition = [], [], []
    decompose, stars, group = spectral.decompose, spectral._gap_stars, spectral.group_eigenspaces
    monkeypatch.setattr(spectral, "decompose", lambda h: stacks.append(len(h.entries)) or decompose(h))
    monkeypatch.setattr(spectral, "_gap_stars", lambda e, n_groups: gap_stacks.append(len(n_groups)) or stars(e, n_groups))
    monkeypatch.setattr(spectral, "group_eigenspaces", lambda *args: per_partition.append(args) or group(*args))
    rows = rows_of(cli._bounds_block((0, 20, 7, 10, 0.1, 1000.0, (1, 2, 3, 4))))
    assert all(row["holds"] for row in rows)
    # one stacked decomposition per dimension: every instance decomposed once
    assert sum(stacks) == 20
    # the gap kernel runs once per decomposed stack and covers each of its
    # instances once; no instance has its gaps worked out again on its own
    assert gap_stacks == stacks
    assert per_partition == []


def test_bounds_error_names_the_instance_and_its_dimension(tmp_path, capsys):
    # k = 10^6 overflows the subset error term of many instances; the message
    # names the one that failed first by its id, as a run of it alone does
    cfg = write_cfg(tmp_path / "b.json", {"instances": 50, "seed": 1, "k_values": [1000000]})
    assert cli.main(["bounds", "--config", cfg, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: instance ") and "stack index" not in err
    idx = int(err.split()[2])
    with pytest.raises(ValidationError) as alone:
        cli._bounds_block((idx, idx + 1, 1, 10, 0.1, 1000.0, (1000000,)))
    assert err == f"error: {alone.value}\n"
    assert str(alone.value).startswith(f"instance {idx} (dim ")
    assert "): error term sqrt(3)*(2/(T*delta_e_s))^k overflows at T = " in err
    assert not (tmp_path / "bounds.json").exists()


def test_bounds_run_makes_no_eigvalsh_call_and_one_seed_sequence_per_task(monkeypatch):
    # 2000 instances at seed 7: every density operator is certified by its
    # shifted factorization, and the task's 2000 streams are keyed in one pass
    eigvalsh, seed_sequences = [], []
    original, base = np.linalg.eigvalsh, np.random.SeedSequence

    class CountedSeedSequence(base):
        def __init__(self, *args, **kwargs):
            seed_sequences.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: eigvalsh.append(a.shape) or original(a))
    monkeypatch.setattr(np.random, "SeedSequence", CountedSeedSequence)
    _, table, summary, failure, _ = cli._cmd_bounds({"instances": 2000}, 7, 1)
    assert failure is None and summary["all_hold"]
    assert np.unique(table["instance"]).tolist() == list(range(2000))
    assert eigvalsh == []
    assert len(seed_sequences) <= 1


def test_stacked_exp_of_log_times_equals_the_scalar_exp_bitwise():
    # _bounds_stack takes T from one exp over the stack's log-times, where each
    # instance once took float(np.exp(x)) of its own draw
    logs = rng.rng_stream(5, 0).uniform(np.log(1e-3), np.log(1e6), size=100_000)
    stacked = np.exp(logs)
    assert stacked.view(np.int64).tolist() == np.array([float(np.exp(x)) for x in logs.tolist()]).view(np.int64).tolist()


def test_gluedtrees_row_solves_the_momenta_once(monkeypatch):
    decomposed = count_calls(monkeypatch, spectral, ["decompose"])
    solved = count_calls(monkeypatch, gluedtrees, ["solve_momenta"])
    row = rows_of(cli._gluedtrees_row((16, 5, 20)))[0]
    # one closed-form column walk, shared by certification and the Monte
    # Carlo: the momenta are solved once and nothing is decomposed
    assert decomposed["decompose"] == 0
    assert solved["solve_momenta"] == 1
    assert row["holds"]
    assert min(row[f"slack_l{i}"] for i in (1, 2, 3)) > 0


def test_gluedtrees_row_holds_requires_certified_slack(monkeypatch):
    certified = gluedtrees.certified_hitting_times
    monkeypatch.setattr(
        gluedtrees, "certified_hitting_times", lambda w: {**certified(w), "slack_l2": -1e-3}
    )
    assert not rows_of(cli._gluedtrees_row((16, 5, 20)))[0]["holds"]


def test_sweep_rows_screen_their_exact_averages_and_batch_their_rounds(monkeypatch):
    # the gluedtrees-sweep rows: 78 exact averages per row and 1218 sampler
    # calls over the four rows when every grid point and round had its own
    averages, batches = [], []
    factors, hits = walk._phase_factors, walk.SpectralWalk.hits
    monkeypatch.setattr(walk, "_phase_factors", lambda *args: averages.append(args[0]) or factors(*args))
    monkeypatch.setattr(walk.SpectralWalk, "hits", lambda self, ts, u: batches.append(ts.shape[0]) or hits(self, ts, u))
    for idx, two_n in enumerate((32, 64, 96, 128)):
        averages.clear()
        cli._gluedtrees_row((two_n, rng.task_seed(7, idx), 200))
        # p_shot, the three certificates and the screened tau_exact grid
        assert len(averages) <= 8, two_n
    assert len(batches) <= 600
    # no batch of rounds outgrows the first round
    assert max(batches) <= 200


@pytest.mark.xfail(
    strict=True,
    reason="tau_exact's grid starts at t_lo = 2/delta_S, and its ratio k T / p(T) still falls there: "
    "argmin_T is t_lo at every size from 2n = 8 to 1024 (ROADMAP, direction 6)",
)
@pytest.mark.parametrize("two_n", [16, 128])
def test_tau_exact_minimum_lies_inside_its_grid(two_n):
    row = rows_of(cli._gluedtrees_row((two_n, 1, 1)))[0]
    t_lo = 2.0 / row["delta_e_s"]
    grid = walk.geometric_grid(t_lo, 64.0 * t_lo)
    assert grid[0] < row["tau_exact_argmin_T"] < grid[-1]
