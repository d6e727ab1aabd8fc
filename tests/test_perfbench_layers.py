"""The traced benchmark against the package: every function perfbench/layers.py
wraps must still exist, and traced bounds and gluedtrees runs must finish
cleanly.

The traced run goes through perfbench/child.py in a subprocess, because
Tracer.install replaces functions in every loaded ctqw module.
"""
import importlib
import importlib.util
import json
import subprocess
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", PERFBENCH / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    layers = load_layers()
    for layer, (modname, names) in layers.LAYERS.items():
        module = importlib.import_module(f"ctqw.{modname}")
        if names == layers.ALL:
            names = [n for n in module.__all__ if isinstance(getattr(module, n), types.FunctionType)]
            assert names, layer
        for name in names:
            owner = module
            for part in name.split("."):
                assert hasattr(owner, part), f"{layer}: ctqw.{modname}.{name} is gone"
                owner = getattr(owner, part)
            assert callable(owner), f"{layer}: ctqw.{modname}.{name} is not callable"


def traced_run(tmp_path, command: str, config: dict) -> dict:
    cfg = tmp_path / f"{command}.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    result = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), str(ROOT), command, str(cfg), str(tmp_path / "out"), str(result), "trace"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(result.read_text(encoding="utf-8"))
    assert report["exit"] == 0
    return report


def test_traced_bounds_run_exits_zero(tmp_path):
    report = traced_run(tmp_path, "bounds", {"instances": 20, "seed": 7})
    assert report["trace"]["bounds.calls"] > 0


def test_traced_gluedtrees_run_exits_zero(tmp_path):
    # the gluedtrees.mc counters read the traversal_success_stats dict
    report = traced_run(tmp_path, "gluedtrees", {"n": [8, 12], "mc_runs": 20, "seed": 7})
    assert report["trace"]["gluedtrees.mc.calls"] == 2
