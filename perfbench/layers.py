"""Per-layer tracing of one ctqw CLI run, installed from outside the package.

A layer is a set of public ctqw functions. `Tracer.install` replaces each
of them, wherever a ctqw module holds it, by a wrapper that records a span:
wall time, a call count, the layer's work counters and, for RSS_LAYERS,
the growth of the process's peak RSS. A layer's self time is its span time minus the time
of the spans it caused; the root span is `cli.main` itself, so the self
times of all layers plus `cli` add up to the traced wall time.

Functions that are not listed stay unwrapped: their time counts towards
whichever traced span called them. The package itself is not changed.
"""
from __future__ import annotations

import functools
import os
import resource
import sys
import time
import types
from collections import Counter, defaultdict

#: every public function listed in the module's __all__
ALL = "*"

#: layer -> (ctqw module, traced functions); "Class.method" names a method
LAYERS = {
    "gluedtrees.mc": ("gluedtrees", ["traversal_success_stats"]),
    "gluedtrees.momenta": ("gluedtrees", ["solve_momenta"]),
    "gluedtrees.certify": ("gluedtrees", ["certified_hitting_times", "subspace_S"]),
    "spectral.decompose": ("spectral", ["decompose"]),
    "search.operators": (
        "search",
        [
            "search_operators",
            "block_reflection",
            "swap_operator",
            "start_state",
            "marked_subspace_basis",
            "spectrum_report",
            "overlap_preconditions",
        ],
    ),
    "search.mc": ("search", ["run_search"]),
    "walk.exact": (
        "walk",
        [
            "avg_probability_exact",
            "avg_projector_probability_exact",
            "hitting_time_estimate",
            "limiting_probability",
            "time_averaged_density",
        ],
    ),
    "bounds": ("bounds", ALL),
    "markov": ("markov", ALL),
    "records": ("records", ["write_csv", "ExperimentRecord.write"]),
}
ROOT_LAYER = "cli"

COMPLEX_BYTES = 16


def _mc_samples(args, kwargs, stats):
    two_n = kwargs["two_n"] if "two_n" in kwargs else args[0]
    samples = stats["runs"] * stats["max_repetitions"]
    return {"samples": samples, "bytes": samples * two_n * COMPLEX_BYTES}


def _search_shots(args, kwargs, rec):
    # the MC loop holds shots x dim phases, dim = n^2 edge-space states
    return {"shots": rec.mc_shots, "bytes": rec.mc_shots * rec.n * rec.n * COMPLEX_BYTES}


#: "module.function" -> counters(args, kwargs, result); deterministic work counts
COUNTERS = {
    "gluedtrees.traversal_success_stats": _mc_samples,
    "spectral.decompose": lambda a, kw, dec: {"dim3": int(dec.eigenvalues.shape[0]) ** 3},
    "search.search_operators": lambda a, kw, ops: {"dim": int(ops.dim)},
    "search.run_search": _search_shots,
    "records.write_csv": lambda a, kw, _: {"bytes": os.path.getsize(kw.get("path", a[0]))},
    "records.ExperimentRecord.write": lambda a, kw, _: {"bytes": os.path.getsize(kw.get("path", a[1]))},
}

#: counters each layer reports besides self_s and calls
LAYER_COUNTERS = {
    "gluedtrees.mc": ["samples", "bytes"],
    "spectral.decompose": ["dim3"],
    "search.operators": ["dim"],
    "search.mc": ["shots", "bytes"],
    "records": ["bytes"],
}
#: layers whose growth of the peak RSS is reported
RSS_LAYERS = ["gluedtrees.mc", "spectral.decompose", "search.operators"]


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Span recorder; spans nest through an explicit stack."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.rss_growth_mb = defaultdict(float)
        self.calls = Counter()
        self.counters = Counter()
        self._stack = []  # [layer, start_s, start_rss_mb or None, child_s, child_rss_mb]

    def _enter(self, layer: str) -> None:
        # getrusage costs about as much as the rest of a span, so only
        # the layers whose RSS growth is reported call it
        rss0 = _maxrss_mb() if layer in RSS_LAYERS else None
        self._stack.append([layer, time.perf_counter(), rss0, 0.0, 0.0])

    def _exit(self) -> None:
        layer, start, rss0, child_s, child_rss = self._stack.pop()
        duration = time.perf_counter() - start
        self.self_s[layer] += duration - child_s
        if rss0 is None:
            growth = child_rss  # hands on what its measured children grew
        else:
            growth = _maxrss_mb() - rss0
            self.rss_growth_mb[layer] += growth - child_rss
        if self._stack:
            self._stack[-1][3] += duration
            self._stack[-1][4] += growth

    def _wrap(self, layer: str, key: str, fn):
        counter = COUNTERS.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[layer] += 1
            self._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if counter is not None:
                for name, value in counter(args, kwargs, result).items():
                    self.counters[f"{layer}.{name}"] += value
            return result

        return traced

    def install(self) -> None:
        """Replace every traced function in every loaded ctqw module."""
        replacements = {}
        for layer, (modname, names) in LAYERS.items():
            module = sys.modules[f"ctqw.{modname}"]
            if names == ALL:
                names = [n for n in module.__all__ if isinstance(getattr(module, n), types.FunctionType)]
            for name in names:
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                fn = getattr(owner, attr)
                wrapped = self._wrap(layer, f"{modname}.{name}", fn)
                replacements[id(fn)] = wrapped
                if owner_name:
                    setattr(owner, attr, wrapped)
        ctqw_modules = [m for n, m in list(sys.modules.items()) if n == "ctqw" or n.startswith("ctqw.")]
        for module in ctqw_modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replacements:
                    setattr(module, attr, replacements[id(value)])

    def root(self, fn, *args):
        """Run fn(*args) as the root span."""
        self._enter(ROOT_LAYER)
        try:
            return fn(*args)
        finally:
            self._exit()

    def report(self) -> dict:
        out = {}
        for layer in [*LAYERS, ROOT_LAYER]:
            out[f"{layer}.self_s"] = self.self_s[layer]
            if layer != ROOT_LAYER:
                out[f"{layer}.calls"] = self.calls[layer]
        for layer, names in LAYER_COUNTERS.items():
            for name in names:
                out[f"{layer}.{name}"] = self.counters[f"{layer}.{name}"]
        for layer in RSS_LAYERS:
            out[f"{layer}.rss_growth_mb"] = self.rss_growth_mb[layer]
        return out
