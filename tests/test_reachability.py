"""Every public name in src/ctqw is reached: from the `ctqw` entry point,
from a function perfbench/layers.py names, or from a test oracle listed in
ORACLES. Reachability follows the top-level names that each definition
mentions, within its module and through `from . import` / `from .x import`.
"""
import ast
from pathlib import Path

from test_perfbench_layers import load_layers

SRC = Path(__file__).resolve().parents[1] / "src" / "ctqw"

#: the console script of pyproject.toml
ENTRY = ("cli", "main")

#: public names that only tests call, each beside the test or criterion that needs it
ORACLES = (
    ("walk.characteristic", "test_walk: test_characteristic_*"),
    ("walk.avg_probability_quadrature", "criterion 02"),
    ("bounds.dephased_reference", "test_bounds: test_dephased_reference_*, test_reference_and_residual_need_the_decomposition"),
    ("bounds.residual_bound", "test_bounds: the residual tests, on a walk with its decomposition; the CLI certifies residuals a stack at a time"),
    ("bounds.bound_comparison", "test_bounds: the comparison tests; the CLI compares a stack at a time"),
    ("gluedtrees.column_spectrum_check", "criterion 03"),
    ("gluedtrees.generate_instance", "criterion 06"),
    ("gluedtrees.full_vs_column_equivalence", "criterion 06"),
    ("gluedtrees.run_traversal", "test_gluedtrees: the full-graph traversal tests"),
    ("markov.sample_hitting_time", "criterion 09"),
    ("records.canonical_json", "test_records_cli: the JSON half of the one-pass bundle writer's oracle"),
    ("records.render_csv", "test_records_cli: test_render_csv_*; the CLI writes its CSV pieces directly"),
)


class Module:
    """Top-level definitions, public names and relative imports of one file."""

    def __init__(self, path: Path):
        self.defs, self.imported, self.modules, self.public = {}, {}, set(), []
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                self.defs[node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    if isinstance(target, ast.Name):
                        self.defs[target.id] = node.value
                        if target.id == "__all__":
                            self.public = ast.literal_eval(node.value)
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        self.modules.add(alias.asname or alias.name)
                    else:
                        self.imported[alias.asname or alias.name] = (node.module, alias.name)

    def mentions(self, name: str):
        """(module, name) of every top-level name the definition of name uses."""
        node = self.defs.get(name)
        for sub in ast.walk(node) if node is not None else ():
            if isinstance(sub, ast.Name) and sub.id in self.imported:
                yield self.imported[sub.id]
            elif isinstance(sub, ast.Name) and sub.id in self.defs and sub.id != name:
                yield None, sub.id
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) and sub.value.id in self.modules:
                yield sub.value.id, sub.attr


MODULES = {path.stem: Module(path) for path in SRC.glob("*.py") if path.stem != "__init__"}


def reached(roots) -> set:
    seen, stack = set(), list(roots)
    while stack:
        item = stack.pop()
        if item not in seen:
            seen.add(item)
            mod, name = item
            stack.extend((other or mod, used) for other, used in MODULES[mod].mentions(name))
    return seen


def benchmark_roots() -> list:
    """Names perfbench/layers.py lists one by one; an ALL layer names none."""
    layers = load_layers()
    return [
        (mod, name.split(".")[0])
        for mod, names in layers.LAYERS.values()
        if names != layers.ALL
        for name in names
    ]


def test_every_public_name_is_reached():
    seen = reached([ENTRY, *benchmark_roots(), *(tuple(name.split(".")) for name, _ in ORACLES)])
    missing = [f"{mod}.{name}" for mod, m in sorted(MODULES.items()) for name in m.public if (mod, name) not in seen]
    assert not missing, f"public names that nothing reaches: {missing}"


def test_every_oracle_is_needed():
    # an oracle that the CLI or the benchmark reaches anyway does not belong in ORACLES
    seen = reached([ENTRY, *benchmark_roots()])
    for name, needed_by in ORACLES:
        mod, attr = name.split(".")
        assert attr in MODULES[mod].public, f"{name} is not public"
        assert (mod, attr) not in seen, f"{name} is reached without its oracle entry ({needed_by})"
