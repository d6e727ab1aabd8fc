"""Value records in src/ctqw are named tuples: a frozen dataclass costs about
three times the import-time memory. A dataclass stays only where it does
work at construction, and DATACLASSES lists each with that work; no other
module imports dataclasses."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ctqw"

#: (file, class) of each dataclass in src/ctqw, beside the work that keeps it one
DATACLASSES = {
    ("walk.py", "TimeDistribution"): "validates T and k at construction, and is compared by value",
    ("walk.py", "SpectralWalk"): "derives dim and spectral_range, and caches per-walk data in cached_property",
}


def is_dataclass_decorator(node: ast.AST) -> bool:
    """Whether a decorator is dataclass, bare, called or as an attribute."""
    target = node.func if isinstance(node, ast.Call) else node
    return (isinstance(target, ast.Name) and target.id == "dataclass") or (
        isinstance(target, ast.Attribute) and target.attr == "dataclass"
    )


def dataclass_uses(source: str) -> tuple[list[str], bool]:
    """The dataclass-decorated classes of a module's source, and whether it imports dataclasses."""
    classes, imports = [], False
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and any(is_dataclass_decorator(d) for d in node.decorator_list):
            classes.append(node.name)
        elif isinstance(node, ast.Import):
            imports = imports or any(alias.name.split(".")[0] == "dataclasses" for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imports = imports or node.module == "dataclasses"
    return classes, imports


def test_only_the_listed_classes_are_dataclasses():
    uses = {path.name: dataclass_uses(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    found = {(name, cls) for name, (classes, _) in uses.items() for cls in classes}
    assert found == set(DATACLASSES)
    assert {name for name, (_, imports) in uses.items() if imports} == {name for name, _ in DATACLASSES}


def test_the_guard_sees_each_spelling_of_the_decorator():
    spellings = {
        "from dataclasses import dataclass\n@dataclass\nclass A:\n    x: int\n": (["A"], True),
        "from dataclasses import dataclass\n@dataclass(frozen=True)\nclass A:\n    x: int\n": (["A"], True),
        "import dataclasses\n@dataclasses.dataclass(eq=False)\nclass A:\n    x: int\n": (["A"], True),
        "import dataclasses as dc\n": ([], True),
        "from typing import NamedTuple\nclass A(NamedTuple):\n    x: int\n": ([], False),
    }
    for source, expected in spellings.items():
        assert dataclass_uses(source) == expected, source
