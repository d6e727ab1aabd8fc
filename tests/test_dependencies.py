"""Every third-party module that a test imports is declared in pyproject.toml,
so a fresh `pip install .[test]` collects the whole suite."""
import ast
import re
import sys
from pathlib import Path

import pytest

# tomllib is in the standard library from Python 3.11 on
tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def imported_modules(path: Path) -> set[str]:
    """The top-level module of every absolute import in a file, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def declared_requirements() -> set[str]:
    """Project names in `dependencies` and the `test` extra, without version specifiers."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    return {re.split(r"[\s<>=!~\[;]", req, maxsplit=1)[0].lower() for req in requirements}


def test_every_third_party_test_import_is_declared():
    local = {path.stem for folder in ("tests", "perfbench") for path in (ROOT / folder).glob("*.py")}
    local |= {path.name for path in (ROOT / "src").iterdir() if path.is_dir()}
    imported = set().union(*(imported_modules(path) for path in (ROOT / "tests").glob("*.py")))
    third_party = imported - set(sys.stdlib_module_names) - local
    # each of these is imported under its project name
    assert {"numpy", "pytest", "scipy", "mpmath"} <= third_party
    assert third_party <= declared_requirements(), sorted(third_party - declared_requirements())
