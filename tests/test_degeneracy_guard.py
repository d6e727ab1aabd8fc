"""Only spectral.py decides which energies are degenerate: outside it, no
comparison in src/ctqw has an operand that mentions the degeneracy
tolerance, so every walk number reads the one eigenspace partition."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ctqw"

TOLERANCE_NAMES = {"tol_degen", "degeneracy_tol"}
ORDERINGS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def mentions_tolerance(node: ast.AST) -> bool:
    """Whether an expression names the tolerance, as a variable or an attribute, at any depth."""
    return any(
        (isinstance(sub, ast.Name) and sub.id in TOLERANCE_NAMES)
        or (isinstance(sub, ast.Attribute) and sub.attr in TOLERANCE_NAMES)
        for sub in ast.walk(node)
    )


def tolerance_comparisons(path: Path) -> list[int]:
    """The lines of a file's ordering comparisons with an operand that mentions the tolerance."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Compare) and any(isinstance(op, ORDERINGS) for op in node.ops):
            if any(mentions_tolerance(operand) for operand in [node.left, *node.comparators]):
                lines.append(node.lineno)
    return sorted(lines)


def test_only_the_partition_compares_against_the_degeneracy_tolerance():
    found = {path.name: tolerance_comparisons(path) for path in sorted(SRC.glob("*.py")) if path.name != "spectral.py"}
    assert not {name: lines for name, lines in found.items() if lines}
    # the partition's own check of its tolerance is such a comparison: the guard sees one
    assert tolerance_comparisons(SRC / "spectral.py")
