"""Only walk.reduced_walk cuts a walk to its start's reach: outside it, no
comparison in src/ctqw has an operand that mentions 2^-52, the unit of the
dim 2^-52 threshold below which a start amplitude is dropped, so every walk
number reads the one cut made where a reduced walk is built."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ctqw"

EPS = 2.0**-52
ORDERINGS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def constant(node: ast.AST):
    """The value of a number literal, or of a negated one; None for any other expression."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        value = constant(node.operand)
        return None if value is None else -value
    return node.value if isinstance(node, ast.Constant) and type(node.value) in (int, float) else None


def mentions_epsilon(node: ast.AST) -> bool:
    """Whether an expression holds 2^-52 at any depth: as a power of two
    literals, as a float literal, or as a finfo's eps."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr == "eps":
            return True
        if constant(sub) == EPS:
            return True
        if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Pow):
            base, exponent = constant(sub.left), constant(sub.right)
            if base is not None and exponent is not None and base**exponent == EPS:
                return True
    return False


def epsilon_comparisons(source: str, skip: str = "") -> list[int]:
    """The lines of the ordering comparisons in source with an operand that
    mentions 2^-52, outside any function named skip."""
    tree = ast.parse(source)
    skipped = [(f.lineno, f.end_lineno) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name == skip]
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and any(isinstance(op, ORDERINGS) for op in node.ops):
            if any(mentions_epsilon(operand) for operand in [node.left, *node.comparators]):
                if not any(lo <= node.lineno <= hi for lo, hi in skipped):
                    lines.append(node.lineno)
    return sorted(lines)


def test_only_the_reduced_walk_builder_compares_start_amplitudes_with_the_threshold():
    found = {path.name: epsilon_comparisons(path.read_text(encoding="utf-8"), "reduced_walk") for path in sorted(SRC.glob("*.py"))}
    assert not {name: lines for name, lines in found.items() if lines}
    # the builder's own cut is such a comparison: the guard sees exactly one
    source = (SRC / "walk.py").read_text(encoding="utf-8")
    assert len(epsilon_comparisons(source)) == 1


def test_the_guard_sees_each_spelling_of_the_threshold():
    for cut in ("np.abs(c) > d * 2.0**-52", "abs(c) <= d * 2 ** -52", "c > 2.220446049250313e-16", "c >= np.finfo(float).eps * d"):
        assert epsilon_comparisons(f"def sample(c, d):\n    return {cut}\n") == [2], cut
    assert epsilon_comparisons("def reduced_walk(c, d):\n    return c > d * 2.0**-52\n", "reduced_walk") == []
    assert epsilon_comparisons("def f(c, d):\n    return c > d * 2.0**-50\n") == []
