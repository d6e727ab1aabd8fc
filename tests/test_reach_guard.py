"""Only walk.reduced_walk cuts a walk to its start's reach: outside it, no
comparison in src/ctqw has an operand that mentions 2^-52, the unit of the
dim 2^-52 threshold below which a start amplitude is dropped, so every walk
number reads the one cut made where a reduced walk is built. An operand
mentions 2^-52 also through a name that its function assigned from such an
expression before; EXEMPT lists the names that are no start-amplitude cut."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ctqw"

EPS = 2.0**-52
ORDERINGS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)

#: per file, the (function, name) pairs assigned from 2^-52 that cut no start amplitude, each with its reason
EXEMPT = {
    "search.py": {
        ("_discriminant_walk", "resolved"): "bounds how closely eigh resolves D's eigenvalues to 1, to refuse a gap beyond float64",
    },
}


def constant(node: ast.AST):
    """The value of a number literal, or of a negated one; None for any other expression."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        value = constant(node.operand)
        return None if value is None else -value
    return node.value if isinstance(node, ast.Constant) and type(node.value) in (int, float) else None


def mentions_epsilon(node: ast.AST, names=()) -> bool:
    """Whether an expression holds 2^-52 at any depth: as a power of two
    literals, as a float literal, as a finfo's eps, or as one of names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr == "eps":
            return True
        if isinstance(sub, ast.Name) and sub.id in names:
            return True
        if constant(sub) == EPS:
            return True
        if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Pow):
            base, exponent = constant(sub.left), constant(sub.right)
            if base is not None and exponent is not None and base**exponent == EPS:
                return True
    return False


def epsilon_names(function: ast.FunctionDef, exempt=()) -> dict[str, int]:
    """The names that function assigns from an expression mentioning 2^-52,
    directly or through a name so assigned before, each with the line of its
    first such assignment; the (function, name) pairs in exempt are left out."""
    names = {}
    assigns = [n for n in ast.walk(function) if isinstance(n, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and n.value]
    for node in sorted(assigns, key=lambda n: n.lineno):
        if mentions_epsilon(node.value, names):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name) and (function.name, sub.id) not in exempt:
                        names.setdefault(sub.id, node.lineno)
    return names


def epsilon_comparisons(source: str, skip: str = "", exempt=()) -> list[int]:
    """The lines of the ordering comparisons in source with an operand that
    mentions 2^-52, itself or through a name its function assigned so on an
    earlier line (epsilon_names), outside any function named skip."""
    tree = ast.parse(source)
    functions = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
    skipped = [(f.lineno, f.end_lineno) for f in functions if f.name == skip]
    lines = set()
    for scope in [tree, *functions]:
        names = {} if scope is tree else epsilon_names(scope, exempt)
        for node in ast.walk(scope):
            if isinstance(node, ast.Compare) and any(isinstance(op, ORDERINGS) for op in node.ops):
                earlier = {name for name, line in names.items() if line < node.lineno}
                if any(mentions_epsilon(operand, earlier) for operand in [node.left, *node.comparators]):
                    if not any(lo <= node.lineno <= hi for lo, hi in skipped):
                        lines.add(node.lineno)
    return sorted(lines)


def test_only_the_reduced_walk_builder_compares_start_amplitudes_with_the_threshold():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    found = {name: epsilon_comparisons(source, "reduced_walk", EXEMPT.get(name, ())) for name, source in sources.items()}
    assert not {name: lines for name, lines in found.items() if lines}
    # each exemption is in use: without them, the guard sees one comparison per exempt name
    for name, exempt in EXEMPT.items():
        assert len(epsilon_comparisons(sources[name], "reduced_walk")) == len(exempt), name
    # the builder's own cut is such a comparison: the guard sees exactly one
    source = (SRC / "walk.py").read_text(encoding="utf-8")
    assert len(epsilon_comparisons(source)) == 1


def test_the_guard_sees_each_spelling_of_the_threshold():
    for cut in ("np.abs(c) > d * 2.0**-52", "abs(c) <= d * 2 ** -52", "c > 2.220446049250313e-16", "c >= np.finfo(float).eps * d"):
        assert epsilon_comparisons(f"def sample(c, d):\n    return {cut}\n") == [2], cut
    assert epsilon_comparisons("def reduced_walk(c, d):\n    return c > d * 2.0**-52\n", "reduced_walk") == []
    # through a name the function assigned before, also by way of a second name, but not from another function
    named = "def sample(c, d):\n    unit = 2.0**-52\n    cut = d * unit\n    return c > cut\n"
    assert epsilon_comparisons(named) == [4]
    assert epsilon_comparisons(named, exempt={("sample", "cut")}) == []
    assert epsilon_comparisons("def f(d):\n    cut = d * 2.0**-52\n\ndef g(c, cut):\n    return c > cut\n") == []
    assert epsilon_comparisons("def f(c, d):\n    return c > d * 2.0**-50\n") == []
