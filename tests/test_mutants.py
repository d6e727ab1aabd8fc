"""The mutant list of mutants.py stays applicable: each old text names one
place in src/, and each killing test exists."""
from pathlib import Path

from mutants import MUTANTS, ROOT


def test_each_mutant_old_text_occurs_once_under_src():
    sources = {path.relative_to(ROOT).as_posix(): path.read_text(encoding="utf-8") for path in (ROOT / "src").rglob("*.py")}
    for mutant in MUTANTS:
        counts = {path: text.count(mutant.old) for path, text in sources.items() if mutant.old in text}
        assert counts == {mutant.path: 1}, (mutant.name, counts)


def test_each_killing_test_exists():
    for mutant in MUTANTS:
        assert mutant.killers, mutant.name
        for test_id in mutant.killers:
            path, name = test_id.split("::")
            assert f"def {name}(" in Path(ROOT, path).read_text(encoding="utf-8"), (mutant.name, test_id)
