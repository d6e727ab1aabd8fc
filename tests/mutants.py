"""Hand mutants of the certified formulas and checks, and a runner for them.

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py S1 M6      # the named ones

Each mutant is (name, file under the repository root, exact old text, new
text, killing test ids). The runner copies src/, tests/, perfbench/ and
pyproject.toml to a temporary directory, replaces the old text by the new
one there, and runs only the killing tests against the copy. A mutant is
killed when one of them fails; a run that pytest cannot finish stops the
runner. The runner prints one line per mutant and
exits 1 if any survived. pytest does not collect this file;
test_mutants.py checks that each old text still occurs exactly once under
src/, so the list cannot rot.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    killers: tuple[str, ...]


SCREEN_HAND = "tests/test_walk.py::test_screened_hitting_time_of_hand_walks"
SCREEN_DRAWN = "tests/test_walk.py::test_screened_hitting_time_equals_the_full_grid"

MUTANTS = (
    # the hitting-time screen (walk.SpectralWalk._envelope)
    Mutant(
        "S1",
        "src/ctqw/walk.py",
        "env = np.minimum(2.0 / np.multiply.outer(grid, edges), 1.0) ** k",
        "env = np.minimum(1.0 / np.multiply.outer(grid, edges), 1.0) ** k",
        (SCREEN_HAND, SCREEN_DRAWN),
    ),
    Mutant(
        "S2",
        "src/ctqw/walk.py",
        "return 2.0 * (env @ weights[used]) + slack",
        "return 2.0 * (env @ weights[used])",
        (SCREEN_HAND, SCREEN_DRAWN),
    ),
    Mutant(
        "S3",
        "src/ctqw/walk.py",
        "return np.full(grid.shape, slack)",
        "return np.zeros(grid.shape)",
        (SCREEN_HAND,),
    ),
    Mutant(
        "S4",
        "src/ctqw/walk.py",
        "return 2.0 * (env @ weights[used]) + slack",
        "return (env @ weights[used]) + slack",
        (SCREEN_HAND, SCREEN_DRAWN),
    ),
    Mutant(
        "S5",
        "src/ctqw/walk.py",
        "lower * (1.0 - 2.0**-40) <= ratio",
        "lower * (1.0 - 2.0**-40) <= lower[first]",
        (SCREEN_DRAWN, "tests/test_walk.py::test_screened_hitting_time_of_the_column_walk"),
    ),
    # the five that survived Tier 1 before their killing tests were added
    Mutant(
        "M6",
        "src/ctqw/walk.py",
        "margin = 2.0 * eps * (1.0 + self.prune_bound)",
        "margin = 1.0 * eps * (1.0 + self.prune_bound)",
        ("tests/test_walk.py::test_a_float32_error_just_inside_the_margin_decides_as_float64",),
    ),
    Mutant(
        "M8",
        "src/ctqw/gluedtrees.py",
        '"within_gap_ok": bool(within > within_floor)',
        '"within_gap_ok": bool(within > 2 * within_floor)',
        ("tests/test_gluedtrees.py::test_subspace_clears_a_within_gap_just_above_its_floor",),
    ),
    Mutant(
        "M9",
        "src/ctqw/gluedtrees.py",
        '"cross_gap_ok": bool(cross > math.pi / (12 * n))',
        '"cross_gap_ok": bool(cross > math.pi / (24 * n))',
        ("tests/test_gluedtrees.py::test_subspace_flags_a_cross_gap_or_an_alpha_below_its_floor",),
    ),
    Mutant(
        "M11",
        "src/ctqw/search.py",
        "holds = bool(p_exact >= floor - 1e-9)",
        "holds = bool(p_exact >= floor - 1e-2)",
        ("tests/test_records_cli.py::test_cli_search_floor_forgives_rounding_and_no_more",),
    ),
    Mutant(
        "M12",
        "src/ctqw/gluedtrees.py",
        '"alpha_floor_ok": bool(np.all(alpha > 1.0 / math.sqrt(2 * n)))',
        '"alpha_floor_ok": bool(np.all(alpha > 0.5 / math.sqrt(2 * n)))',
        ("tests/test_gluedtrees.py::test_subspace_flags_a_cross_gap_or_an_alpha_below_its_floor",),
    ),
)


def killed(mutant: Mutant) -> bool:
    """Whether a killing test fails on a copy of the tree with the mutant applied."""
    with tempfile.TemporaryDirectory(prefix="ctqw-mutant-") as tmp:
        for name in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / name, Path(tmp, name), ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        target = Path(tmp, mutant.path)
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: old text occurs {text.count(mutant.old)} times in {mutant.path}")
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(Path(tmp, "src")), "PYTHONDONTWRITEBYTECODE": "1"}
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.killers],
            cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        # 1: a test failed; anything else (an error of the run itself) kills nothing
        if run.returncode not in (0, 1):
            raise SystemExit(f"{mutant.name}: pytest exited {run.returncode}")
        return run.returncode == 1


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    survivors = []
    for mutant in chosen:
        start = time.perf_counter()
        dead = killed(mutant)
        print(f"{mutant.name}: {'killed' if dead else 'SURVIVED'} in {time.perf_counter() - start:.1f} s ({mutant.path})")
        if not dead:
            survivors.append(mutant.name)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
