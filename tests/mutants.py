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
STACK_CAP = "tests/test_records_cli.py::test_cli_bounds_stacks_stay_within_the_entry_cap"
PINNED = "tests/test_records_cli.py::test_bounds_bundle_bytes_are_pinned"
PINNED_FAULT = "tests/test_records_cli.py::test_bounds_fault_bundle_bytes_are_pinned"
SHOTS_PINNED = "tests/test_gluedtrees.py::test_traversal_shots_stay_pinned_at_seed_7"
MARGIN = "tests/test_walk.py::test_float32_probabilities_stay_within_the_margin"
PSD_REFUSED = "tests/test_walk.py::test_psd_just_past_the_tolerance_is_refused"
PSD_BAND = "tests/test_walk.py::test_psd_inside_the_fallback_band_is_accepted_through_eigvalsh"
COUNT_BOUNDS = "tests/test_records_cli.py::test_cli_count_numpy_cannot_index_exits_3"

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
    # the float32 shot screen (walk.SpectralWalk._shot_screen, _hit_probabilities):
    # the batched first hits and the round-by-round oracle share hits, so only
    # pinned shots or the margin itself can tell
    Mutant(
        "F1",
        "src/ctqw/walk.py",
        "rows, dropped = (m[n:], cos_mass) if sin_only else (m, 0.0)",
        "rows, dropped = (m[:n], cos_mass) if sin_only else (m, 0.0)",
        (SHOTS_PINNED, MARGIN),
    ),
    Mutant(
        "F2",
        "src/ctqw/walk.py",
        "x *= 2.0 * np.pi",
        "x *= np.pi",
        (SHOTS_PINNED, MARGIN),
    ),
    # the bounds stacks and shares (cli._bounds_block, cli._cmd_bounds): the
    # bundle stays the same, so only the stacking tests can tell
    Mutant(
        "B1",
        "src/ctqw/cli.py",
        "if (len(pending[dim]) + 1) * dim * dim > BOUNDS_STACK_ENTRIES:",
        "if False:",
        (STACK_CAP,),
    ),
    Mutant(
        "B2",
        "src/ctqw/cli.py",
        "instances * (p + 1) // parts, *common)",
        "instances * (p + 1) // parts + 1, *common)",
        (STACK_CAP, "tests/test_records_cli.py::test_cli_bounds_blocks_spread_over_jobs_identically"),
    ),
    # the bounds table (cli._bounds_block, cli._cmd_bounds): its instance order and its summary masks
    Mutant(
        "B3",
        "src/ctqw/cli.py",
        'order = np.argsort(table["instance"], kind="stable")',
        'order = np.argsort(table["instance"])',
        (PINNED, PINNED_FAULT),
    ),
    Mutant(
        "B4",
        "src/ctqw/cli.py",
        "of_kind = slack[kind == name]",
        'of_kind = slack[(kind == name) | (kind == "comparison")]',
        ("tests/test_records_cli.py::test_bounds_summary_equals_the_row_loop", PINNED_FAULT),
    ),
    # the bounds streams' keys (rng.stream_keys): one hash constant of SeedSequence
    Mutant(
        "K1",
        "src/ctqw/rng.py",
        "_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715",
        "_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F716",
        ("tests/test_rng.py::test_stream_keys_equal_seed_sequence", PINNED),
    ),
    # the shifted Cholesky certificate (walk._psd_certified): a shift past
    # TOL_PSD certifies what eigvalsh refuses, a failed factorization must fall back
    Mutant(
        "P1",
        "src/ctqw/walk.py",
        "shift = (TOL_PSD - delta) * np.eye(d)",
        "shift = (TOL_PSD + delta) * np.eye(d)",
        (PSD_REFUSED,),
    ),
    Mutant(
        "P2",
        "src/ctqw/walk.py",
        "except np.linalg.LinAlgError:\n                pass",
        "except np.linalg.LinAlgError:\n                raise",
        (PSD_BAND, "tests/test_walk.py::test_psd_failure_in_a_stack_of_stacks_names_its_index"),
    ),
    # the count and size bounds (cli.ITEMS_MAX): a size past them, or a count of
    # 8-byte items at them, escapes cli.main as numpy's ValueError
    Mutant(
        "C1",
        "src/ctqw/cli.py",
        "value % 2 or value * value > ITEMS_MAX:",
        "value % 2:",
        (COUNT_BOUNDS, "tests/test_records_cli.py::test_cli_sizes_past_numpy_indexing_are_refused"),
    ),
    Mutant(
        "C2",
        "src/ctqw/cli.py",
        "ITEMS_MAX = np.iinfo(np.intp).max // 16",
        "ITEMS_MAX = np.iinfo(np.intp).max // 8",
        (COUNT_BOUNDS,),
    ),
    # the stationary vector from detailed balance (markov.validate_chain) and
    # its Perron certificate at s* (search.overlap_preconditions)
    Mutant(
        "D1",
        "src/ctqw/markov.py",
        "pi[here] = pi[u] * (p[u, here] / p[here, u])",
        "pi[here] = pi[u] * (p[here, u] / p[u, here])",
        ("tests/test_markov.py::test_stationary_vector_is_exact_to_rounding",),
    ),
    Mutant(
        "D2",
        "src/ctqw/markov.py",
        "if not resid <= BALANCE_TOL:",
        "if False:",
        ("tests/test_markov.py::test_symmetric_support_without_detailed_balance_is_refused",),
    ),
    Mutant(
        "D3",
        "src/ctqw/markov.py",
        "if one_way.size:",
        "if False:",
        ("tests/test_markov.py::test_one_way_edge_is_named",),
    ),
    Mutant(
        "D4",
        "src/ctqw/search.py",
        "PERRON_TOL = 1e-12",
        "PERRON_TOL = 1e-10",
        ("tests/test_search.py::test_overlap_preconditions_refuse_a_tampered_stationary_vector",),
    ),
    # the per-run column texts (records._per_run): the last run's cells go missing
    Mutant(
        "R1",
        "src/ctqw/records.py",
        "dtype=object), np.diff(np.append(starts, x.shape[0])))",
        "dtype=object)[:-1], np.diff(starts))",
        ("tests/test_records_cli.py::test_int_columns_render_each_cell_once_per_run", PINNED),
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
