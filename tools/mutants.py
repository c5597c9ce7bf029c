"""Planted-fault register: each mutant must make its listed tests fail.

    python3 tools/mutants.py          # every mutant
    python3 tools/mutants.py 1 4      # the mutants at these positions

Run from the root of a checkout; it is not part of the test suite.  Each
entry of MUTANTS gives a file, its exact old text (which must occur once),
the replacement and the pytest ids that must fail.  The script copies
src/, tests/ and pyproject.toml to a temporary directory, checks that the
listed tests pass there, then applies one mutant at a time to a fresh copy
and runs only that mutant's tests.  It reports each mutant as caught or
survived, and exits 1 when a mutant survives, when one of its tests still
passes or cannot be run, or when its old text no longer matches: a
refactor updates the register on purpose.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORE = "src/possind/core.py"
GRAPHOID = "src/possind/graphoid.py"
INDEPENDENCE = "src/possind/independence.py"
PLAN = "tests/test_independence.py::TestPlan::"
BLOCKS = "tests/test_independence.py::TestBlocks::"
CUSTOM = "tests/test_independence.py::TestCustomConjunction::"
ENCODING = "tests/test_independence.py::TestEncoding::"
ROUTES = "tests/test_independence.py::TestRoutesAgree::test_enumeration_equals_membership_tests"
SPLITS = "tests/test_graphoid.py::TestSplits::"

MUTANTS = [
    dict(name="a pack's left padding misaligned with its right padding", file=INDEPENDENCE,
         old="-1, cells).take(column, 1), index.take(column, 1)",
         new="-1, cells).take(np.minimum(np.arange(width), cells - 1), 1), index.take(column, 1)",
         tests=[PLAN + "test_packs_read_what_their_groups_read[default]"]),
    dict(name="left rows without the pack's row offset", file=INDEPENDENCE,
         old="left + rows, mirror + count", new="left, mirror + count",
         tests=[PLAN + "test_packs_read_what_their_groups_read[default]"]),
    dict(name="mirrors offset by the previous group's start", file=INDEPENDENCE,
         old="left + rows, mirror + count,",
         new="left + rows, mirror + (count - len(parts[-1][3]) if parts else 0),",
         tests=[BLOCKS + "test_mirrors_stay_in_their_block[2x3]"]),
    dict(name="a pack crossing a group past the crossover", file=INDEPENDENCE,
         old="if packs and route and packs[-1][-1][1] else []",
         new="if packs and route else []",
         tests=[PLAN + "test_small_block_groups_are_packed"]),
    dict(name="a pack exceeding BLOCK_CELLS", file=INDEPENDENCE,
         old="part[1].shape[1] for _, part in pack) <= BLOCK_CELLS",
         new="part[1].shape[1] for _, part in pack) <= 2 * BLOCK_CELLS",
         tests=[PLAN + "test_small_block_groups_are_packed"]),
    dict(name="verdicts written with the conjunctions reversed", file=INDEPENDENCE,
         old="verdicts[:, j, at] = ok", new="verdicts[:, j, at] = ok[::-1]",
         tests=[BLOCKS + "test_both_kinds_in_one_pass_equal_one_kind_at_a_time"]),
    dict(name="every stack entry conjoined with the first conjunction", file=INDEPENDENCE,
         old="rhs[i] = _checked(conj._conjoin(own[i], rhs[i]))",
         new="rhs[i] = _checked(conjs[0]._conjoin(own[i], rhs[i]))",
         tests=[BLOCKS + "test_both_kinds_in_one_pass_equal_one_kind_at_a_time"]),
    dict(name="the conjoined sides not range-checked", file=INDEPENDENCE,
         old="rhs[i] = _checked(conj._conjoin(own[i], rhs[i]))",
         new="rhs[i] = conj._conjoin(own[i], rhs[i])",
         tests=[CUSTOM + "test_nan_conjoined_side_is_refused_on_both_routes[blocks]"]),
    dict(name="the residua not range-checked", file=INDEPENDENCE,
         old="conds = np.stack([_checked(conj._residuum(given, total)) for conj in conjs])",
         new="conds = np.stack([conj._residuum(given, total) for conj in conjs])",
         tests=[CUSTOM + "test_out_of_range_conditionals_are_refused[independence-blocks]",
                CUSTOM + "test_out_of_range_conditionals_are_refused[noninteractivity-blocks]"]),
    dict(name="the right-side index built from split (a | c) | {} in place of (a | c) | c",
         file=INDEPENDENCE, old="at[spread[:, a | c], spread[:, c]]",
         new="at[spread[:, a | c], spread[:, c & 0]]",
         tests=[f"{ROUTES}[{conj}-{kind}]" for conj in ("min", "luka", "prod")
                for kind in ("independence", "noninteractivity")]),
    dict(name="two adjacent plan slots swapped", file=INDEPENDENCE,
         old="slots[key.argsort()] = np.arange(len(key))",
         new="slots[key.argsort()] = np.arange(len(key)) ^ (np.arange(len(key)) < 2)",
         tests=[PLAN + "test_slots_place_candidates_in_sort_key_order[1]",
                PLAN + "test_slots_place_candidates_in_sort_key_order[default]"]),
    dict(name="the transpose skipped, so scope order stands in for name order",
         file=INDEPENDENCE, old="table = dist.table.transpose(axes)", new="table = dist.table",
         tests=[ENCODING + "test_names_sorted_apart_enumerate_as_the_membership_tests"]),
    dict(name="split submasks listed in plain lexicographic order, not fewest names first",
         file=GRAPHOID,
         old="for r in range(1, width + 1) for k in itertools.combinations(range(width), r)]",
         new="for k in sorted(c for r in range(1, width + 1)"
             " for c in itertools.combinations(range(width), r))]",
         tests=[SPLITS + "test_the_split_table_equals_the_distinct_masks[3]",
                "tests/test_graphoid.py::TestAgainstReference::"
                "test_five_variable_relations_equal_the_brute_force_reference"]),
    dict(name="the squeeze keeping one unused name", file=CORE,
         old="kept = [i for i in range(len(names)) if used >> i & 1]",
         new="kept = [i for i in range(len(names)) if (used | 1) >> i & 1]",
         tests=[ENCODING + "test_enumerated_encodings_equal_a_sorted_reference[default]",
                ENCODING + "test_enumerated_encodings_equal_the_hand_built_ones"]),
    dict(name="containment looked up in the relation's own codes", file=GRAPHOID,
         old="held = set(codes[1])", new="held = set(codes[0])",
         tests=["tests/test_graphoid.py::TestFuzz::"
                "test_containment_names_the_first_missing_member_from_rows"]),
]


def copy_tree(into: Path) -> Path:
    into.mkdir()
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, into / part, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", into)
    return into


def failing(tree: Path, tests: list) -> tuple[int, set]:
    """pytest's exit code on `tests` in `tree`, and the ids it reports failed."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "--tb=no", "-rfE",
                          "-p", "no:cacheprovider", *tests],
                         cwd=tree, env=env, capture_output=True, text=True)
    failed = {line.split(" ", 1)[1].split(" - ")[0] for line in run.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))}
    return run.returncode, failed


def main(argv: list) -> int:
    chosen = [MUTANTS[int(i) - 1] for i in argv] if argv else MUTANTS
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        code, failed = failing(copy_tree(tmp / "clean"),
                               sorted({t for mutant in chosen for t in mutant["tests"]}))
        if code != 0:
            print(f"unmutated tree: exit {code}, failing {sorted(failed)}")
            return 1
        for n, mutant in enumerate(chosen, 1):
            tree = copy_tree(tmp / f"mutant{n}")
            path = tree / mutant["file"]
            text = path.read_text()
            if (times := text.count(mutant["old"])) != 1:
                print(f"STALE     {mutant['name']}: its old text occurs {times} times")
                bad += 1
                continue
            path.write_text(text.replace(mutant["old"], mutant["new"]))
            code, failed = failing(tree, mutant["tests"])
            missed = [t for t in mutant["tests"] if t not in failed]
            verdict = "caught" if code == 1 and not missed else "SURVIVED"
            bad += verdict != "caught"
            print(f"{verdict:9} {mutant['name']}"
                  + (f": exit {code}, passed {missed}" if missed else ""))
    print(f"{len(chosen) - bad} of {len(chosen)} mutants caught")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
