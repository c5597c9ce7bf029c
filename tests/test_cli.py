"""Exit codes, stdout shape and JSON reports of the command-line front end."""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import possind
from possind import (
    Distribution,
    FuzzConfig,
    IndependenceRelation,
    Min,
    ProductLike,
    RelationKind,
    Triplet,
    build_space,
    dump_distribution,
    enumerate_relation,
    fuzz_properties,
    in_independence,
    is_graphoid,
    load_distribution,
    make_distribution,
    random_distribution,
)
from possind import cli, graphoid
from possind.cases import CaseResult
from possind.cli import main

from conftest import SPACE3


@pytest.fixture
def one_sided_file(one_sided, tmp_path):
    path = tmp_path / "one_sided.json"
    dump_distribution(one_sided, path)
    return str(path)


@pytest.fixture
def two_peak_file(two_peak, tmp_path):
    path = tmp_path / "two_peak.json"
    dump_distribution(two_peak, path)
    return str(path)


@pytest.fixture
def uniform_file(tmp_path):
    dist = make_distribution(
        SPACE3, SPACE3.names, [(a, 1.0) for a in SPACE3.assignments()]
    )
    path = tmp_path / "uniform.json"
    dump_distribution(dist, path)
    return str(path)


def report_keys(path):
    report = json.loads(path.read_text())
    return report, set(report)


EXPECTED_KEYS = {"verb", "inputs", "verdict", "results", "witnesses", "counterexamples", "timing_ms"}


def triplet_doc(t):
    return {"a": sorted(t.a), "b": sorted(t.b), "c": sorted(t.c)}


def counterexample_doc(cx):
    return {"axiom": cx.axiom, "premises": [triplet_doc(t) for t in cx.premises],
            "conclusion": triplet_doc(cx.conclusion)}


class TestMarginalize:
    def test_prints_table_and_exits_zero(self, one_sided_file, capsys):
        assert main(["marginalize", "--dist", one_sided_file, "--keep", "X3"]) == 0
        out = capsys.readouterr().out
        assert "X3=0 -> 0.9" in out
        assert "X3=1 -> 1" in out

    def test_json_report_structure(self, one_sided_file, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        main(["marginalize", "--dist", one_sided_file, "--keep", "X3", "--json", str(out_path)])
        report, keys = report_keys(out_path)
        assert keys == EXPECTED_KEYS
        assert report["verb"] == "marginalize"
        assert report["results"]["distribution"]["values"]


class TestCondition:
    def test_min_conditional(self, one_sided_file, capsys):
        code = main([
            "condition", "--dist", one_sided_file,
            "--target", "X1", "--given", "X3", "--conj", "min",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "X1=0 X3=0 -> 0.6" in out
        assert "X1=1 X3=1 -> 1" in out

    def test_empty_given_is_the_marginal(self, one_sided_file, capsys):
        assert main([
            "condition", "--dist", one_sided_file, "--target", "X3", "--conj", "prod",
        ]) == 0
        assert "X3=0 -> 0.9" in capsys.readouterr().out


class TestIndependent:
    def test_rejected_triplet_exits_one_with_witnesses(self, one_sided_file, capsys):
        code = main([
            "independent", "--dist", one_sided_file,
            "--a", "X1", "--b", "X2", "--c", "X3",
            "--conj", "min", "--relation", "independence",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "is not in the independence relation" in out
        assert "left=1 right=0.7" in out

    def test_accepted_triplet_exits_zero(self, uniform_file, capsys):
        code = main([
            "independent", "--dist", uniform_file,
            "--a", "X1", "--b", "X2", "--c", "X3",
            "--conj", "min", "--relation", "independence",
        ])
        assert code == 0
        assert "is in the independence relation" in capsys.readouterr().out

    def test_noninteractivity_relation_flag(self, two_peak_file, capsys):
        code = main([
            "independent", "--dist", two_peak_file,
            "--a", "X1", "--b", "X2", "--c", "X3",
            "--conj", "prod", "--relation", "noninteractivity",
        ])
        assert code == 0

    def test_json_report_carries_all_witnesses(self, one_sided_file, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        main([
            "independent", "--dist", one_sided_file,
            "--a", "X2", "--b", "X1", "--c", "X3",
            "--conj", "min", "--relation", "independence",
            "--json", str(out_path),
        ])
        report, keys = report_keys(out_path)
        assert keys == EXPECTED_KEYS
        assert report["verdict"] is False
        assert report["witnesses"]
        first = report["witnesses"][0]
        assert set(first) == {"assignment", "left", "right"}

    def test_witnesses_past_the_cap_are_counted(self, tmp_path, capsys):
        space = build_space([(f"X{i}", "0123") for i in (1, 2, 3)])
        path = tmp_path / "wide.json"
        dump_distribution(random_distribution(space, seed=0), path)
        out_path = tmp_path / "report.json"
        assert main(["independent", "--dist", str(path), "--a", "X1", "--b", "X2", "--c", "X3",
                     "--conj", "min", "--relation", "independence", "--json", str(out_path)]) == 1
        evidence = in_independence(load_distribution(path), Triplet.of("X1", "X2", "X3"), Min())
        assert len(evidence.witnesses) == 93
        lines = capsys.readouterr().out.splitlines()
        assert [line.startswith("  at ") for line in lines[1:]] == [True] * 10 + [False]
        assert lines[-1] == "  ... and 83 more witnesses"
        assert json.loads(out_path.read_text())["witnesses"] == [
            {"assignment": w.assignment, "left": w.left, "right": w.right}
            for w in evidence.witnesses]


class TestEnumerate:
    def test_lists_members(self, two_peak_file, capsys):
        code = main([
            "enumerate", "--dist", two_peak_file,
            "--conj", "prod", "--relation", "noninteractivity",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "6 triplets" in out
        assert "(X1 ; X2 | X3)" in out

    def test_names_the_conjunction_it_ran(self, two_peak_file, capsys):
        assert main([
            "enumerate", "--dist", two_peak_file,
            "--conj", "luka:pow=1.0000001", "--relation", "independence",
        ]) == 0
        assert "under luka:pow=1.0000001" in capsys.readouterr().out


class TestAxioms:
    def test_graphoid_failure_exits_one(self, two_peak_file, capsys):
        code = main([
            "axioms", "--dist", two_peak_file,
            "--conj", "prod", "--relation", "noninteractivity",
            "--level", "graphoid",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "intersection: violated" in out
        assert "(X1 ; X2,X3 | -) is missing" in out

    def test_semigraphoid_holds_exits_zero(self, two_peak_file, capsys):
        code = main([
            "axioms", "--dist", two_peak_file,
            "--conj", "prod", "--relation", "noninteractivity",
            "--level", "semigraphoid",
        ])
        assert code == 0

    def test_json_counterexamples(self, two_peak_file, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        main([
            "axioms", "--dist", two_peak_file,
            "--conj", "min", "--relation", "noninteractivity",
            "--level", "graphoid", "--json", str(out_path),
        ])
        report, _ = report_keys(out_path)
        assert report["verdict"] is False
        assert report["results"]["verdicts"]["intersection"] is False
        assert any(
            cx["conclusion"] == {"a": ["X1"], "b": ["X2", "X3"], "c": []}
            for cx in report["counterexamples"]
        )


    def test_counterexamples_past_the_cap_are_counted(self, tmp_path, capsys):
        # two fully possible atoms over four variables: 60 intersection gaps
        space = build_space([(f"X{i}", ("0", "1")) for i in range(1, 5)])
        table = np.zeros((2,) * 4)
        table[0, 0, 0, 0] = table[1, 1, 1, 1] = 1.0
        path = tmp_path / "two_atoms.json"
        dump_distribution(Distribution(space, space.names, table), path)
        out_path = tmp_path / "report.json"
        assert main(["axioms", "--dist", str(path), "--conj", "prod",
                     "--relation", "noninteractivity", "--level", "graphoid",
                     "--json", str(out_path)]) == 1
        rel = enumerate_relation(load_distribution(path), ProductLike(),
                                 RelationKind.NON_INTERACTIVITY)
        report = is_graphoid(rel)
        assert len(report.counterexamples) == 60
        lines = capsys.readouterr().out.splitlines()
        assert lines[6:] == [f"  {cx}" for cx in report.counterexamples[:10]] + [
            "  ... and 50 more"]
        assert json.loads(out_path.read_text())["counterexamples"] == [
            counterexample_doc(cx) for cx in report.counterexamples]


class TestFuzz:
    def test_small_clean_run(self, capsys):
        code = main([
            "fuzz", "--trials", "8", "--seed", "100",
            "--conj", "min", "--conj", "prod",
        ])
        assert code == 0
        assert "8 trials" in capsys.readouterr().out

    def test_json_report(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = main([
            "fuzz", "--trials", "4", "--seed", "9", "--conj", "min",
            "--json", str(out_path),
        ])
        assert code == 0
        report, keys = report_keys(out_path)
        assert keys == EXPECTED_KEYS
        assert report["results"]["trials_run"] == 4

    def test_mined_gaps_past_the_cap_are_counted(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert main(["fuzz", "--trials", "300", "--grid", "2", "--json", str(out_path)]) == 0
        expected = fuzz_properties(FuzzConfig(trials=300, grid=2))
        assert len(expected.mined) == 48
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            "fuzz: 300 trials, 1800 relations checked, 48 intersection gaps mined"] + [
            f"  mined (trial {m.trial}, {m.conjunction}): {m.counterexample}"
            for m in expected.mined[:10]] + ["  ... and 38 more mined counterexamples"]
        assert json.loads(out_path.read_text())["results"] == {
            "trials_run": 300, "relations_checked": 1800, "failures": [],
            "mined": [{"trial": m.trial, "conjunction": m.conjunction,
                       "counterexample": counterexample_doc(m.counterexample)}
                      for m in expected.mined]}

    @pytest.mark.parametrize("out", [True, False])
    def test_violation_is_printed_and_reported(self, out, tmp_path, monkeypatch, capsys):
        # an independence relation without its mirror breaks symmetry
        broken = IndependenceRelation(SPACE3, frozenset({Triplet.of("X1", "X2", ())}))
        monkeypatch.setattr(graphoid, "_enumerate_relations", lambda dist, conjs, kinds, eps:
                            tuple((broken,) * len(kinds) for _ in conjs))
        out_path = tmp_path / "report.json"
        directory = tmp_path / "reproducers"
        argv = ["fuzz", "--trials", "3", "--seed", "4", "--conj", "prod", "--json", str(out_path)]
        assert main(argv + (["--out", str(directory)] if out else [])) == 1
        [failure] = fuzz_properties(FuzzConfig(trials=3, seed=4,
                                               conjunctions=(ProductLike(),))).failures
        assert failure.prop == "independence relation is a graphoid"
        assert failure.detail.startswith("symmetry: (X1 ; X2 | -) hold but")
        path = str(directory / "possind-reproducer-trial0-prod.json") if out else None
        assert capsys.readouterr().out.splitlines() == [
            "fuzz: 1 trials, 1 relations checked, 0 intersection gaps mined",
            "  VIOLATION trial 0 under prod:",
            f"    claim: {failure.prop}",
            f"    {failure.detail}",
        ] + ([f"    reproducer written to {path}"] if out else [])
        report = json.loads(out_path.read_text())
        assert report["verdict"] is False
        assert report["results"] == {
            "trials_run": 1, "relations_checked": 1, "mined": [],
            "failures": [{"trial": 0, "seed": 4, "conjunction": "prod", "property": failure.prop,
                          "detail": failure.detail, "reproducer": failure.reproducer,
                          "path": path}]}
        if out:
            assert json.loads(Path(path).read_text()) == failure.reproducer
        else:
            assert not directory.exists()

    def test_usage_error_on_bad_frame(self, capsys):
        assert main(["fuzz", "--trials", "1", "--frame", "0"]) == 2

    @pytest.mark.parametrize("grid", ["0", "-3"])
    def test_usage_error_on_bad_grid_even_without_trials(self, capsys, grid):
        assert main(["fuzz", "--trials", "0", "--grid", grid]) == 2
        assert f"grid must be >= 1, got {grid}" in capsys.readouterr().err

    def test_usage_error_on_grid_past_int64(self, capsys):
        # numpy cannot draw the grid steps as int64; its own message named
        # neither the option nor the bound
        assert main(["fuzz", "--trials", "0", "--grid", "99999999999999999999"]) == 2
        err = capsys.readouterr().err
        assert "grid must be <= 9223372036854775807, got 99999999999999999999" in err

    @pytest.mark.parametrize("variables", ["1", "0", "-2"])
    def test_usage_error_on_too_few_variables(self, capsys, variables):
        # every relation over fewer than two variables is empty
        assert main(["fuzz", "--trials", "3", "--vars", variables]) == 2
        assert "at least two variables" in capsys.readouterr().err

    def test_usage_error_on_negative_trials(self, capsys):
        assert main(["fuzz", "--trials", "-5"]) == 2
        assert "trials must be >= 0" in capsys.readouterr().err

    def test_huge_variable_count_exits_two_with_a_short_message(self, capsys):
        assert main(["fuzz", "--vars", "5000", "--trials", "0"]) == 2
        err = capsys.readouterr().err
        assert "5000 variables" in err and len(err) < 200

    def test_oversized_table_exits_two(self, capsys):
        # 100**8 cells would need 800 PB
        assert main(["fuzz", "--trials", "1", "--vars", "8", "--frame", "100"]) == 2
        assert "exceed the guard" in capsys.readouterr().err


class TestExamples:
    def test_all_builtin_checks_pass(self, capsys):
        assert main(["examples"]) == 0
        out = capsys.readouterr().out
        assert "15/15 checks passed" in out
        assert "FAIL" not in out


class TestErrorsAndDeterminism:
    @pytest.mark.parametrize("variables", [0, 1])
    @pytest.mark.parametrize("verb", [["enumerate"], ["axioms", "--level", "graphoid"]],
                             ids=["enumerate", "axioms"])
    def test_fewer_than_two_variables_exit_two(self, tmp_path, capsys, verb, variables):
        # no triplet has two nonempty parts there: refused, not a vacuous verdict
        doc = {"variables": [{"name": f"X{i + 1}", "frame": ["0", "1"]} for i in range(variables)],
               "values": [{"assignment": {f"X{i + 1}": "0" for i in range(variables)},
                           "possibility": 1}]}
        path = tmp_path / "small.json"
        path.write_text(json.dumps(doc))
        assert main([*verb, "--dist", str(path), "--conj", "min",
                     "--relation", "independence"]) == 2
        assert "at least two variables" in capsys.readouterr().err

    def test_missing_file_exits_two(self, capsys):
        assert main([
            "marginalize", "--dist", "/nonexistent/path.json", "--keep", "X1",
        ]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_conjunction_exits_two(self, one_sided_file, capsys):
        assert main([
            "condition", "--dist", one_sided_file,
            "--target", "X1", "--conj", "frank",
        ]) == 2

    def test_generator_power_below_the_bound_exits_two(self, one_sided_file, capsys):
        assert main([
            "independent", "--dist", one_sided_file, "--a", "X1", "--b", "X2",
            "--conj", "luka:pow=1e-16", "--relation", "independence",
        ]) == 2
        assert "generator power must be finite and at least 1e-06" in capsys.readouterr().err

    def test_negative_fuzz_seed_exits_two(self, capsys):
        assert main(["fuzz", "--trials", "2", "--seed", "-1"]) == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err

    def test_bad_relation_flag_exits_two(self, one_sided_file, capsys):
        assert main([
            "independent", "--dist", one_sided_file,
            "--a", "X1", "--b", "X2", "--conj", "min", "--relation", "weird",
        ]) == 2

    def test_missing_required_flag_exits_two(self, capsys):
        assert main(["marginalize", "--keep", "X1"]) == 2

    def test_unknown_variable_exits_two(self, one_sided_file, capsys):
        assert main([
            "marginalize", "--dist", one_sided_file, "--keep", "X9",
        ]) == 2

    def test_unknown_variables_are_named_alike_under_any_hash_seed(self, one_sided_file):
        # the first unknown name in sorted order, not in set iteration order
        hand_built = (
            "from possind import IndependenceRelation, Triplet, build_space, is_graphoid\n"
            "space = build_space([('X1', ('0', '1')), ('X2', ('0', '1'))])\n"
            "try:\n"
            "    is_graphoid(IndependenceRelation(space, frozenset(\n"
            "        {Triplet.of(('Q', 'R', 'S'), 'X2')})))\n"
            "except Exception as error:\n"
            "    print(type(error).__name__, error)\n")
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(Path(possind.__file__).parents[1]),
                       PYTHONHASHSEED=seed)
            run = subprocess.run(
                [sys.executable, "-m", "possind.cli", "independent", "--dist", one_sided_file,
                 "--a", "Q,R,S", "--b", "X2", "--conj", "min", "--relation", "independence"],
                capture_output=True, text=True, env=env, timeout=60)
            assert (run.returncode, run.stdout) == (2, "")
            assert run.stderr == "error: unknown variable 'Q'\n"
            run = subprocess.run([sys.executable, "-c", hand_built],
                                 capture_output=True, text=True, env=env, timeout=60)
            assert run.stdout == "BadTriplet unknown variable 'Q'\n"

    def test_invalid_document_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"variables": "nope"}')
        assert main(["marginalize", "--dist", str(path), "--keep", "X1"]) == 2
        # a 401-digit degree does not fit a float
        path.write_text('{"variables": [{"name": "X1", "frame": ["0"]}], "values": '
                        '[{"assignment": {"X1": "0"}, "possibility": 1' + "0" * 400 + "}]}")
        assert main(["marginalize", "--dist", str(path), "--keep", "X1"]) == 2
        assert "too large for a float" in capsys.readouterr().err

    def test_oversized_document_exits_two(self, tmp_path, capsys):
        # 2**50 cells would need 8 PiB
        path = tmp_path / "wide.json"
        doc = {"variables": [{"name": f"X{i}", "frame": ["0", "1"]} for i in range(50)],
               "values": []}
        path.write_text(json.dumps(doc))
        assert main(["marginalize", "--dist", str(path), "--keep", "X1"]) == 2
        assert "exceed the guard" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["nan", "inf", "-1"])
    def test_bad_eps_exits_two(self, one_sided_file, eps, capsys):
        verbs = [
            ["independent", "--dist", one_sided_file, "--a", "X1", "--b", "X2",
             "--conj", "min", "--relation", "independence"],
            ["enumerate", "--dist", one_sided_file, "--conj", "min",
             "--relation", "independence"],
            ["axioms", "--dist", one_sided_file, "--conj", "min",
             "--relation", "independence", "--level", "graphoid"],
            ["fuzz", "--trials", "1"],
            ["examples"],
        ]
        for argv in verbs:
            assert main(argv + ["--eps", eps]) == 2
            assert "eps must be a finite number >= 0" in capsys.readouterr().err

    def test_reports_are_deterministic_modulo_timing(self, one_sided_file, tmp_path, capsys):
        paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
        for path in paths:
            main([
                "independent", "--dist", one_sided_file,
                "--a", "X1", "--b", "X2", "--c", "X3",
                "--conj", "min", "--relation", "independence",
                "--json", str(path),
            ])
        reports = [json.loads(p.read_text()) for p in paths]
        for report in reports:
            report.pop("timing_ms")
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("target", ["missing/report.json", "."])
    def test_unwritable_report_path_exits_two(self, one_sided_file, tmp_path, target, capsys):
        code = main([
            "marginalize", "--dist", one_sided_file, "--keep", "X3",
            "--json", str(tmp_path / target),
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert "X3=0 -> 0.9" in captured.out
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", [
        ["marginalize", "--dist", "DIST", "--keep", "X3", "--json", ""],
        ["fuzz", "--trials", "0", "--out", ""],
    ], ids=["json", "out"])
    def test_an_empty_path_is_a_usage_error(self, one_sided_file, capsys, argv):
        # both used to be ignored: exit 0, with nothing written
        flag = argv[-2]
        assert main([one_sided_file if a == "DIST" else a for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: the path must not be empty" in captured.err

    @pytest.mark.parametrize("verb", [["enumerate"], ["axioms", "--level", "graphoid"]],
                             ids=["enumerate", "axioms"])
    def test_out_of_memory_exits_two(self, one_sided_file, monkeypatch, capsys, verb):
        # numpy raises a MemoryError subclass; nothing large is allocated here
        def exhausted(*args):
            raise MemoryError("Unable to allocate 745. GiB for an array")

        monkeypatch.setattr(cli, "enumerate_relation", exhausted)
        assert main([*verb, "--dist", one_sided_file, "--conj", "min",
                     "--relation", "independence"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: Unable to allocate 745. GiB for an array\n"

    def test_deeply_nested_document_exits_two(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200000 + "]" * 200000)
        assert main(["marginalize", "--dist", str(path), "--keep", "X1"]) == 2
        assert "nested too deeply" in capsys.readouterr().err

    def test_repeated_frame_value_exits_two(self, tmp_path, capsys):
        assert "DuplicateValue" in possind.__all__
        assert issubclass(possind.DuplicateValue, possind.PossindError)
        path = tmp_path / "repeat.json"
        path.write_text(json.dumps({"variables": [{"name": "X1", "frame": ["0", "0"]}]}))
        assert main(["marginalize", "--dist", str(path), "--keep", "X1"]) == 2
        assert "repeats a frame value" in capsys.readouterr().err


class TestParserReuse:
    def test_calls_in_one_process_match_a_fresh_process(self, one_sided_file, tmp_path, capsys):
        valid = ["independent", "--dist", one_sided_file, "--a", "X1", "--b", "X2",
                 "--c", "X3", "--conj", "min", "--relation", "independence"]
        assert main(["independent", "--dist", one_sided_file, "--a", "X1"]) == 2
        assert main(valid + ["--json", str(tmp_path / "first.json")]) == 1
        first_out = capsys.readouterr().out
        assert main(["--help"]) == 0
        assert main(["independent", "--help"]) == 0
        capsys.readouterr()
        assert main(valid + ["--json", str(tmp_path / "second.json")]) == 1
        assert capsys.readouterr().out == first_out

        env = dict(os.environ, PYTHONPATH=str(Path(possind.__file__).parents[1]))
        fresh = subprocess.run(
            [sys.executable, "-m", "possind.cli", *valid, "--json", str(tmp_path / "fresh.json")],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert fresh.returncode == 1
        assert fresh.stdout == first_out
        reports = [json.loads((tmp_path / f"{name}.json").read_text())
                   for name in ("first", "second", "fresh")]
        for report in reports:
            report.pop("timing_ms")
        assert reports[0] == reports[1] == reports[2]


def _plant_violation(monkeypatch):
    # an independence relation without its mirror breaks symmetry
    broken = IndependenceRelation(SPACE3, frozenset({Triplet.of("X1", "X2", ())}))
    monkeypatch.setattr(graphoid, "_enumerate_relations", lambda dist, conjs, kinds, eps:
                        tuple((broken,) * len(kinds) for _ in conjs))


def _plant_failing_example(monkeypatch):
    monkeypatch.setattr(cli, "run_worked_examples",
                        lambda eps: [CaseResult("held", True), CaseResult("planted", False, "x")])


_NO_CHECK = {"verdict": None, "witnesses": [], "counterexamples": []}
_RELATION = ["--conj", "prod", "--relation", "noninteractivity"]


class TestVerbContract:
    """Every verb's exit code is 1 exactly when its report's verdict is false, and
    a report field the verb does not set is empty or null."""

    @pytest.mark.parametrize("argv, plant, code, verdict, unset", [
        (["marginalize", "--dist", "one_sided", "--keep", "X1"], None, 0, None, _NO_CHECK),
        (["condition", "--dist", "one_sided", "--target", "X1", "--given", "X3",
          "--conj", "min"], None, 0, None, _NO_CHECK),
        (["enumerate", "--dist", "two_peak", *_RELATION], None, 0, None, _NO_CHECK),
        (["independent", "--dist", "uniform", "--a", "X1", "--b", "X2", "--c", "X3",
          "--conj", "min", "--relation", "independence"], None, 0, True,
         {"results": None, "witnesses": [], "counterexamples": []}),
        (["independent", "--dist", "one_sided", "--a", "X1", "--b", "X2", "--c", "X3",
          "--conj", "min", "--relation", "independence"], None, 1, False,
         {"results": None, "counterexamples": []}),
        (["axioms", "--dist", "two_peak", *_RELATION, "--level", "semigraphoid"], None, 0, True,
         {"witnesses": [], "counterexamples": []}),
        (["axioms", "--dist", "two_peak", *_RELATION, "--level", "graphoid"], None, 1, False,
         {"witnesses": []}),
        (["fuzz", "--trials", "4", "--seed", "9", "--conj", "min"], None, 0, True,
         {"witnesses": [], "counterexamples": []}),
        (["fuzz", "--trials", "3", "--seed", "4", "--conj", "prod"], _plant_violation, 1, False,
         {"witnesses": [], "counterexamples": []}),
        (["examples"], None, 0, True, {"witnesses": [], "counterexamples": []}),
        (["examples"], _plant_failing_example, 1, False, {"witnesses": [], "counterexamples": []}),
    ], ids=["marginalize", "condition", "enumerate", "independent-true", "independent-false",
            "axioms-true", "axioms-false", "fuzz-true", "fuzz-false", "examples-true",
            "examples-false"])
    def test_exit_code_follows_the_verdict(self, argv, plant, code, verdict, unset, request,
                                           monkeypatch, tmp_path, capsys):
        if plant:
            plant(monkeypatch)
        if "--dist" in argv:
            at = argv.index("--dist") + 1
            argv = [*argv[:at], request.getfixturevalue(f"{argv[at]}_file"), *argv[at + 1:]]
        out_path = tmp_path / "report.json"
        assert main(argv + ["--json", str(out_path)]) == code
        report, keys = report_keys(out_path)
        assert keys == EXPECTED_KEYS
        assert report["verdict"] is verdict
        assert {k: report[k] for k in unset} == unset
        for field in EXPECTED_KEYS - {"verb", "inputs", "timing_ms"} - set(unset):
            assert report[field] not in (None, []), field


@pytest.fixture
def odd_names_file(tmp_path):
    """Names and a frame value that look like the JSON writer's own syntax."""
    space = build_space([("a[%s]", ("é\0", "1")), ("b,c", ("0", "1")), ("X", ("0", "1"))])
    table = np.reshape([1, 0.2, 1, 0.2, 0.2, 1, 0.2, 1], (2, 2, 2))
    path = tmp_path / "odd_names.json"
    dump_distribution(Distribution(space, space.names, table), path)
    return str(path)


def assert_stdlib_layout(path):
    text = Path(path).read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


class TestReportLayout:
    """Every file the CLI writes is laid out as json.dumps(indent=2, sort_keys=True)."""

    @pytest.mark.parametrize("argv", [
        ["marginalize", "--dist", "odd_names", "--keep", "a[%s]"],
        ["condition", "--dist", "odd_names", "--target", "a[%s]", "--given", "X", "--conj", "luka"],
        ["independent", "--dist", "odd_names", "--a", "a[%s]", "--b", "X", "--conj", "min",
         "--relation", "independence"],
        ["enumerate", "--dist", "odd_names", "--conj", "min", "--relation", "independence"],
        ["axioms", "--dist", "two_peak", *_RELATION, "--level", "graphoid"],
        ["fuzz", "--trials", "300", "--grid", "2"],
        ["examples"],
    ], ids=lambda argv: argv[0])
    def test_reports(self, argv, request, odd_names_file, tmp_path, capsys):
        if "--dist" in argv:
            at = argv.index("--dist") + 1
            argv = [*argv[:at], request.getfixturevalue(f"{argv[at]}_file"), *argv[at + 1:]]
        out_path = tmp_path / "report.json"
        assert main(argv + ["--json", str(out_path)]) in (0, 1)
        report = json.loads(out_path.read_text())
        assert any(report[field] for field in ("results", "witnesses", "counterexamples"))
        assert_stdlib_layout(out_path)
        assert_stdlib_layout(odd_names_file)

    def test_fuzz_reproducer(self, monkeypatch, tmp_path, capsys):
        _plant_violation(monkeypatch)
        out_path = tmp_path / "report.json"
        assert main(["fuzz", "--trials", "3", "--seed", "4", "--conj", "prod",
                     "--out", str(tmp_path), "--json", str(out_path)]) == 1
        [reproducer] = tmp_path.glob("possind-reproducer-*.json")
        assert_stdlib_layout(reproducer)
        assert_stdlib_layout(out_path)


class TestReadmeCommandLine:
    def test_every_verb_and_option_is_documented(self):
        # README's command-line block: a verb's lines start at `possind <verb>`
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("## Command line\n\n```text\n", 1)[1].split("```", 1)[0]
        documented = {}
        for line in block.splitlines():
            if line.startswith("possind "):
                verb = line.split()[1]
                documented[verb] = ""
            documented[verb] += line + "\n"
        [verbs] = [a for a in cli._PARSER._actions if isinstance(a, argparse._SubParsersAction)]
        assert set(documented) == set(verbs.choices)
        for verb, sub in verbs.choices.items():
            for action in sub._actions:
                for option in action.option_strings:
                    if option not in ("-h", "--help"):
                        assert re.search(rf"{re.escape(option)}\b", documented[verb]), \
                            f"{verb} {option}"
