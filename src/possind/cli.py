"""Command-line front end.

Every verb is a thin wrapper over the library: verdicts always equal the
corresponding library calls.  Each `_cmd_*` handler prints its answer and
returns a dict of only the report fields it sets; `main` fills the rest
(`verdict` and `results` null, `witnesses` and `counterexamples` empty)
and alone derives the exit code: 1 when the verdict is false (a check
answered false or a violation found), else 0, and 2 for usage and input
errors.  With --json PATH a machine-readable report is written; its
fields are deterministic for identical inputs except `timing_ms`.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import asdict

from .cases import run_worked_examples
from .conjunction import parse_conjunction
from .core import EPS, Triplet
from .errors import PossindError
from .graphoid import FuzzConfig, fuzz_properties, is_graphoid, is_semigraphoid
from .independence import (
    RelationKind,
    condition,
    enumerate_relation,
    in_independence,
    in_noninteractivity,
)
from .serialize import distribution_document, load_distribution, write_json

_PRINT_CAP = 10  # stdout truncation; JSON reports always carry everything


def _names(text: str) -> tuple[str, ...]:
    return tuple(n for n in (part.strip() for part in text.split(",")) if n)


def _path(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("the path must not be empty")
    return text


def _triplet_doc(t: Triplet) -> dict:
    return {"a": sorted(t.a), "b": sorted(t.b), "c": sorted(t.c)}


def _witness_doc(w) -> dict:
    return {"assignment": w.assignment, "left": w.left, "right": w.right}


def _counterexample_doc(cx) -> dict:
    return {
        "axiom": cx.axiom,
        "premises": [_triplet_doc(t) for t in cx.premises],
        "conclusion": _triplet_doc(cx.conclusion),
    }


def _fmt_assignment(space, assignment: dict) -> str:
    return " ".join(f"{n}={assignment[n]}" for n in space.names if n in assignment)


def _print_table(dist) -> None:
    for assignment, value in dist.items():
        label = _fmt_assignment(dist.space, assignment) or "(empty scope)"
        print(f"  {label} -> {value:g}")


def _print_capped(items, line, more: str) -> None:
    """Print `line(item)` for the first _PRINT_CAP items, then how many are left."""
    for item in items[:_PRINT_CAP]:
        print(f"  {line(item)}")
    if len(items) > _PRINT_CAP:
        print(f"  ... and {len(items) - _PRINT_CAP}{more}")


def _relation(args):
    dist = load_distribution(args.dist)  # before --conj, so a missing file is reported first
    conj = parse_conjunction(args.conj)
    kind = RelationKind(args.relation)
    return kind, conj, enumerate_relation(dist, conj, kind, args.eps)


def _cmd_marginalize(args):
    dist = load_distribution(args.dist)
    out = dist.marginalize(_names(args.keep))
    print(f"marginal on {{{', '.join(out.scope)}}}:")
    _print_table(out)
    return {"results": {"distribution": distribution_document(out)}}


def _cmd_condition(args):
    dist = load_distribution(args.dist)
    conj = parse_conjunction(args.conj)
    out = condition(dist, _names(args.target), _names(args.given), conj)
    given = ", ".join(_names(args.given)) or "nothing"
    print(f"conditional of {{{', '.join(_names(args.target))}}} given {given} under {conj}:")
    _print_table(out)
    return {"results": {"distribution": distribution_document(out)}}


def _cmd_independent(args):
    dist = load_distribution(args.dist)
    conj = parse_conjunction(args.conj)
    kind = RelationKind(args.relation)
    test = in_independence if kind is RelationKind.INDEPENDENCE else in_noninteractivity
    t = Triplet.of(_names(args.a), _names(args.b), _names(args.c))
    evidence = test(dist, t, conj, args.eps)
    state = "is" if evidence.verdict else "is not"
    print(f"{t} {state} in the {kind.value} relation under {conj}")
    _print_capped(
        evidence.witnesses,
        lambda w: (f"at {_fmt_assignment(dist.space, w.assignment)}: "
                   f"left={w.left:g} right={w.right:g}"),
        " more witnesses",
    )
    witnesses = [_witness_doc(w) for w in evidence.witnesses]
    return {"verdict": evidence.verdict, "witnesses": witnesses}


def _cmd_enumerate(args):
    kind, conj, rel = _relation(args)
    print(f"{len(rel)} triplets in the {kind.value} relation under {conj}:")
    for t in rel:
        print(f"  {t}")
    return {"results": {"count": len(rel), "members": [_triplet_doc(t) for t in rel]}}


def _cmd_axioms(args):
    kind, conj, rel = _relation(args)
    report = is_graphoid(rel) if args.level == "graphoid" else is_semigraphoid(rel)
    print(
        f"{kind.value} relation under {conj}: {len(rel)} triplets, "
        f"{args.level} {'holds' if report.holds else 'fails'}"
    )
    for axiom, ok in report.verdicts.items():
        print(f"  {axiom}: {'ok' if ok else 'violated'}")
    _print_capped(report.counterexamples, str, " more")
    return {
        "verdict": report.holds,
        "results": {
            "relation_size": len(rel), "level": args.level, "verdicts": dict(report.verdicts)
        },
        "counterexamples": [_counterexample_doc(cx) for cx in report.counterexamples],
    }


def _cmd_fuzz(args):
    # without --conj, FuzzConfig's default families apply
    families = {"conjunctions": tuple(map(parse_conjunction, args.conj))} if args.conj else {}
    config = FuzzConfig(
        trials=args.trials,
        variables=args.vars,
        frame_size=args.frame,
        grid=args.grid,
        seed=args.seed,
        strictly_positive=args.positive,
        eps=args.eps,
        reproducer_dir=args.out,
        **families,
    )
    report = fuzz_properties(config)
    print(
        f"fuzz: {report.trials_run} trials, {report.relations_checked} relations checked, "
        f"{len(report.mined)} intersection gaps mined"
    )
    for failure in report.failures:
        print(f"  VIOLATION trial {failure.trial} under {failure.conjunction}:")
        print(f"    claim: {failure.prop}")
        print(f"    {failure.detail}")
        if failure.path:
            print(f"    reproducer written to {failure.path}")
    _print_capped(
        report.mined,
        lambda m: f"mined (trial {m.trial}, {m.conjunction}): {m.counterexample}",
        " more mined counterexamples",
    )
    results = {
        "trials_run": report.trials_run,
        "relations_checked": report.relations_checked,
        "failures": [{"property": f.pop("prop"), **f} for f in map(asdict, report.failures)],
        "mined": [
            {"trial": m.trial, "conjunction": m.conjunction,
             "counterexample": _counterexample_doc(m.counterexample)}
            for m in report.mined
        ],
    }
    return {"verdict": report.ok, "results": results}


def _cmd_examples(args):
    results = run_worked_examples(args.eps)
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        detail = f" ({r.detail})" if r.detail and not r.passed else ""
        print(f"{mark} {r.name}{detail}")
    print(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    checks = [asdict(r) for r in results]
    return {"verdict": all(r.passed for r in results), "results": {"checks": checks}}


def _add_common(sub, *, dist=False, conj=False, relation=False, eps=True):
    if dist:
        sub.add_argument("--dist", required=True, help="distribution JSON file")
    if conj:
        sub.add_argument(
            "--conj", required=True,
            help="conjunction: min | luka[:pow=<p>] | prod[:pow=<p>]",
        )
    if relation:
        sub.add_argument(
            "--relation", required=True, choices=["independence", "noninteractivity"]
        )
    if eps:
        sub.add_argument("--eps", type=float, default=EPS, help="comparison tolerance")
    sub.add_argument("--json", type=_path, help="write a machine-readable report to this path")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="possind",
        description="Possibilistic conditional independence queries over finite variable sets.",
    )
    verbs = parser.add_subparsers(dest="verb", required=True)

    sub = verbs.add_parser("marginalize", help="max-project a distribution onto a subset")
    sub.add_argument("--keep", required=True, help="comma-separated variable names")
    _add_common(sub, dist=True, eps=False)
    sub.set_defaults(handler=_cmd_marginalize)

    sub = verbs.add_parser("condition", help="condition a distribution through a conjunction")
    sub.add_argument("--target", required=True, help="variables to describe")
    sub.add_argument("--given", default="", help="variables to condition on (default none)")
    _add_common(sub, dist=True, conj=True, eps=False)
    sub.set_defaults(handler=_cmd_condition)

    sub = verbs.add_parser("independent", help="test one triplet for membership")
    sub.add_argument("--a", required=True, help="first variable set")
    sub.add_argument("--b", required=True, help="second variable set")
    sub.add_argument("--c", default="", help="conditioning set (default empty)")
    _add_common(sub, dist=True, conj=True, relation=True)
    sub.set_defaults(handler=_cmd_independent)

    sub = verbs.add_parser("enumerate", help="list every triplet in the induced relation")
    _add_common(sub, dist=True, conj=True, relation=True)
    sub.set_defaults(handler=_cmd_enumerate)

    sub = verbs.add_parser("axioms", help="check the induced relation's axiom level")
    sub.add_argument("--level", required=True, choices=["semigraphoid", "graphoid"])
    _add_common(sub, dist=True, conj=True, relation=True)
    sub.set_defaults(handler=_cmd_axioms)

    sub = verbs.add_parser("fuzz", help="randomized property harness")
    sub.add_argument("--vars", type=int, default=3, help="number of variables")
    sub.add_argument("--frame", type=int, default=2, help="frame size per variable")
    sub.add_argument("--trials", type=int, default=1000)
    sub.add_argument("--grid", type=int, default=10, help="degree grid resolution")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--positive", action="store_true", help="draw strictly positive tables")
    sub.add_argument(
        "--conj", action="append",
        help="conjunction spec; repeatable (default: min, luka, prod)",
    )
    sub.add_argument("--out", type=_path, help="directory for reproducer files (default: none)")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_fuzz)

    sub = verbs.add_parser("examples", help="replay the built-in worked regressions")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_examples)

    return parser


#: Built once per process; each parse_args call returns a fresh Namespace.
_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 0 if code in (0, None) else 2

    started = time.perf_counter()
    fields = {"verdict": None, "results": None, "witnesses": [], "counterexamples": []}
    try:
        fields.update(args.handler(args))
        if args.json:
            inputs = {k: v for k, v in sorted(vars(args).items())
                      if k not in ("handler", "json") and v is not None}
            report = {
                "verb": args.verb,
                "inputs": inputs,
                **fields,
                "timing_ms": int(round((time.perf_counter() - started) * 1000)),
            }
            write_json(report, args.json)
    except (PossindError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if fields["verdict"] is False else 0


if __name__ == "__main__":
    sys.exit(main())
