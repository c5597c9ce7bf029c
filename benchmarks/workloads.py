"""The four benchmark workloads.

Each workload is built from the possind package passed in and the
workload seed, in three steps:

* ``__init__`` is the set-up the benchmark times: it makes the seeded
  inputs (and, for ``cli``, writes the documents).
* ``prepare`` computes, with the reference code in ``oracle``, what every
  operation must return.  It is not timed.
* ``round`` yields one pass over the fixed list of operations.  Every run
  is a whole number of rounds, so every run times the same mix.

An operation is an ``Op``: ``call`` is the timed call into possind and
``check`` inspects its result.  ``check`` returns None when the result
is right, ``KNOWN_FAULT`` when the operation failed because of the
recorded fault it is there to show, and a message otherwise.  Inputs
that a round uses are rebuilt as fresh objects before each operation, so
possind's per-distribution memos never carry over from one round to
the next.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

KNOWN_FAULT = "known fault"
GRID = 10
INDEPENDENCE = "independence"
NONINTERACTIVITY = "noninteractivity"
KINDS = (INDEPENDENCE, NONINTERACTIVITY)


@dataclass
class Op:
    call: Callable
    check: Callable


def grid_table(rng, shape, lo: int = 0) -> np.ndarray:
    """Degrees drawn from {lo/10, ..., 1}, one cell forced to 1.

    With lo = 0 this is the draw of possind.random_distribution, so a seed
    gives the same table here as there."""
    vals = np.asarray(rng.integers(lo, GRID + 1, size=shape), dtype=float)
    vals /= GRID
    vals.flat[rng.integers(0, vals.size)] = 1.0
    return vals


def family_of(spec: str) -> tuple[str, float]:
    """("luka", 2.0) for "luka:pow=2"."""
    head, _, tail = spec.partition(":")
    return head, float(tail.partition("=")[2]) if tail else 1.0


def binary_space(pd, n: int):
    names = tuple(f"X{i + 1}" for i in range(n))
    return pd.build_space([(name, ("0", "1")) for name in names]), names


def to_triplet(pd, names, t):
    a, b, c = t
    return pd.Triplet(*(frozenset(names[i] for i in part) for part in (a, b, c)))


def from_triplet(names, t) -> tuple:
    axis = {name: i for i, name in enumerate(names)}
    return tuple(frozenset(axis[n] for n in part) for part in (t.a, t.b, t.c))


def check_witnesses(evidence, names, t) -> str | None:
    """Witnesses are empty exactly when the verdict holds, each differs by
    more than eps and binds exactly the triplet's variables."""
    if evidence.verdict == bool(evidence.witnesses):
        return f"verdict {evidence.verdict} with {len(evidence.witnesses)} witnesses"
    scope = {names[i] for part in t for i in part}
    for w in evidence.witnesses:
        if not abs(w.left - w.right) > oracle.EPS:
            return f"witness {w.assignment} does not differ: {w.left} vs {w.right}"
        if set(w.assignment) != scope:
            return f"witness binds {sorted(w.assignment)}, expected {sorted(scope)}"
    return None


class Query:
    """Single-triplet membership by the definition route, with witnesses.

    One operation answers in_independence then in_noninteractivity for
    one (table, conjunction, triplet).  Six seeded 4-variable tables with
    zeros each answer five triplets under five conjunctions, as an
    analyst's session would; a session starts from a fresh Distribution.
    The triplet shapes are fixed and the seed picks their variables, so
    every seed times the same mix of scope sizes.
    """

    name = "query"
    N_VARS = 4
    N_TABLES = 6
    SHAPES = ((1, 1, 0), (1, 1, 1), (1, 2, 0), (1, 1, 2), (2, 1, 1))
    CONJS = ("min", "luka", "luka:pow=2", "prod", "prod:pow=2")

    def __init__(self, pd, seed: int, workdir: Path):
        self.pd = pd
        rng = np.random.default_rng([seed, 0])
        self.space, self.names = binary_space(pd, self.N_VARS)
        self.tables = [grid_table(rng, (2,) * self.N_VARS) for _ in range(self.N_TABLES)]
        self.triplets = []
        for _ in self.tables:
            picked = []
            for sizes in self.SHAPES:
                axes = rng.permutation(self.N_VARS).tolist()
                cuts = np.cumsum(sizes)
                picked.append(tuple(frozenset(axes[lo:hi]) for lo, hi in zip((0, *cuts), cuts)))
            self.triplets.append(picked)
        self.conjs = [pd.parse_conjunction(spec) for spec in self.CONJS]

    def prepare(self) -> None:
        self.expected = {}
        for i, table in enumerate(self.tables):
            lattice = oracle.marginals(table)
            for spec in self.CONJS:
                family, power = family_of(spec)
                for t in self.triplets[i]:
                    self.expected[i, spec, t] = tuple(
                        oracle.closed_form(lattice, t, family, power, kind) for kind in KINDS
                    )

    def round(self):
        pd = self.pd
        for i, table in enumerate(self.tables):
            dist = pd.Distribution(self.space, self.names, table)
            for spec, conj in zip(self.CONJS, self.conjs):
                for t in self.triplets[i]:
                    pt = to_triplet(pd, self.names, t)

                    def call(dist=dist, pt=pt, conj=conj):
                        return (pd.in_independence(dist, pt, conj),
                                pd.in_noninteractivity(dist, pt, conj))

                    yield Op(call, lambda out, key=(i, spec, t): self._check(key, out))

    def _check(self, key, out):
        for kind, evidence, want in zip(KINDS, out, self.expected[key]):
            if evidence.verdict != want:
                return f"{kind} verdict {evidence.verdict} for {key}, closed form says {want}"
            problem = check_witnesses(evidence, self.names, key[2])
            if problem:
                return f"{kind} {key}: {problem}"
        return None


class Fuzz:
    """One fuzz_properties trial per operation, conjunctions min, prod, luka.

    Each round runs the same trials:

    * two fixed tables, random_distribution seeds 0 and 195, on which the
      recorded fault fires: fuzz_properties claims that the
      Lukasiewicz-like relations coincide, and they differ there by a
      clamp-gap triplet.  They fail in every run, whatever the seed.
    * six seeded tables in which X3 repeats X2, so no-interactivity under
      min and prod loses intersection and the trial mines gaps;
    * forty seeded random tables with zeros.

    luka goes last, so a failing trial has done all of a clean trial's
    work.  A seeded draw on which the recorded fault would fire is drawn
    again: it would fail on some seeds only, and the fixed tables
    already show the fault in every run.
    """

    name = "fuzz"
    CONJS = ("min", "prod", "luka")
    FAILING_SEEDS = (0, 195)
    N_LINKED = 6
    N_RANDOM = 40

    def __init__(self, pd, seed: int, workdir: Path):
        self.pd = pd
        self.space, self.names = binary_space(pd, 3)
        self.conjs = tuple(pd.parse_conjunction(spec) for spec in self.CONJS)
        self.rng = np.random.default_rng([seed, 1])
        self.draws = [self._linked] * self.N_LINKED + [self._random] * self.N_RANDOM
        self.tables = [grid_table(np.random.default_rng(s), (2, 2, 2)) for s in self.FAILING_SEEDS]
        self.tables += [draw() for draw in self.draws]
        self.redrawn = 0

    def _random(self) -> np.ndarray:
        return grid_table(self.rng, (2, 2, 2))

    def _linked(self) -> np.ndarray:
        pair = grid_table(self.rng, (2, 2), lo=1)
        table = np.zeros((2, 2, 2))
        for x2 in range(2):
            table[:, x2, x2] = pair[:, x2]
        return table

    def _expect(self, table):
        """Mined gaps and failing claims the reference computation predicts."""
        lattice = oracle.marginals(table)
        mined, claims, luka = [], [], None
        for spec in self.CONJS:
            family, power = family_of(spec)
            rel = {kind: oracle.relation(lattice, 3, family, power, kind) for kind in KINDS}
            if any(oracle.axiom_counterexamples(rel[INDEPENDENCE]).values()):
                claims.append(f"{spec} independence is not a graphoid")
            if family == "luka":
                luka = rel
                if rel[INDEPENDENCE] != rel[NONINTERACTIVITY]:
                    claims.append("luka relations differ")
                continue
            cx = oracle.axiom_counterexamples(rel[NONINTERACTIVITY])
            if any(cx[axiom] for axiom in ("symmetry", "decomposition", "weak_union", "contraction")):
                claims.append(f"{spec} no-interactivity is not a semigraphoid")
            mined += [(spec, premises, concl) for premises, concl in cx["intersection"]]
        return sorted(mined, key=repr), claims, luka

    def prepare(self) -> None:
        self.expected = []
        n_fixed = len(self.FAILING_SEEDS)
        for i, table in enumerate(self.tables):
            expected = self._expect(table)
            if i < n_fixed and expected[1] != ["luka relations differ"]:
                raise RuntimeError(f"fixed table {i} does not show the luka fault: {expected[1]}")
            while i >= n_fixed and expected[1]:
                self.redrawn += 1
                self.tables[i] = table = self.draws[i - n_fixed]()
                expected = self._expect(table)
            self.expected.append(expected)

    def round(self):
        pd = self.pd
        for i, table in enumerate(self.tables):
            dist = pd.Distribution(self.space, self.names, table)
            config = pd.FuzzConfig(trials=0, variables=3, conjunctions=self.conjs, inject=(dist,))
            yield Op(lambda config=config: pd.fuzz_properties(config),
                     lambda report, i=i: self._check(i, report))

    def _check(self, i, report):
        mined_want, _, luka = self.expected[i]
        mined = sorted(
            ((m.conjunction, tuple(from_triplet(self.names, t) for t in m.counterexample.premises),
              from_triplet(self.names, m.counterexample.conclusion))
             for m in report.mined if m.counterexample.axiom == "intersection"),
            key=repr,
        )
        if len(mined) != len(report.mined) or mined != mined_want:
            return f"trial {i}: mined {len(report.mined)} gaps, reference finds {len(mined_want)}"
        if report.trials_run != 1:
            return f"trial {i}: {report.trials_run} trials run"
        if not report.failures:
            return None
        if len(report.failures) > 1:
            return f"trial {i}: {len(report.failures)} failures"
        failure = report.failures[0]
        match = re.fullmatch(r"relations differ at \((.*) ; (.*) \| (.*)\)", failure.detail)
        if failure.conjunction != "luka" or "coincide" not in failure.prop or not match:
            return f"trial {i}: unexpected failure {failure.conjunction}: {failure.prop}: {failure.detail}"
        axis = {name: k for k, name in enumerate(self.names)}
        gap = tuple(frozenset(axis[n] for n in part.split(",") if n != "-") for part in match.groups())
        if gap not in luka[NONINTERACTIVITY] or gap in luka[INDEPENDENCE]:
            return f"trial {i}: luka failure at {failure.detail} is not a clamp-gap triplet"
        doc = failure.reproducer
        cells = np.zeros((2, 2, 2))
        for row in doc["values"]:
            cells[tuple(int(row["assignment"][n]) for n in self.names)] = row["possibility"]
        if doc["conjunction"] != "luka" or not np.array_equal(cells, self.tables[i]):
            return f"trial {i}: reproducer does not hold the trial's table"
        return KNOWN_FAULT


class Dense:
    """Whole relations on 6 binary variables, then the five axiom checks.

    One operation is enumerate_relation followed by is_graphoid for one
    (table, conjunction, kind) of a fixed list.  The tables are the
    all-ones table and tables built as the min or product of factors
    over disjoint blocks; the seed permutes each factor's values, and
    the block structure fixes the relation sizes (2702, 1350, 1350, 722
    and a few small ones), so the cost of a round does not depend on the
    seed.
    """

    name = "dense"
    N_VARS = 6
    BLOCKS = {
        "min3x2": ("min", ((0, 1), (2, 3), (4, 5))),
        "prod3x2": ("prod", ((0, 1), (2, 3), (4, 5))),
        "prod2x3": ("prod", ((0, 1, 2), (3, 4, 5))),
    }
    FACTOR_VALUES = {4: (1.0, 0.8, 0.5, 0.3), 8: (1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3)}
    OPS = (
        ("ones", "luka", NONINTERACTIVITY),
        ("min3x2", "min", NONINTERACTIVITY),
        ("prod3x2", "prod", INDEPENDENCE),
        ("prod3x2", "prod", NONINTERACTIVITY),
        ("prod2x3", "prod:pow=2", NONINTERACTIVITY),
        ("min3x2", "luka", INDEPENDENCE),
        ("prod2x3", "min", INDEPENDENCE),
    )

    def __init__(self, pd, seed: int, workdir: Path):
        self.pd = pd
        rng = np.random.default_rng([seed, 2])
        self.space, self.names = binary_space(pd, self.N_VARS)
        shape = (2,) * self.N_VARS
        self.tables = {"ones": np.ones(shape)}
        for name, (combine, blocks) in self.BLOCKS.items():
            table = np.ones(shape)
            for block in blocks:
                factor = rng.permutation(self.FACTOR_VALUES[2 ** len(block)])
                factor = factor.reshape([2 if i in block else 1 for i in range(self.N_VARS)])
                table = np.minimum(table, factor) if combine == "min" else table * factor
            self.tables[name] = table
        self.conjs = {spec: pd.parse_conjunction(spec) for _, spec, _ in self.OPS}

    def prepare(self) -> None:
        self.expected = {}
        for table_name, spec, kind in self.OPS:
            lattice = oracle.marginals(self.tables[table_name])
            family, power = family_of(spec)
            rel = {k: oracle.relation(lattice, self.N_VARS, family, power, k) for k in KINDS}
            self.expected[table_name, spec, kind] = (rel, oracle.axiom_counterexamples(rel[kind]))

    def round(self):
        pd = self.pd
        for key in self.OPS:
            table_name, spec, kind = key
            dist = pd.Distribution(self.space, self.names, self.tables[table_name])

            def call(dist=dist, conj=self.conjs[spec], kind=pd.RelationKind(kind)):
                rel = pd.enumerate_relation(dist, conj, kind)
                return rel, pd.is_graphoid(rel)

            yield Op(call, lambda out, key=key: self._check(key, out))

    def _check(self, key, out):
        table_name, spec, kind = key
        rel, report = out
        rels, cx_want = self.expected[key]
        members = {from_triplet(self.names, t) for t in rel.members}
        if members != rels[kind]:
            return (f"{key}: {len(members - rels[kind])} extra and "
                    f"{len(rels[kind] - members)} missing members")
        if table_name == "ones" and (len(rel) != len(oracle.triplets(self.N_VARS)) or not report.holds):
            return f"{key}: the all-ones table gives {len(rel)} members, graphoid {report.holds}"
        # independence is a subset of no-interactivity, in every family
        if kind == INDEPENDENCE and not members <= rels[NONINTERACTIVITY]:
            return f"{key}: independence members outside no-interactivity"
        if kind == NONINTERACTIVITY and not rels[INDEPENDENCE] <= members:
            return f"{key}: independence triplets missing from no-interactivity"
        verdicts = {axiom: not cx for axiom, cx in cx_want.items()}
        if dict(report.verdicts) != verdicts:
            return f"{key}: axiom verdicts {dict(report.verdicts)}, reference {verdicts}"
        got = [(cx.axiom, tuple(from_triplet(self.names, t) for t in cx.premises),
                from_triplet(self.names, cx.conclusion)) for cx in report.counterexamples]
        for axiom, premises, conclusion in got:
            if not all(p in members for p in premises) or conclusion in members:
                return f"{key}: {axiom} counterexample with premises outside or conclusion inside"
        want = {(axiom, p, c) for axiom, cx in cx_want.items() for p, c in cx}
        if len(got) != len(want) or set(got) != want:
            return f"{key}: {len(got)} counterexamples, reference finds {len(want)}"
        return None


class Cli:
    """In-process possind.cli.main calls with --json reports.

    Set-up writes four seeded distribution documents of 288 cells each
    (five variables with frames of 3, 4, 3, 2 and 4 values; zero cells
    omitted, as users write them).  Each round runs the same eight verbs
    on every document: two marginalizations, two conditionings and four
    membership tests.  Stdout and stderr are captured.  Exit code 1 from
    `independent` is an answer, not a failure.
    """

    name = "cli"
    FRAMES = (3, 4, 3, 2, 4)
    N_DOCS = 4
    VERBS = (
        ("marginalize", "--keep", "X1,X3"),
        ("marginalize", "--keep", "X2,X4,X5"),
        ("condition", "--target", "X1", "--given", "X2,X3", "--conj", "luka"),
        ("condition", "--target", "X2,X5", "--given", "X4", "--conj", "prod:pow=2"),
        ("independent", "--a", "X1", "--b", "X2", "--c", "X3", "--conj", "min",
         "--relation", "independence"),
        ("independent", "--a", "X1", "--b", "X4", "--c", "X5", "--conj", "prod",
         "--relation", "noninteractivity"),
        ("independent", "--a", "X2", "--b", "X3", "--conj", "luka",
         "--relation", "noninteractivity"),
        ("independent", "--a", "X3,X4", "--b", "X5", "--c", "X1", "--conj", "luka:pow=2",
         "--relation", "independence"),
    )

    def __init__(self, pd, seed: int, workdir: Path):
        self.pd = pd
        self.workdir = workdir
        self.names = tuple(f"X{i + 1}" for i in range(len(self.FRAMES)))
        rng = np.random.default_rng([seed, 3])
        self.tables, self.docs = [], []
        for d in range(self.N_DOCS):
            table = grid_table(rng, self.FRAMES)
            path = workdir / f"dist{d}.json"
            path.write_text(json.dumps(self.document(table), indent=2) + "\n", encoding="utf-8")
            self.tables.append(table)
            self.docs.append(path)
        self.cli = importlib.import_module(pd.__name__ + ".cli")

    def document(self, table) -> dict:
        variables = [{"name": n, "frame": [f"v{k}" for k in range(size)]}
                     for n, size in zip(self.names, self.FRAMES)]
        values = [{"assignment": {n: f"v{k}" for n, k in zip(self.names, idx)},
                   "possibility": float(table[idx])}
                  for idx in np.ndindex(table.shape) if table[idx] != 0.0]
        return {"variables": variables, "values": values}

    def _axes(self, text: str) -> frozenset:
        return frozenset(self.names.index(n) for n in text.split(",") if n)

    def prepare(self) -> None:
        self.expected = {}
        for d, table in enumerate(self.tables):
            lattice = oracle.marginals(table)
            for v, verb in enumerate(self.VERBS):
                opt = dict(zip(verb[1::2], verb[2::2]))
                if verb[0] == "marginalize":
                    want = lattice[self._axes(opt["--keep"])]
                elif verb[0] == "condition":
                    target, given = self._axes(opt["--target"]), self._axes(opt["--given"])
                    want = oracle.residuum(*family_of(opt["--conj"]),
                                           lattice[given], lattice[target | given])
                else:
                    t = tuple(self._axes(opt.get(k, "")) for k in ("--a", "--b", "--c"))
                    want = oracle.closed_form(lattice, t, *family_of(opt["--conj"]), opt["--relation"])
                self.expected[d, v] = want

    def round(self):
        for d, doc in enumerate(self.docs):
            for v, verb in enumerate(self.VERBS):
                report = self.workdir / f"report{d}-{v}.json"
                argv = [verb[0], "--dist", str(doc), *verb[1:], "--json", str(report)]

                def call(argv=argv):
                    with contextlib.redirect_stdout(io.StringIO()) as out, \
                            contextlib.redirect_stderr(io.StringIO()) as err:
                        code = self.cli.main(argv)
                    return code, out.getvalue(), err.getvalue()

                yield Op(call, lambda out, key=(d, v), report=report: self._check(key, out, report))

    def _table(self, doc) -> tuple[tuple, np.ndarray]:
        names = tuple(var["name"] for var in doc["variables"])
        axes = tuple(self.names.index(n) for n in names)
        out = np.zeros([self.FRAMES[a] if a in axes else 1 for a in range(len(self.names))])
        for row in doc["values"]:
            idx = [0] * len(self.names)
            for n, a in zip(names, axes):
                idx[a] = int(row["assignment"][n][1:])
            out[tuple(idx)] = row["possibility"]
        return axes, out

    def _check(self, key, out, report_path):
        code, stdout, stderr = out
        verb = self.VERBS[key[1]]
        want = self.expected[key]
        if code not in (0, 1) or (code == 1 and verb[0] != "independent"):
            return f"{key} {verb[0]} exited {code}: {stderr.strip()}"
        if not stdout:
            return f"{key} {verb[0]} printed nothing"
        report = json.loads(report_path.read_text(encoding="utf-8"))
        if verb[0] == "independent":
            if (code == 0) != want or report["verdict"] != want:
                return f"{key} verdict {report['verdict']} exit {code}, closed form says {want}"
            if want == bool(report["witnesses"]):
                return f"{key} verdict {want} with {len(report['witnesses'])} witnesses"
            return None
        axes, table = self._table(report["results"]["distribution"])
        if list(axes) != sorted(axes) or table.shape != want.shape:
            return f"{key} {verb[0]} returned scope {axes}"
        if not np.allclose(table, want, rtol=0.0, atol=oracle.EPS):
            return f"{key} {verb[0]} table differs from the reference by {np.max(np.abs(table - want))}"
        return None


WORKLOADS = {w.name: w for w in (Query, Fuzz, Dense, Cli)}
