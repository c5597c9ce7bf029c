"""Axiom checking for independence relations and a randomized property harness.

The five axioms (symmetry, decomposition, weak union, contraction,
intersection) are checked purely set-theoretically: every premise pattern
is instantiated exhaustively over the relation's members and each
instance whose conclusion triplet is absent becomes a counterexample.  A
semigraphoid satisfies the first four, a graphoid all five.  Members are
encoded once as bitmasks over the sorted names, and second premises are
found by lookup: contraction by (a, c), intersection per submask of c.

The fuzzer draws random grid-valued distributions, induces independence
and no-interactivity relations under the configured conjunctions, and
checks the axiom level each relation is claimed to satisfy, and that
Lukasiewicz-like independence lies inside no-interactivity.  Violations
of a claimed property abort the run with a serialized reproducer;
intersection gaps of no-interactivity under min and product conjunctions
are expected and are collected as mined counterexamples instead.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

from .conjunction import Conjunction, LukasiewiczLike, default_families
from .core import (  # noqa: F401  (IndependenceRelation and enumerate_triplets
    EPS,            # are part of this module's surface)
    Distribution,
    IndependenceRelation,
    Space,
    Triplet,
    build_space,
    check_eps,
    enumerate_triplets,
    masks,
    triplet_count,
)
from .independence import RelationKind, _check_relation_guard, enumerate_relation
from .serialize import reproducer_document

import numpy as np

SEMIGRAPHOID_AXIOMS = ("symmetry", "decomposition", "weak_union", "contraction")
GRAPHOID_AXIOMS = SEMIGRAPHOID_AXIOMS + ("intersection",)
AXIOMS = GRAPHOID_AXIOMS


@dataclass(frozen=True)
class Counterexample:
    """An axiom instance whose conclusion is missing from the relation."""

    axiom: str
    premises: tuple[Triplet, ...]
    conclusion: Triplet

    def __str__(self) -> str:
        prem = " and ".join(str(t) for t in self.premises)
        return f"{self.axiom}: {prem} hold but {self.conclusion} is missing"


@dataclass
class AxiomReport:
    """Per-axiom verdicts with the full counterexample list."""

    verdicts: dict
    counterexamples: tuple[Counterexample, ...]

    @property
    def holds(self) -> bool:
        return all(self.verdicts.values())

    def failing(self) -> tuple[str, ...]:
        return tuple(name for name, ok in self.verdicts.items() if not ok)


def _submasks(m: int) -> Iterator[int]:
    """Nonempty submasks of `m`, fewest bits first, then by bit positions."""
    bits = [1 << i for i in range(m.bit_length()) if m >> i & 1]
    return (sum(k) for r in range(1, len(bits) + 1) for k in itertools.combinations(bits, r))


def _symmetry(members, rank):
    for a, b, c in members:
        yield (b, a, c), (a, b, c)


def _decomposition(members, rank):
    for a, b, c in members:
        for kept in _submasks(b):
            yield (a, kept, c), (a, b, c)


def _weak_union(members, rank):
    for a, b, c in members:
        for kept in _submasks(b):
            yield (a, kept, c | b & ~kept), (a, b, c)


def _contraction(members, rank):
    by_ac = {}
    for a, b, c in members:
        by_ac.setdefault((a, c), []).append(b)
    for a, b, d in members:  # (a, b | d) and (a, c | b ∪ d) give (a, b ∪ c | d)
        for c in by_ac.get((a, b | d), ()):
            yield (a, b | c, d), (a, b, d), (a, c, b | d)


def _intersection(members, rank):
    for a, b, cd in members:  # (a, b | c ∪ d) and (a, c | b ∪ d) give (a, b ∪ c | d)
        seconds = [rank[t] for c in _submasks(cd) if (t := (a, c, b | cd & ~c)) in rank]
        for r in sorted(seconds):  # second premises in sort_key order
            c = members[r][1]
            yield (a, b | c, cd & ~c), (a, b, cd), members[r]


# Each check yields (conclusion, *premises) mask triplets for every instance
# of its axiom, given the members' masks in sort_key order and their ranks.
_AXIOM_CHECKS = {
    "symmetry": _symmetry,
    "decomposition": _decomposition,
    "weak_union": _weak_union,
    "contraction": _contraction,
    "intersection": _intersection,
}


def check_axiom(rel: IndependenceRelation, axiom: str) -> AxiomReport:
    """Check one axiom exhaustively over the relation's members."""
    if axiom not in _AXIOM_CHECKS:
        raise ValueError(f"unknown axiom {axiom!r}, expected one of {AXIOMS}")
    return _check_axioms(rel, (axiom,))


def _check_axioms(rel, axioms) -> AxiomReport:
    # bits in sorted-name order make _submasks follow sort_key
    triplets = rel.sorted_members
    order = tuple(sorted({n for t in triplets for n in t.a | t.b | t.c}))
    members = [masks(order, t.a, t.b, t.c) for t in triplets]
    rank = {m: i for i, m in enumerate(members)}
    found = {
        axiom: [Counterexample(axiom, tuple(triplets[rank[p]] for p in premises),
                               Triplet.from_masks(order, *conclusion))
                for conclusion, *premises in _AXIOM_CHECKS[axiom](members, rank)
                if conclusion not in rank]
        for axiom in axioms
    }
    return AxiomReport({axiom: not cx for axiom, cx in found.items()},
                       tuple(cx for cxs in found.values() for cx in cxs))


def is_semigraphoid(rel: IndependenceRelation) -> AxiomReport:
    """Symmetry, decomposition, weak union and contraction."""
    return _check_axioms(rel, SEMIGRAPHOID_AXIOMS)


def is_graphoid(rel: IndependenceRelation) -> AxiomReport:
    """All five axioms, intersection included."""
    return _check_axioms(rel, GRAPHOID_AXIOMS)


def random_distribution(
    space: Space, grid: int = 10, strictly_positive: bool = False, seed: int = 0
) -> Distribution:
    """A grid-valued distribution over the whole space, one entry forced to 1.

    Values are drawn uniformly from {k/grid}; strictly positive draws skip
    k = 0.  Deterministic for a fixed seed.
    """
    if grid < 1:
        raise ValueError("grid must be >= 1")
    rng = np.random.default_rng(seed)
    lo = 1 if strictly_positive else 0
    vals = np.asarray(rng.integers(lo, grid + 1, size=space.shape(space.names)), dtype=float)
    vals /= grid
    vals.flat[rng.integers(0, vals.size)] = 1.0
    return Distribution(space, space.names, vals)


@dataclass
class FuzzConfig:
    """Configuration of a fuzzing run.  Trial i uses seed `seed + i`."""

    trials: int = 1000
    variables: int = 3
    frame_size: int = 2
    grid: int = 10
    seed: int = 0
    strictly_positive: bool = False
    conjunctions: tuple[Conjunction, ...] = field(default_factory=default_families)
    eps: float = EPS
    reproducer_dir: Optional[Path] = None
    inject: tuple[Distribution, ...] = ()


@dataclass
class FuzzFailure:
    """A violated property claim, with enough context to replay it."""

    trial: int
    seed: Optional[int]
    conjunction: str
    prop: str
    detail: str
    reproducer: dict
    path: Optional[str] = None


@dataclass(frozen=True)
class MinedCounterexample:
    """An expected intersection gap of a no-interactivity relation."""

    trial: int
    conjunction: str
    counterexample: Counterexample


@dataclass
class FuzzReport:
    trials_run: int
    relations_checked: int
    failures: list
    mined: list

    @property
    def ok(self) -> bool:
        return not self.failures


def _fuzz_space(config: FuzzConfig) -> Space:
    frame = [str(v) for v in range(config.frame_size)]
    return build_space([(f"X{i + 1}", frame) for i in range(config.variables)])


def _trial_stream(config: FuzzConfig, space: Space):
    trial = 0
    for dist in config.inject:
        yield trial, dist, None
        trial += 1
    for i in range(config.trials):
        yield trial, random_distribution(
            space, config.grid, config.strictly_positive, seed=config.seed + i
        ), config.seed + i
        trial += 1


def _write_reproducer(config, failure: FuzzFailure) -> None:
    if config.reproducer_dir is None:
        return
    directory = Path(config.reproducer_dir)
    directory.mkdir(parents=True, exist_ok=True)
    safe = failure.conjunction.replace(":", "-").replace("=", "-")
    path = directory / f"possind-reproducer-trial{failure.trial}-{safe}.json"
    path.write_text(json.dumps(failure.reproducer, indent=2, sort_keys=True) + "\n")
    failure.path = str(path)


def fuzz_properties(config: FuzzConfig) -> FuzzReport:
    """Check the claimed axiom level of induced relations on random trials.

    Per trial and conjunction: the independence relation must be a
    graphoid; under Lukasiewicz-like conjunctions it must be contained in
    the no-interactivity relation (which is strictly wider on tables where
    the conjunction clamps to 0, see characterize_luka_ni); under min and
    product conjunctions
    the no-interactivity relation must be a semigraphoid, and its
    intersection gaps are mined.  The first violation aborts the run,
    serializing the offending distribution as a reproducer.
    """
    check_eps(config.eps)
    _check_relation_guard(config.variables)
    space = _fuzz_space(config)
    failures: list[FuzzFailure] = []
    mined: list[MinedCounterexample] = []
    trials_run = 0
    relations = 0

    def fail(trial, seed, dist, conj, prop, detail) -> FuzzFailure:
        doc = reproducer_document(dist, conj, seed, trial=trial, property=prop)
        failure = FuzzFailure(trial, seed, conj.spec_string(), prop, detail, doc)
        _write_reproducer(config, failure)
        failures.append(failure)
        return failure

    for trial, dist, seed in _trial_stream(config, space):
        trials_run += 1
        for conj in config.conjunctions:
            i_rel = enumerate_relation(dist, conj, RelationKind.INDEPENDENCE, config.eps)
            relations += 1
            report = is_graphoid(i_rel)
            if not report.holds:
                fail(
                    trial, seed, dist, conj,
                    "independence relation is a graphoid",
                    str(report.counterexamples[0]),
                )
                return FuzzReport(trials_run, relations, failures, mined)

            ni_rel = enumerate_relation(dist, conj, RelationKind.NON_INTERACTIVITY, config.eps)
            relations += 1
            if isinstance(conj, LukasiewiczLike):
                missing = next((t for t in i_rel if t not in ni_rel), None)
                if missing is not None:
                    fail(
                        trial, seed, dist, conj,
                        "independence is contained in no-interactivity under "
                        "lukasiewicz-like conjunctions",
                        f"independence member {missing} is not in no-interactivity",
                    )
                    return FuzzReport(trials_run, relations, failures, mined)
            else:
                report = is_graphoid(ni_rel)
                if not all(report.verdicts[axiom] for axiom in SEMIGRAPHOID_AXIOMS):
                    fail(
                        trial, seed, dist, conj,
                        "no-interactivity relation is a semigraphoid",
                        str(report.counterexamples[0]),
                    )
                    return FuzzReport(trials_run, relations, failures, mined)
                mined.extend(
                    MinedCounterexample(trial, conj.spec_string(), cx)
                    for cx in report.counterexamples if cx.axiom == "intersection"
                )

    return FuzzReport(trials_run, relations, failures, mined)
