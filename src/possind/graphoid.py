"""Axiom checking for independence relations and a randomized property harness.

The five axioms (symmetry, decomposition, weak union, contraction,
intersection) are checked purely set-theoretically: every premise pattern
is instantiated exhaustively over the relation's members and each
instance whose conclusion triplet is absent becomes a counterexample.  A
semigraphoid satisfies the first four, a graphoid all five.

The checks run on the relation's encoding: the (a, b, c) bitmasks of its
members over their sorted names, as rows of an int64 array in sort_key
order.  All instances of an axiom are produced at once by array
operations: the splits of b or c, one popcount at a time; contraction's
second premises by an equal-key join on (a, c); membership by binary
search over codes of two bits per name, so a relation may name at most
core.ENCODED_NAMES variables.  Only instances whose conclusion is missing
become Counterexample objects.  They are listed by the first premise's
rank, then by the split's position (fewest names first, then by sorted
names) or the second premise's rank, as a loop over the members in
sort_key order would find them.

The fuzzer draws random grid-valued distributions, induces independence
and no-interactivity relations under the configured conjunctions, and
checks the axiom level each relation is claimed to satisfy, and that
Lukasiewicz-like independence lies inside no-interactivity.  Violations
of a claimed property abort the run with a serialized reproducer;
intersection gaps of no-interactivity under min and product conjunctions
are expected and are collected as mined counterexamples instead.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .conjunction import Conjunction, LukasiewiczLike, default_families
from .core import (
    EPS,
    Distribution,
    IndependenceRelation,
    Space,
    Triplet,
    build_space,
    check_eps,
    triplets_from_masks,
)
from .errors import TooSmall
from .independence import RelationKind, _check_relation_guard, enumerate_relation
from .serialize import reproducer_document, write_json

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


@functools.cache
def _choices(width: int) -> tuple[np.ndarray, int]:
    """(picks, S): the (width, S) 0/1 columns picking the S nonempty
    subsets of `width` bits, fewest bits first, then in lexicographic
    order of bit positions."""
    picks = [[int(i in k) for i in range(width)]
             for r in range(1, width + 1) for k in itertools.combinations(range(width), r)]
    return np.array(picks, dtype=np.int64).T, len(picks)


_NONE = np.zeros(0, np.int64)


class _Rows:
    """The members' (a, b, c) mask columns in sort_key order, over n names."""

    def __init__(self, rows: np.ndarray, n: int):
        self.rows = rows
        self.a, self.b, self.c = rows.T
        self.n = n
        codes = self.code(self.a, self.b, self.c)
        self.sorter = codes.argsort()
        self.codes = codes[self.sorter]

    def code(self, a, b, c):
        """Two bits per name: in a or c, in b or c."""
        return a | c | (b | c) << self.n

    def parts(self, code):
        """The (a, b, c) masks of codes."""
        low, high = code & (1 << self.n) - 1, code >> self.n
        return low & ~high, high & ~low, low & high

    def rank_of(self, code) -> np.ndarray:
        """Each coded triplet's rank among the members, -1 for a non-member."""
        at = np.minimum(self.codes.searchsorted(code), len(self.codes) - 1)
        return np.where(self.codes[at] == code, self.sorter[at], -1)

    @functools.cached_property
    def splits(self) -> dict:
        """{"b": (owner, kept, pos), "c": ...}: each nonempty submask `kept`
        of the b or c mask of member `owner`, pos numbering an owner's
        submasks in _choices order.  Masks of one popcount share their
        _choices."""
        bits = self.rows.T[1:, :, None] >> np.arange(self.n) & 1
        width = bits.sum(axis=2)
        found = [(_NONE,) * 4]
        for w in set(width.ravel().tolist()) - {0}:
            part, owner = (width == w).nonzero()
            picks, subsets = _choices(w)
            kept = (1 << bits[part, owner].nonzero()[1].reshape(-1, w)) @ picks
            found.append((part.repeat(subsets), owner.repeat(subsets), kept.ravel(),
                          np.arange(kept.size) % subsets))
        part, *columns = map(np.concatenate, zip(*found))
        return {name: [column[part == i] for column in columns] for i, name in enumerate("bc")}


# Each check returns every instance of its axiom as the columns (first
# premise's rank, second premise's rank, tiebreak, conclusion's code); an
# axiom with one premise repeats the first.  Instances are listed by
# the first premise's rank, then by the tiebreak: the position of the
# split among the submasks of b, or the second premise's rank.

def _symmetry(m: _Rows):
    first = np.arange(len(m.a))
    return first, first, first, m.code(m.b, m.a, m.c)


def _decomposition(m: _Rows):
    first, kept, pos = m.splits["b"]
    return first, first, pos, m.code(m.a[first], kept, m.c[first])


def _weak_union(m: _Rows):
    first, kept, pos = m.splits["b"]
    return first, first, pos, m.code(m.a[first], kept, m.c[first] | m.b[first] & ~kept)


def _contraction(m: _Rows):
    # (a, b | d) and (a, c | b ∪ d) give (a, b ∪ c | d): an equal-key join
    # of each member's (a, b ∪ d) with the members' (a, c)
    keys = m.a | m.c << m.n
    order = keys.argsort()
    keys = keys[order]
    wanted = m.a | (m.b | m.c) << m.n
    lo = keys.searchsorted(wanted, "left")
    count = keys.searchsorted(wanted, "right") - lo
    first = np.arange(len(m.a)).repeat(count)
    second = order[(lo - count.cumsum() + count).repeat(count) + np.arange(len(first))]
    return first, second, second, m.code(m.a[first], m.b[first] | m.b[second], m.c[first])


def _intersection(m: _Rows):
    # (a, b | c ∪ d) and (a, c | b ∪ d) give (a, b ∪ c | d), for every
    # nonempty c inside the first premise's condition
    first, moved, _ = m.splits["c"]
    rest = m.c[first] & ~moved
    second = m.rank_of(m.code(m.a[first], moved, m.b[first] | rest))
    held = second >= 0
    first, moved, rest, second = first[held], moved[held], rest[held], second[held]
    return first, second, second, m.code(m.a[first], m.b[first] | moved, rest)


# each axiom's check and its number of premises
_AXIOM_CHECKS = {
    "symmetry": (_symmetry, 1),
    "decomposition": (_decomposition, 1),
    "weak_union": (_weak_union, 1),
    "contraction": (_contraction, 2),
    "intersection": (_intersection, 2),
}


def check_axiom(rel: IndependenceRelation, axiom: str) -> AxiomReport:
    """Check one axiom exhaustively over the relation's members."""
    if axiom not in _AXIOM_CHECKS:
        raise ValueError(f"unknown axiom {axiom!r}, expected one of {AXIOMS}")
    return _check_axioms(rel, (axiom,))


def _check_axioms(rel, axioms) -> AxiomReport:
    found = {axiom: [] for axiom in axioms}
    if rel.members:
        names, rows, members = rel._encoding
        m = _Rows(rows, len(names))
        first, second, tiebreak, code = zip(*(_AXIOM_CHECKS[axiom][0](m) for axiom in axioms))
        code = np.concatenate(code)
        # one lookup for the conclusions of every axiom
        missing = (m.rank_of(code) < 0).nonzero()[0]
        if missing.size:
            of_axiom = np.arange(len(axioms)).repeat([len(column) for column in first])[missing]
            first, second, tiebreak = (np.concatenate(column)[missing]
                                       for column in (first, second, tiebreak))
            order = np.lexsort((tiebreak, first, of_axiom))
            parts = (part[order].tolist() for part in m.parts(code[missing]))
            concluded = triplets_from_masks(names, list(zip(*parts)))
            for k, f, r, t in zip(of_axiom[order].tolist(), first[order].tolist(),
                                  second[order].tolist(), concluded):
                premises = (members[f], members[r])[:_AXIOM_CHECKS[axioms[k]][1]]
                found[axioms[k]].append(Counterexample(axioms[k], premises, t))
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
    write_json(failure.reproducer, path)
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
    if config.variables < 2:
        raise TooSmall("fuzzing needs at least two variables")
    if config.trials < 0:
        raise ValueError(f"trials must be >= 0, got {config.trials}")
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
