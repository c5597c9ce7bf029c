"""Axiom checking for independence relations and a randomized property harness.

The five axioms (symmetry, decomposition, weak union, contraction,
intersection) are checked purely set-theoretically: every premise pattern
is instantiated exhaustively over the relation's members and each
instance whose conclusion triplet is absent becomes a counterexample.  A
semigraphoid satisfies the first four, a graphoid all five.

The checks run on the relation's encoding: the (a, b, c) bitmasks of its
members over their sorted names, as rows of an int64 array in sort_key
order.  All instances of an axiom are produced at once by array
operations: the splits of each distinct b or c mask, one popcount at a
time; contraction's second premises by an equal-key join on (a, c);
membership by codes of two bits per name (so at most core.ENCODED_NAMES
names).  While the codes span at most _TABLE_PER_MEMBER per member,
tables indexed by code, join key or mask hold the members' ranks, each
key's count and which masks occur; else sorting and binary search stand
in for them.  Any list of relations is checked in one pass: their rows
are stacked, and each code and join key carries the relation's id in
the bits above the code bits, so nothing matches across relations;
where the ids would not fit in 63 bits, the list is halved.  Only
instances whose conclusion is missing become Counterexample objects,
each relation's listed by first premise, then by split (fewest names
first, then by sorted names) or second premise, as a loop over the
members in sort_key order would find them.

The fuzzer draws random grid-valued distributions, induces independence
and no-interactivity relations under the configured conjunctions, and
checks the axiom level each relation is claimed to satisfy, and that
Lukasiewicz-like independence lies inside no-interactivity.  A trial
enumerates the relations of all its conjunctions in one pass and checks
their axioms in another, then walks the claims in order.  Violations
of a claimed property abort the run with a serialized reproducer;
intersection gaps of no-interactivity under min and product conjunctions
are expected and are collected as mined counterexamples instead.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
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
    check_count,
    check_eps,
    check_shape,
    triplets_from_masks,
)
from .errors import TooSmall
from .independence import RelationKind, _check_relation_guard, _enumerate_relations
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
def _choices(width: int) -> np.ndarray:
    """The (width, 2^width - 1) 0/1 columns picking the nonempty subsets
    of `width` bits, fewest bits first, then in lexicographic order of
    bit positions."""
    picks = [[int(i in k) for i in range(width)]
             for r in range(1, width + 1) for k in itertools.combinations(range(width), r)]
    picks = np.array(picks, dtype=np.int64).T
    picks.setflags(write=False)  # shared by every check of this width
    return picks


_TABLE_PER_MEMBER = 64


class _Rows:
    """The (a, b, c) mask columns of the members of one or more relations
    over n names, each relation's in sort_key order and the relations in
    turn.  Column a carries each row's relation id rel in the bits above
    2n, so every code and join key built from a member's a does too, and
    none matches across relations.  Codes lie below the relation count
    << 2n; while that span is at most _TABLE_PER_MEMBER codes per member,
    a table indexed by code holds the ranks, else the sorted codes do."""

    def __init__(self, rows: np.ndarray, n: int, rel: np.ndarray):
        self.rows = rows
        self.n = n
        self.tag = rel << 2 * n
        a, self.b, self.c = rows.T
        self.a = a | self.tag
        codes = self.code(self.a, self.b, self.c)
        span = int(rel[-1]) + 1 << 2 * n
        self.table = np.full(span, -1) if span <= _TABLE_PER_MEMBER * len(rows) else None
        if self.table is not None:
            self.table[codes] = np.arange(len(rows))
        else:
            self.sorter = codes.argsort()
            self.codes = codes[self.sorter]

    def code(self, a, b, c):
        """Two bits per name: in a or c, in b or c."""
        return a | c | (b | c) << self.n

    def parts(self, code):
        """The (a, b, c) masks of codes, as the rows of a (K, 3) array."""
        ones = (1 << self.n) - 1
        low, high = code & ones, code >> self.n & ones
        return np.stack((low & ~high, high & ~low, low & high), axis=1)

    def rank_of(self, code) -> np.ndarray:
        """Each coded triplet's rank among the members, -1 for a non-member:
        one gather from the rank table where there is one, else a binary search."""
        if self.table is not None:
            return self.table[code]
        at = np.minimum(self.codes.searchsorted(code), len(self.codes) - 1)
        return np.where(self.codes[at] == code, self.sorter[at], -1)

    @functools.cached_property
    def splits(self) -> dict:
        """{"b": (owner, kept, pos), "c": ...}: each nonempty submask `kept`
        of the b or c mask of member `owner`, pos numbering an owner's
        submasks in _choices order.  The submasks of each distinct mask are
        found once, those of one popcount from one _choices, and gathered.
        With a rank table, which bounds 2^n, a presence table finds the masks."""
        masks = self.rows.T[1:].ravel()
        if self.table is not None:
            present = np.zeros(1 << self.n, bool)
            present[masks] = True
            distinct, slot = present.nonzero()[0], (present.cumsum() - 1)[masks]
        else:
            distinct, slot = np.unique(masks, return_inverse=True)
        bits = distinct[:, None] >> np.arange(self.n) & 1
        width = bits.sum(axis=1)
        by_width = width.argsort()  # the distinct masks, grouped by popcount
        inverse = by_width.argsort()[slot]
        width, count = width[by_width], (1 << width[by_width]) - 1
        places, subs, lo = bits[by_width].nonzero()[1], [], 0
        for w, k in enumerate(np.bincount(width).tolist()):
            if w and k:  # the k masks of popcount w, one slice of places
                subs.append(((1 << places[lo:lo + k * w].reshape(k, w)) @ _choices(w)).ravel())
                lo += k * w
        many = count[inverse]  # each row's b mask, then each row's c mask
        ends, at = many.cumsum(), np.arange(len(many)).repeat(many)
        pos = np.arange(len(at)) - (ends - many)[at]
        kept = np.concatenate(subs)[(count.cumsum() - count)[inverse][at] + pos]
        owner, cut = at % len(self.rows), ends[len(self.rows) - 1]
        return dict(b=(owner[:cut], kept[:cut], pos[:cut]), c=(owner[cut:], kept[cut:], pos[cut:]))


# Each check returns every instance of its axiom as the columns (first
# premise's rank, second premise's rank, tiebreak, conclusion's code); an
# axiom with one premise repeats the first.  Instances are listed by
# the first premise's rank, then by the tiebreak: the position of the
# split among the submasks of b, or the second premise's rank.

def _symmetry(m: _Rows):
    first = np.arange(len(m.a))
    return first, first, first, m.code(m.b | m.tag, m.a ^ m.tag, m.c)


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
    wanted = m.a | (m.b | m.c) << m.n
    if m.table is not None:  # the keys lie below the codes' span: count them per key
        per_key = np.bincount(keys, minlength=len(m.table))
        count = per_key[wanted]
        lo = per_key.cumsum()[wanted] - count
    else:
        keys = keys[order]
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
    return _check_axioms((rel,), (axiom,))[0]


def _check_axioms(rels, axioms) -> list[AxiomReport]:
    """The AxiomReport on `axioms` of each relation of `rels`, from one
    pass over the non-empty ones.  A relation's id takes the bits above
    twice the widest name count, and where those would pass 63 bits the
    relations are halved, each half its own pass; one relation always
    fits."""
    live = [i for i, r in enumerate(rels) if len(r)]
    n = max((len(rels[i]._encoding[0]) for i in live), default=0)
    if 2 * n + (len(live) - 1).bit_length() > 63:
        half = len(rels) // 2
        return _check_axioms(rels[:half], axioms) + _check_axioms(rels[half:], axioms)
    reports = [AxiomReport(dict.fromkeys(axioms, True), ()) for _ in rels]
    if not live:
        return reports
    names, rows = zip(*(rels[i]._encoding for i in live))
    rel = np.arange(len(rows)).repeat([len(r) for r in rows])
    m = _Rows(np.concatenate(rows), n, rel)
    first, second, tiebreak, code = zip(*(_AXIOM_CHECKS[axiom][0](m) for axiom in axioms))
    code = np.concatenate(code)
    # one lookup for the conclusions of every axiom
    missing = (m.rank_of(code) < 0).nonzero()[0]
    if not missing.size:
        return reports
    of_axiom = np.arange(len(axioms)).repeat([len(column) for column in first])[missing]
    first, second, tiebreak = (np.concatenate(column)[missing]
                               for column in (first, second, tiebreak))
    order = np.lexsort((tiebreak, first, of_axiom, rel[first]))
    ends = rel[first][order].searchsorted(np.arange(len(rows) + 1)).tolist()
    of_axiom, *found = (column[order].tolist() for column in (
        of_axiom, m.rows[first], m.rows[second], m.parts(code[missing])))
    # each relation's counterexamples are one slice, decoded over its own names
    for i, own, lo, hi in zip(live, names, ends, ends[1:]):
        if lo < hi:
            failing = set(of_axiom[lo:hi])
            reports[i] = AxiomReport(
                {axiom: k not in failing for k, axiom in enumerate(axioms)},
                tuple(Counterexample(axioms[k], (f, s)[:_AXIOM_CHECKS[axioms[k]][1]], t)
                      for k, f, s, t in zip(of_axiom[lo:hi], *(
                          triplets_from_masks(own, masks[lo:hi]) for masks in found))))
    return reports


def is_semigraphoid(rel: IndependenceRelation) -> AxiomReport:
    """Symmetry, decomposition, weak union and contraction."""
    return _check_axioms((rel,), SEMIGRAPHOID_AXIOMS)[0]


def is_graphoid(rel: IndependenceRelation) -> AxiomReport:
    """All five axioms, intersection included."""
    return _check_axioms((rel,), GRAPHOID_AXIOMS)[0]


def random_distribution(
    space: Space, grid: int = 10, strictly_positive: bool = False, seed: int = 0
) -> Distribution:
    """A grid-valued distribution over the whole space, one entry forced to 1.

    Values are drawn uniformly from {k/grid}; strictly positive draws skip
    k = 0.  Deterministic for a fixed seed.
    """
    grid = check_count(grid, "grid", 1)
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


def _trial_stream(config: FuzzConfig):
    """Each trial's (dist, seed): the injected tables with seed None, then the drawn ones."""
    frame = [str(v) for v in range(config.frame_size)]
    space = build_space([(f"X{i + 1}", frame) for i in range(config.variables)])
    for dist in config.inject:
        yield dist, None
    for seed in range(config.seed, config.seed + config.trials):
        yield random_distribution(space, config.grid, config.strictly_positive, seed=seed), seed


def _write_reproducer(config, failure: FuzzFailure) -> None:
    if config.reproducer_dir is None:
        return
    directory = Path(config.reproducer_dir)
    directory.mkdir(parents=True, exist_ok=True)
    safe = re.sub(r"[^A-Za-z0-9._-]", "-", failure.conjunction)
    path = directory / f"possind-reproducer-trial{failure.trial}-{safe}.json"
    write_json(failure.reproducer, path)
    failure.path = str(path)


def _claim_checks(dist, conjs, eps):
    """Yield (conj, broken, gaps) for each claim on `dist` under each
    conjunction of `conjs` in turn: broken is the (property, detail) of
    the claim it breaks, or None, and gaps the intersection gaps of a
    semigraphoid no-interactivity relation, which come with its claim,
    each conjunction's last.  Every relation is enumerated in one pass
    and every relation a claim is about is axiom-checked in one pass
    before the first claim is yielded."""
    relations = _enumerate_relations(dist, conjs, tuple(RelationKind), eps)
    reports = iter(_check_axioms(
        [rel for conj, (i_rel, ni_rel) in zip(conjs, relations)
         for rel in ((i_rel,) if isinstance(conj, LukasiewiczLike) else (i_rel, ni_rel))],
        GRAPHOID_AXIOMS))
    for conj, (i_rel, ni_rel) in zip(conjs, relations):
        report = next(reports)
        yield conj, None if report.holds else (
            "independence relation is a graphoid", str(report.counterexamples[0])), ()
        if isinstance(conj, LukasiewiczLike):
            missing = next((t for t in i_rel if t not in ni_rel), None)
            yield conj, None if missing is None else (
                "independence is contained in no-interactivity under lukasiewicz-like conjunctions",
                f"independence member {missing} is not in no-interactivity"), ()
            continue
        report = next(reports)
        if not all(report.verdicts[axiom] for axiom in SEMIGRAPHOID_AXIOMS):
            yield conj, ("no-interactivity relation is a semigraphoid",
                         str(report.counterexamples[0])), ()
        else:
            yield conj, None, [cx for cx in report.counterexamples if cx.axiom == "intersection"]


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

    Each trial makes one enumeration pass for all conjunctions and one
    axiom pass over every relation a claim is about (see _claim_checks),
    before it walks the claims conjunction by conjunction.  So an
    OutOfRange raised while enumerating a later conjunction wins over a
    claim that an earlier one breaks.
    """
    check_eps(config.eps)
    if check_count(config.variables, "variables", -math.inf) < 2:
        raise TooSmall("fuzzing needs at least two variables")
    trials = check_count(config.trials, "trials", 0)
    check_count(config.seed, "seed", 0, math.inf)  # any seed numpy takes
    check_count(config.grid, "grid", 1)
    if not config.conjunctions:
        raise ValueError("conjunctions must not be empty")
    _check_relation_guard(config.variables)
    # the drawn tables' size, before any frame value is built; an empty frame is _trial_stream's
    frame_size = max(check_count(config.frame_size, "frame_size", -math.inf), 0)
    check_shape((frame_size,) * config.variables)
    mined: list[MinedCounterexample] = []
    relations = 0
    for trial, (dist, seed) in enumerate(_trial_stream(config)):
        for conj, broken, gaps in _claim_checks(dist, config.conjunctions, config.eps):
            relations += 1
            if broken is not None:
                prop, detail = broken
                doc = reproducer_document(dist, conj, seed, trial=trial, property=prop)
                failure = FuzzFailure(trial, seed, conj.spec_string(), prop, detail, doc)
                _write_reproducer(config, failure)
                return FuzzReport(trial + 1, relations, [failure], mined)
            mined.extend(MinedCounterexample(trial, conj.spec_string(), cx) for cx in gaps)

    return FuzzReport(len(config.inject) + trials, relations, [], mined)
