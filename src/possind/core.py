"""Finite variable spaces and dense possibility distributions.

A :class:`Space` fixes an ordered list of variables, each with a finite
frame of symbolic values.  A :class:`Distribution` assigns a possibility
degree in [0, 1] to every joint assignment of some subset of the
variables (its scope).  Tables are dense, with axes in space order, so
flattening in C order enumerates assignments with the last-listed
variable varying fastest.  All objects are immutable after construction
and every operation is a pure function of its inputs.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import (
    BadTriplet,
    DuplicateValue,
    DuplicateVariable,
    EmptyFrame,
    OutOfRange,
    ScopeMismatch,
    SpaceMismatch,
    TooLarge,
    TooSmall,
)

#: Default tolerance for pointwise comparisons.  Min and Lukasiewicz
#: arithmetic on grid-valued tables is exact; the slack only absorbs
#: rounding from the product family and from non-identity generators.
EPS = 1e-9

#: Dense tables refuse more cells than this (80 MB of float64 degrees).
TABLE_GUARD = 10**7

#: A relation's encoding holds at most this many names: the axiom checks
#: look members up by int64 codes of two bits per name.
ENCODED_NAMES = 31


def check_eps(eps: float) -> None:
    """Raise ValueError unless `eps` is a finite tolerance >= 0."""
    if not (np.isfinite(eps) and eps >= 0.0):
        raise ValueError(f"eps must be a finite number >= 0, got {eps}")


def masks(order: tuple[str, ...], *parts) -> tuple[int, ...]:
    """Bitmask of each part over `order`, bit i standing for order[i]."""
    return tuple(sum(1 << order.index(n) for n in part) for part in parts)


def _as_names(names) -> tuple[str, ...]:
    if isinstance(names, str):
        return (names,)
    return tuple(names)


class Space:
    """Ordered finite variables, each with a finite frame of distinct values."""

    def __init__(self, variables: Iterable[tuple[str, Iterable[str]]]):
        names: list[str] = []
        frames: dict[str, tuple[str, ...]] = {}
        for name, frame in variables:
            if name in frames:
                raise DuplicateVariable(f"variable {name!r} declared twice")
            values = tuple(frame)
            if not values:
                raise EmptyFrame(f"variable {name!r} has an empty frame")
            if len(set(values)) != len(values):
                raise DuplicateValue(f"variable {name!r} repeats a frame value")
            names.append(name)
            frames[name] = values
        self._names = tuple(names)
        self._frames = frames
        self._axis = {n: i for i, n in enumerate(self._names)}
        self._value_pos = {n: {v: i for i, v in enumerate(f)} for n, f in frames.items()}

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    @property
    def variables(self) -> tuple[tuple[str, tuple[str, ...]], ...]:
        return tuple((n, self._frames[n]) for n in self._names)

    def frame(self, name: str) -> tuple[str, ...]:
        try:
            return self._frames[name]
        except KeyError:
            raise ScopeMismatch(f"unknown variable {name!r}") from None

    def subset(self, names) -> tuple[str, ...]:
        """Canonicalize a set of variable names to a tuple in space order."""
        wanted = set()
        for n in _as_names(names):
            if n not in self._axis:
                raise ScopeMismatch(f"unknown variable {n!r}")
            wanted.add(n)
        return tuple(n for n in self._names if n in wanted)

    def shape(self, scope) -> tuple[int, ...]:
        """Dense table shape over `scope`; TooLarge past TABLE_GUARD cells."""
        shape = tuple(len(self._frames[n]) for n in scope)
        if math.prod(shape) > TABLE_GUARD:
            raise TooLarge(f"{math.prod(shape)} table cells exceed the guard of {TABLE_GUARD}")
        return shape

    def indices(self, assignment: Mapping[str, str], scope) -> tuple[int, ...]:
        """Table index of an assignment that binds exactly the scope."""
        if set(assignment) != set(scope):
            raise ScopeMismatch(
                f"assignment binds {sorted(assignment)}, expected exactly {sorted(scope)}"
            )
        idx = []
        for n in scope:
            pos = self._value_pos[n].get(assignment[n])
            if pos is None:
                raise ScopeMismatch(f"{assignment[n]!r} is not in the frame of {n!r}")
            idx.append(pos)
        return tuple(idx)

    def assignment_at(self, scope, idx: tuple[int, ...]) -> dict[str, str]:
        return {n: self._frames[n][i] for n, i in zip(scope, idx)}

    def assignments(self, scope=None) -> Iterator[dict[str, str]]:
        """All joint assignments of `scope`, last variable fastest."""
        if scope is None:
            scope = self._names
        frames = [self._frames[n] for n in scope]
        for combo in itertools.product(*frames):
            yield dict(zip(scope, combo))

    def __eq__(self, other) -> bool:
        return isinstance(other, Space) and self.variables == other.variables

    def __hash__(self) -> int:
        return hash(self.variables)

    def __len__(self) -> int:
        return len(self._names)

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}:{len(f)}" for n, f in self.variables)
        return f"Space({inner})"


def build_space(variables: Iterable[tuple[str, Iterable[str]]]) -> Space:
    """Build a space from (name, frame) pairs; names must be distinct."""
    return Space(variables)


class Distribution:
    """Dense table of possibility degrees over the joint frames of a scope.

    `normalised` is true when some entry equals 1 exactly.  Marginals are
    memoised per instance; every entry is a pure function of the read-only
    table, so a race can only recompute an entry.
    """

    def __init__(self, space: Space, scope, table):
        scope = space.subset(scope)
        arr = np.array(table, dtype=float)
        expected = space.shape(scope)
        if arr.shape != expected:
            raise ScopeMismatch(
                f"table shape {arr.shape} does not match scope shape {expected}"
            )
        if not np.all((arr >= 0.0) & (arr <= 1.0)):
            raise OutOfRange("possibility degrees must lie in [0, 1]")
        arr.setflags(write=False)
        self.space = space
        self.scope = scope
        self.table = arr
        self.normalised = bool(arr.max() == 1.0)
        self._lattice: dict[int, np.ndarray] = {(1 << len(scope)) - 1: arr}

    def _marginal(self, mask: int) -> np.ndarray:
        """Lattice entry: the keepdims max-marginal onto `mask` (bit i is
        scope[i]), taken from a one-larger superset."""
        out = self._lattice.get(mask)
        if out is None:
            missing = [i for i in range(len(self.scope)) if not mask >> i & 1]
            # reduce one axis of a cached one-larger superset if there is one
            axis = next((i for i in missing if mask | 1 << i in self._lattice), missing[0])
            superset = self._marginal(mask | 1 << axis)
            out = self._lattice[mask] = superset.max(axis=axis, keepdims=True)
        return out

    def marginalize(self, keep) -> "Distribution":
        """Max-project onto `keep`; keep must be a subset of the scope."""
        keep = self.space.subset(keep)
        if not set(keep) <= set(self.scope):
            raise ScopeMismatch(f"{keep} is not a subset of scope {self.scope}")
        table = self._marginal(*masks(self.scope, keep)).reshape(self.space.shape(keep))
        return Distribution(self.space, keep, table)

    def extend(self, to) -> "Distribution":
        """Cylindrical extension: lift onto a superset scope, ignoring added variables."""
        to = self.space.subset(to)
        if not set(self.scope) <= set(to):
            raise ScopeMismatch(f"{to} is not a superset of scope {self.scope}")
        if to == self.scope:
            return self
        have = set(self.scope)
        indexer = tuple(slice(None) if n in have else None for n in to)
        view = np.broadcast_to(self.table[indexer], self.space.shape(to))
        return Distribution(self.space, to, view)

    def equal_within(self, other: "Distribution", eps: float = EPS) -> bool:
        """Pointwise equality within eps, compared on the union of scopes."""
        check_eps(eps)
        if not isinstance(other, Distribution) or self.space != other.space:
            raise SpaceMismatch("distributions live on different spaces")
        union = self.space.subset(set(self.scope) | set(other.scope))
        a = self.extend(union).table
        b = other.extend(union).table
        return bool(np.max(np.abs(a - b), initial=0.0) <= eps)

    def measure(self, event: Iterable[Mapping[str, str]]) -> float:
        """Possibility of an event: max degree over its assignments, 0 if empty."""
        best = 0.0
        for assignment in event:
            best = max(best, self.at(assignment))
        return best

    def at(self, assignment: Mapping[str, str]) -> float:
        return float(self.table[self.space.indices(assignment, self.scope)])

    def items(self) -> Iterator[tuple[dict[str, str], float]]:
        """(assignment, degree) pairs in mixed-radix order."""
        for idx in np.ndindex(self.table.shape):
            yield self.space.assignment_at(self.scope, idx), float(self.table[idx])

    def __repr__(self) -> str:
        return f"Distribution(scope={self.scope}, normalised={self.normalised})"


def make_distribution(space: Space, scope, entries=()) -> Distribution:
    """Build a distribution from (assignment, degree) pairs; unlisted assignments are 0."""
    scope = space.subset(scope)
    table = np.zeros(space.shape(scope))
    for assignment, value in entries:
        try:
            value = float(value)
        except OverflowError:
            raise OutOfRange("a possibility degree is too large for a float") from None
        if not 0.0 <= value <= 1.0:
            raise OutOfRange(f"degree {value} outside [0, 1]")
        table[space.indices(assignment, scope)] = value
    return Distribution(space, scope, table)


def possibility_measure(dist: Distribution, event: Iterable[Mapping[str, str]]) -> float:
    """Max of `dist` over the event set; the empty event has possibility 0."""
    return dist.measure(event)


@dataclass(frozen=True)
class Triplet:
    """An ordered triple (a, b, c) of pairwise disjoint variable sets.

    `a` and `b` must be nonempty; `c` may be empty.
    """

    a: frozenset
    b: frozenset
    c: frozenset

    @classmethod
    def of(cls, a, b, c=()) -> "Triplet":
        return cls(frozenset(_as_names(a)), frozenset(_as_names(b)), frozenset(_as_names(c)))

    def validate(self, space: Space) -> None:
        for part in (self.a, self.b, self.c):
            for n in part:
                if n not in space.names:
                    raise BadTriplet(f"unknown variable {n!r}")
        if not self.a or not self.b:
            raise BadTriplet("the first two parts of a triplet must be nonempty")
        if self.a & self.b or self.a & self.c or self.b & self.c:
            raise BadTriplet("triplet parts must be pairwise disjoint")

    @property
    def sort_key(self):
        return (tuple(sorted(self.a)), tuple(sorted(self.b)), tuple(sorted(self.c)))

    def __str__(self) -> str:
        fmt = lambda part: ",".join(sorted(part)) if part else "-"
        return f"({fmt(self.a)} ; {fmt(self.b)} | {fmt(self.c)})"


@dataclass(frozen=True)
class IndependenceRelation:
    """A finite set of triplets over one space."""

    space: Space
    members: frozenset

    def __contains__(self, t: Triplet) -> bool:
        return t in self.members

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[Triplet]:
        return iter(self.sorted_members)

    @property
    def sorted_members(self) -> tuple[Triplet, ...]:
        """The members in sort_key order."""
        return self._encoding[2]

    @functools.cached_property
    def _encoding(self) -> tuple[tuple[str, ...], np.ndarray, tuple[Triplet, ...]]:
        """(names, rows, members): the names the members use, sorted; and the
        members in sort_key order, with the int64 (a, b, c) bitmasks of
        each over those names as the rows of an (M, 3) array.  TooLarge
        past ENCODED_NAMES names."""
        members = list(self.members)
        parts = {p for t in members for p in (t.a, t.b, t.c)}
        names = tuple(sorted(set().union(*parts)))
        if len(names) > ENCODED_NAMES:
            raise TooLarge(f"the relation names {len(names)} variables; its encoding "
                           f"holds at most {ENCODED_NAMES}")
        # ranks of the parts' sorted names order the members as sort_key does
        ranked = sorted(parts, key=sorted)
        rank = {p: i for i, p in enumerate(ranked)}
        part_masks = np.array(masks(names, *ranked), dtype=np.int64)
        ranks = np.array([(rank[t.a], rank[t.b], rank[t.c]) for t in members],
                         dtype=np.int64).reshape(-1, 3)
        order = np.lexsort(ranks.T[::-1])
        return names, part_masks[ranks[order]], tuple(members[i] for i in order.tolist())

    def __repr__(self) -> str:
        return f"IndependenceRelation({len(self.members)} triplets)"


def triplet_count(n_variables: int) -> int:
    """Number of ordered disjoint triplets with nonempty first two parts."""
    n = n_variables
    return 4**n - 2 * 3**n + 2**n


def candidate_masks(n_variables: int) -> list[tuple[int, int, int]]:
    """(a, b, c) bitmasks of the candidate triplets: variable i puts bit i in
    no part, a, b or c, the first variable slowest; a and b are nonempty."""
    walk = [(0, 0, 0)]
    for i in range(n_variables):
        bit = 1 << i
        walk = [m for a, b, c in walk
                for m in ((a, b, c), (a | bit, b, c), (a, b | bit, c), (a, b, c | bit))]
    return [(a, b, c) for a, b, c in walk if a and b]


def triplets_from_masks(order: tuple[str, ...], rows) -> list[Triplet]:
    """The triplet of each (a, b, c) row of bitmasks over `order`, bit i
    standing for order[i]; triplets share one frozenset per distinct mask."""
    part = {m: frozenset(n for i, n in enumerate(order) if m >> i & 1)
            for m in {m for row in rows for m in row}}
    return [Triplet(part[a], part[b], part[c]) for a, b, c in rows]


def enumerate_triplets(space: Space) -> list[Triplet]:
    """All ordered disjoint triplets (a, b, c) with a, b nonempty over the space."""
    if len(space) < 2:
        raise TooSmall("triplet enumeration needs at least two variables")
    return triplets_from_masks(space.names, candidate_masks(len(space)))
