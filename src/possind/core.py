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
import numbers
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
    """Raise ValueError unless `eps` is a finite real tolerance >= 0: an
    int, a float or a numpy scalar of either, not a bool."""
    if isinstance(eps, (bool, np.bool_)) or not isinstance(eps, numbers.Real) or not (
            math.isfinite(eps) and eps >= 0.0):
        raise ValueError(f"eps must be a finite number >= 0, got {eps!r}")


def check_count(value, name: str, low: float, high: float = 2**63 - 1) -> int:
    """`value` as an int if an integer (no bool) in [low, high], else ValueError naming `name`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    if value > high:
        raise ValueError(f"{name} must be <= {high}, got {value}")
    return int(value)


def check_shape(shape: tuple) -> tuple:
    """`shape`; TooLarge if a dense table of that shape has more than TABLE_GUARD cells."""
    if math.prod(shape) > TABLE_GUARD:
        raise TooLarge(f"{math.prod(shape)} table cells exceed the guard of {TABLE_GUARD}")
    return shape


def check_degrees(values, what: str):
    """`values`, an array or numpy scalar, if all lie in [0, 1]; OutOfRange
    naming `what` otherwise, NaN included.  The one range check on degrees."""
    # a NaN propagates through both reductions; the initial values pass an empty array
    if not (np.minimum.reduce(values, axis=None, initial=1.0) >= 0.0
            and np.maximum.reduce(values, axis=None, initial=0.0) <= 1.0):
        raise OutOfRange(f"{what} must lie in [0, 1]")
    return values


def listed_degree(value) -> float:
    """One degree listed for an assignment, as a float in [0, 1]."""
    try:
        value = float(value)
    except OverflowError:
        raise OutOfRange("a possibility degree is too large for a float") from None
    if not 0.0 <= value <= 1.0:
        raise OutOfRange(f"degree {value} outside [0, 1]")
    return value


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
            if n not in self._frames:
                raise ScopeMismatch(f"unknown variable {n!r}")
            wanted.add(n)
        return tuple(n for n in self._names if n in wanted)

    def shape(self, scope) -> tuple[int, ...]:
        """Dense table shape over `scope`; TooLarge past TABLE_GUARD cells."""
        return check_shape(tuple(len(self._frames[n]) for n in scope))

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
        # a listed scope names the table's axes, so it must be in space order
        listed = scope if isinstance(scope, (set, frozenset)) else _as_names(scope)
        scope = space.subset(listed)
        if isinstance(listed, tuple) and listed != scope:
            raise ScopeMismatch(f"scope {listed} is not in space order; list it as {scope}")
        arr = np.array(table, dtype=float)
        expected = space.shape(scope)
        if arr.shape != expected:
            raise ScopeMismatch(
                f"table shape {arr.shape} does not match scope shape {expected}"
            )
        check_degrees(arr, "possibility degrees")
        arr.setflags(write=False)
        self.space = space
        self.scope = scope
        self.table = arr
        self.normalised = bool(arr.max() == 1.0)
        self._lattice: dict[int, np.ndarray] = {(1 << len(scope)) - 1: arr}

    def _marginal(self, mask: int) -> np.ndarray:
        """Lattice entry: the keepdims max-marginal onto `mask` (bit i is
        scope[i]), one reduction of the table over the axes outside it."""
        out = self._lattice.get(mask)
        if out is None:
            outside = tuple(i for i in range(len(self.scope)) if not mask >> i & 1)
            out = self._lattice[mask] = self.table.max(axis=outside, keepdims=True)
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
    """Build a distribution from (assignment, degree) pairs; unlisted assignments
    are 0, and each assignment may be listed once (else DuplicateValue)."""
    scope = space.subset(scope)
    table = np.zeros(space.shape(scope))
    listed = set()
    for assignment, value in entries:
        idx = space.indices(assignment, scope)
        if idx in listed:
            raise DuplicateValue(f"duplicate assignment {assignment}")
        listed.add(idx)
        table[idx] = listed_degree(value)
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
        unknown = [n for part in (self.a, self.b, self.c) for n in part if n not in space.names]
        if unknown:
            raise BadTriplet(f"unknown variable {min(unknown)!r}")
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


class IndependenceRelation:
    """A finite set of triplets over one space, equal by space and members.
    An enumerated one holds only its _encoding and decodes members when read;
    a hand-built one encodes its members when read, refusing invalid ones."""

    def __init__(self, space: Space, members: frozenset):
        self.space = space
        self.members = members

    @classmethod
    def _encoded(cls, space: Space, names: tuple, rows: np.ndarray) -> "IndependenceRelation":
        """The relation of the distinct valid triplets whose (a, b, c) masks
        over the sorted `names` are the (M, 3) int64 `rows`, in sort_key order."""
        rel = cls.__new__(cls)
        rel.space = space
        rel._encoding = _encode(names, rows) if len(rows) else ((), rows)
        return rel

    def __contains__(self, t: Triplet) -> bool:
        return t in self.members

    def __len__(self) -> int:
        return len(self._encoding[1] if "_encoding" in self.__dict__ else self.members)

    def __iter__(self) -> Iterator[Triplet]:
        return iter(self.sorted_members)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.space, self.members) == (other.space, other.members)

    def __hash__(self) -> int:
        return hash((self.space, self.members))

    @functools.cached_property
    def members(self) -> frozenset:
        return frozenset(self.sorted_members)

    @functools.cached_property
    def sorted_members(self) -> tuple[Triplet, ...]:
        """The members in sort_key order, decoded from the encoding."""
        names, rows = self._encoding
        return tuple(triplets_from_masks(names, rows.tolist()))

    @functools.cached_property
    def _encoding(self) -> tuple[tuple[str, ...], np.ndarray]:
        """(names, rows): the sorted names the members use, and the (M, 3)
        int64 (a, b, c) bitmasks over them of the members in sort_key order.
        TooLarge past ENCODED_NAMES names, then Triplet.validate's BadTriplet.
        Sorted here by sort_key: past 2^21 parts, packed ranks would overflow."""
        index = {p: i for i, p in enumerate({p for t in self.members for p in (t.a, t.b, t.c)})}
        names = tuple(sorted(set().union(*index)))
        if len(names) > ENCODED_NAMES:
            raise TooLarge(f"the relation names {len(names)} variables; its encoding "
                           f"holds at most {ENCODED_NAMES}")
        members = sorted(self.members, key=lambda t: t.sort_key)
        for t in members:
            t.validate(self.space)
        rows = [(index[t.a], index[t.b], index[t.c]) for t in members]
        names, _, moved = _mask_tables(names, masks(names, *index))
        return _encode(names, moved[np.array(rows, np.int64).reshape(-1, 3)])

    def __repr__(self) -> str:
        return f"IndependenceRelation({len(self)} triplets)"


def _mask_tables(order: tuple[str, ...], bitmasks) -> tuple:
    """(names, rank, moved): `order` sorted; and per bitmask of `bitmasks`
    over order, its rank among them by sorted names and its bits moved
    onto names.  A mask's rank sorts the positions of its names in
    `names`, padded with -1 so that a prefix sorts first."""
    names, width = sorted(order), np.arange(len(order))
    # bits[m, i]: whether bitmask m holds names[i]; int64 even for no masks, as >> needs
    bits = np.array(bitmasks, np.int64)[:, None] >> np.array(
        [order.index(n) for n in names], np.int64) & 1
    pos = np.sort(np.where(bits, width, len(names)), axis=1)
    pos[pos == len(names)] = -1
    # lexsort needs a key: with no names every mask is 0 and keeps its place
    rank = np.argsort(np.lexsort(pos.T[::-1])) if names else np.arange(len(bits))
    return names, rank, bits @ (1 << width)


def _encode(names, rows: np.ndarray) -> tuple:
    """The _encoding (names, rows) of the triplets whose (a, b, c) masks
    over the sorted `names` are the (M, 3) int64 `rows`, given in sort_key
    order: the same rows, squeezed onto the names they use.  It builds no
    Triplet; triplets_from_masks decodes."""
    used = int(np.bitwise_or.reduce(rows, axis=None))
    if used != (1 << len(names)) - 1:  # squeeze out the bits of names no member uses
        kept = [i for i in range(len(names)) if used >> i & 1]
        rows = (rows[..., None] >> kept & 1) @ (1 << np.arange(len(kept)))
        names = [names[i] for i in kept]
    return tuple(names), rows


def triplet_count(n_variables: int) -> int:
    """Number of ordered disjoint triplets with nonempty first two parts."""
    n = n_variables
    return 4**n - 2 * 3**n + 2**n


def candidate_masks(n_variables: int) -> np.ndarray:
    """The (M, 3) int64 (a, b, c) bitmasks of the candidate triplets:
    variable i puts bit i in no part, a, b or c, the first variable
    slowest; a and b are nonempty."""
    n = n_variables
    part = np.arange(4**n)[:, None] >> 2 * np.arange(n - 1, -1, -1) & 3  # [row, variable]
    rows = np.stack([(part == p) @ (1 << np.arange(n)) for p in (1, 2, 3)], axis=1)
    return rows[(rows[:, 0] > 0) & (rows[:, 1] > 0)]


def triplets_from_masks(order: tuple[str, ...], rows) -> list[Triplet]:
    """The one decoder: the triplet of each (a, b, c) row of bitmasks over
    `order`, bit i standing for order[i], sharing one frozenset per mask."""
    part = {m: frozenset(n for i, n in enumerate(order) if m >> i & 1)
            for m in {m for row in rows for m in row}}
    return [Triplet(part[a], part[b], part[c]) for a, b, c in rows]


def enumerate_triplets(space: Space) -> list[Triplet]:
    """All ordered disjoint triplets (a, b, c) with a, b nonempty over the space."""
    if len(space) < 2:
        raise TooSmall("triplet enumeration needs at least two variables")
    return triplets_from_masks(space.names, candidate_masks(len(space)).tolist())
