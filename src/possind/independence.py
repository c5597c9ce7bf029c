"""Conditioning and the two independence notions it induces.

A conditional distribution divides a joint out by a marginal through the
residuum of a chosen conjunction.  Membership in the independence
relation requires that conditioning `a` on `b | c` gives the same result
as conditioning on `c` alone, and symmetrically; membership in the
no-interactivity relation requires that the joint conditional factorize
through the conjunction.  Both equalities are evaluated pointwise on the
joint frame of all three parts, broadcasting keepdims marginals from the
distribution's lattice, within a tolerance.

The characterize_* functions are closed-form criteria specific to each
conjunction family.  They are implemented straight from the marginals,
independently of the conditioning route, so the two can be cross-checked
against each other.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .conjunction import Conjunction, Generator, IDENTITY, LukasiewiczLike
from .core import (
    EPS,
    Distribution,
    IndependenceRelation,
    Space,
    Triplet,
    candidate_masks,
    check_degrees,
    check_eps,
    masks,
    triplet_count,
    triplets_from_masks,
)
from .errors import BadTriplet, NotNormalised, ScopeMismatch, TooLarge

#: Enumeration refuses spaces with more candidate triplets than this.
RELATION_GUARD = 100_000

#: Enumeration compares at most this many cells of a scope's frame at once.
BLOCK_CELLS = 1 << 13

#: Scopes whose frames have more cells than this are enumerated one triplet
#: at a time: past it, computing every conditional on the scope's frame
#: costs more than the per-triplet route, which reuses memoised
#: conditionals on smaller frames and stops at the first failed side.
CROSSOVER_CELLS = 1 << 11

#: Enumeration keeps the plans (_plan) of this many (frame sizes, kind) pairs.
PLAN_CACHE_SIZE = 8


def _check_relation_guard(n_variables: int) -> None:
    if triplet_count(n_variables) > RELATION_GUARD:
        raise TooLarge(f"{triplet_count(n_variables)} candidate triplets exceed the "
                       f"guard of {RELATION_GUARD}")


class RelationKind(str, Enum):
    INDEPENDENCE = "independence"
    NON_INTERACTIVITY = "noninteractivity"


@dataclass(frozen=True)
class Witness:
    """A point where a defining equality failed, with both side values."""

    assignment: dict
    left: float
    right: float


@dataclass(frozen=True)
class MembershipEvidence:
    """Verdict of a membership test; witnesses list every failing point."""

    verdict: bool
    witnesses: tuple[Witness, ...]

    def __bool__(self) -> bool:
        return self.verdict


def _checked(degrees):
    """`degrees` if all lie in [0, 1]: the guard against custom conjunctions."""
    return check_degrees(degrees, "conditional degrees")


def _conditional(dist: Distribution, conj: Conjunction, x: int, given: int) -> np.ndarray:
    """Keepdims residuum(lattice[given], lattice[x | given]), range-checked."""
    return _checked(conj._residuum(dist._marginal(given), dist._marginal(x | given)))


def condition(dist: Distribution, a, b, conj: Conjunction) -> Distribution:
    """The distribution of `a` conditional on `b`, scoped to their union.

    Each entry is residuum(marginal of b, marginal of a+b); conditioning
    on the empty set divides by the scalar 1 and returns the marginal of
    `a` unchanged.  The input must be normalised.
    """
    if not dist.normalised:
        raise NotNormalised("conditioning needs a normalised distribution")
    a, b = dist.space.subset(a), dist.space.subset(b)
    if set(a) & set(b):
        raise ScopeMismatch("target and conditioning sets overlap")
    if not set(a + b) <= set(dist.scope):
        raise ScopeMismatch("conditioning sets must lie inside the distribution scope")
    union = dist.space.subset(set(a) | set(b))
    table = _conditional(dist, conj, *masks(dist.scope, a, b))
    return Distribution(dist.space, union, np.reshape(table, dist.space.shape(union)))


def _validate_membership(dist: Distribution, t: Triplet, eps) -> None:
    check_eps(eps)
    t.validate(dist.space)
    if not (t.a | t.b | t.c) <= set(dist.scope):
        raise BadTriplet("triplet names variables outside the distribution scope")
    if not dist.normalised:
        raise NotNormalised("membership tests need a normalised distribution")


def _side_pairs(kind, a, b, c):
    """The sides whose pointwise equality defines membership of the triplet
    with masks (a, b, c), as (x, given) conditionals: the first is the left
    side, which spans a|b|c; the rest make the right side, conjoined when
    there are two."""
    if kind is RelationKind.INDEPENDENCE:
        return ((a, b | c), (a, c)), ((b, a | c), (b, c))
    return ((a | b, c), (a, c), (b, c)),


def _membership_sides(dist, conj, kind, a, b, c, memo):
    """Yield the (lhs, rhs) keepdims tables of each side in turn; `memo` keeps conditionals."""
    for side in _side_pairs(kind, a, b, c):
        for pair in side:
            if pair not in memo:
                memo[pair] = _conditional(dist, conj, *pair)
        lhs, *rhs = (memo[pair] for pair in side)
        yield lhs, _checked(conj._conjoin(*rhs)) if len(rhs) == 2 else rhs[0]


def _membership(dist, t, conj, kind, eps) -> MembershipEvidence:
    _validate_membership(dist, t, eps)
    a, b, c = masks(dist.scope, t.a, t.b, t.c)
    full = dist.space.subset(t.a | t.b | t.c)
    shape = dist.space.shape(full)
    witnesses: list[Witness] = []
    for lhs, rhs in _membership_sides(dist, conj, kind, a, b, c, {}):
        # lhs spans a|b|c: broadcast rhs onto it, squeeze the axes outside
        lhs, rhs = (side.reshape(shape) for side in np.broadcast_arrays(lhs, rhs))
        witnesses.extend(
            Witness(dist.space.assignment_at(full, idx), float(lhs[idx]), float(rhs[idx]))
            for idx in map(tuple, np.argwhere(np.abs(lhs - rhs) > eps).tolist())
        )
    return MembershipEvidence(not witnesses, tuple(witnesses))


def in_independence(dist, t, conj, eps: float = EPS) -> MembershipEvidence:
    """Does conditioning `a` on the rest reduce to conditioning on `c`, both ways?"""
    return _membership(dist, t, conj, RelationKind.INDEPENDENCE, eps)


def in_noninteractivity(dist, t, conj, eps: float = EPS) -> MembershipEvidence:
    """Does the joint conditional factorize through the conjunction?"""
    return _membership(dist, t, conj, RelationKind.NON_INTERACTIVITY, eps)


def _marginal_tables(dist, t, eps):
    """Validated keepdims marginal tables (abc, c, ac, bc); they broadcast
    onto the joint frame of the triplet."""
    _validate_membership(dist, t, eps)
    a, b, c = masks(dist.scope, t.a, t.b, t.c)
    return tuple(dist._marginal(m) for m in (a | b | c, c, a | c, b | c))


def characterize_luka(dist, t, generator: Generator = IDENTITY, eps: float = EPS) -> bool:
    """Additive criterion for Lukasiewicz-like independence.

    True iff phi(joint) + phi(c-marginal) equals phi(ac-marginal) +
    phi(bc-marginal) pointwise.
    """
    abc, c, ac, bc = _marginal_tables(dist, t, eps)
    g = generator.apply
    diff = (g(abc) + g(c)) - (g(ac) + g(bc))
    return bool(np.max(np.abs(diff)) <= eps)


def characterize_luka_ni(dist, t, generator: Generator = IDENTITY, eps: float = EPS) -> bool:
    """Clamp-aware criterion for Lukasiewicz-like no-interactivity.

    At every point either the additive criterion holds, or the clamp
    disjunct does: phi(c-marginal) = 1, phi(joint) = 0 and
    phi(ac-marginal) + phi(bc-marginal) <= 1.  The disjunct covers the
    points where the conjunction of the two conditionals clamps to 0 and
    so equals the impossible joint conditional; there no-interactivity
    holds although independence does not.
    """
    abc, c, ac, bc = (generator.apply(m) for m in _marginal_tables(dist, t, eps))
    additive = np.abs((abc + c) - (ac + bc)) <= eps
    clamp = (c >= 1.0 - eps) & (abc <= eps) & (ac + bc <= 1.0 + eps)
    return bool(np.all(additive | clamp))


def characterize_product_ni(dist, t, generator: Generator = IDENTITY, eps: float = EPS) -> bool:
    """Multiplicative criterion for product-like no-interactivity."""
    abc, c, ac, bc = _marginal_tables(dist, t, eps)
    g = generator.apply
    diff = g(abc) * g(c) - g(ac) * g(bc)
    return bool(np.max(np.abs(diff)) <= eps)


def _zero_pattern_clause(dist, a, b, c, eps) -> bool:
    """Zero-slice condition: wherever the c-marginal is positive and some
    b-completion is impossible, the ac-marginal must equal the c-marginal."""
    m_c, m_ac, m_bc = (dist._marginal(m) for m in (c, a | c, b | c))
    reduce_axes = tuple(i for i in range(len(dist.scope)) if (a | b) >> i & 1)
    some_b_zero = np.any(m_bc <= eps, axis=reduce_axes, keepdims=True)
    bad = (m_c > eps) & some_b_zero & (np.abs(m_ac - m_c) > eps)
    return not bool(np.any(bad))


def characterize_product_i(dist, t, generator: Generator = IDENTITY, eps: float = EPS) -> bool:
    """Product-like independence: the multiplicative criterion plus both
    zero-pattern clauses (one per direction)."""
    if not characterize_product_ni(dist, t, generator, eps):
        return False
    a, b, c = masks(dist.scope, t.a, t.b, t.c)
    return _zero_pattern_clause(dist, a, b, c, eps) and _zero_pattern_clause(
        dist, b, a, c, eps
    )


def characterize_min_ni(dist, t, eps: float = EPS) -> bool:
    """Min no-interactivity: the joint equals the minimum of the pair marginals."""
    abc, _, ac, bc = _marginal_tables(dist, t, eps)
    return bool(np.max(np.abs(abc - np.minimum(ac, bc))) <= eps)


def characterize_min_i(dist, t, eps: float = EPS) -> bool:
    """Min independence: the min factorization plus the max identity
    (the c-marginal equals the maximum of the pair marginals)."""
    abc, c, ac, bc = _marginal_tables(dist, t, eps)
    ok_min = np.max(np.abs(abc - np.minimum(ac, bc))) <= eps
    ok_max = np.max(np.abs(c - np.maximum(ac, bc))) <= eps
    return bool(ok_min and ok_max)


def construct_luka_instance(
    space: Space,
    t: Triplet,
    generator: Generator = IDENTITY,
    seed: int = 0,
    grid: int = 10,
) -> tuple[Distribution, Triplet]:
    """Build a distribution guaranteed independent at `t` under the
    Lukasiewicz-like conjunction with this generator.

    Two factors are drawn on the a+c and b+c frames with a shared
    c-marginal and all values at least phi_inv(0.5), so the transformed
    factors always sum to at least 1; their conjunction is returned as
    the joint.  Deterministic for a fixed seed.
    """
    t.validate(space)
    if grid < 1:
        raise ValueError("grid must be >= 1")
    rng = np.random.default_rng(seed)
    k_min = next(k for k in range(grid + 1) if generator.apply(k / grid) >= 0.5)
    full = space.subset(t.a | t.b | t.c)
    shape = space.shape(full)

    def draw(names):
        """Grid values over the axes of `names`, keepdims on the frame of full."""
        size = [n if v in names else 1 for v, n in zip(full, shape)]
        return rng.integers(k_min, grid + 1, size=size) / grid

    h = draw(t.c)
    h.flat[rng.integers(0, h.size)] = 1.0

    def factor(part):
        # cap every c-slice at its target maximum, then pin one random cell to it
        vals = np.minimum(draw(part | t.c), h)
        axes = [i for i, v in enumerate(full) if v in part]
        idx = np.indices(h.shape).reshape(len(full), -1)
        pins = rng.integers(0, vals.size // h.size, size=h.size)
        idx[axes] = np.unravel_index(pins, [shape[i] for i in axes])
        vals[tuple(idx)] = h.ravel()
        return vals

    # arguments are evaluated in order, so a's draws come before b's
    table = LukasiewiczLike(generator)._conjoin(factor(t.a), factor(t.b))
    return Distribution(space, full, table), t


@functools.cache
def _row_tables(k: int, kind: RelationKind):
    """Local (a, b, c) masks of the candidate triplets that span all of k
    bits, and per side a (triplets, conditionals, 2) array of the
    (given, x | given) marginal masks of each of its conditionals."""
    full = (1 << k) - 1
    local = [t for t in candidate_masks(k) if t[0] | t[1] | t[2] == full]
    sides = zip(*(_side_pairs(kind, *t) for t in local))
    tables = [np.array(local)]
    tables += (np.array([[(g, x | g) for x, g in pairs] for pairs in side]) for side in sides)
    for table in tables:
        table.setflags(write=False)
    return tables[0], tables[1:]


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _plan(shape: tuple, kind: RelationKind) -> tuple:
    """Per group of scopes whose axes have the same frame sizes, read-only
    (scopes, spread, candidates, sides): spread[q][x] is the mask of the
    axes of scopes[q] that local mask x selects, candidates are (a, b, c)
    masks scope by scope, and sides are _row_tables' at rows (q << k) + x."""
    groups = {}  # frame sizes of a scope's axes -> scope masks
    for scope in range(1 << len(shape)):
        sizes = tuple(size for i, size in enumerate(shape) if scope >> i & 1)
        if len(sizes) >= 2:
            groups.setdefault(sizes, []).append(scope)
    plan = []
    for scopes in groups.values():
        bits = np.array([[1 << i for i in range(len(shape)) if scope >> i & 1] for scope in scopes])
        k = bits.shape[1]
        local, sides = _row_tables(k, kind)
        spread = bits @ (np.arange(1 << k)[:, None] >> np.arange(k) & 1).T
        offsets = np.arange(len(scopes))[:, None, None, None] << k
        tables = [spread[:, local].reshape(-1, 3)]
        tables += ((side + offsets).reshape(-1, *side.shape[1:]) for side in sides)
        for table in tables:
            table.setflags(write=False)
        plan.append((tuple(scopes), tuple(map(tuple, spread.tolist())), tables[0], tables[1:]))
    return tuple(plan)


def _scope_members(dist, conj, kind, eps, group, memo) -> list:
    """(a, b, c) masks of the members among the candidates of `group`, one
    group of scopes of _plan(dist.table.shape, kind).

    Small frames are evaluated in blocks of candidates from all the scopes
    at once, on marginals broadcast onto the scope's frame: each side in
    one residuum call, the next side only for the candidates that passed.
    Large frames are evaluated one candidate at a time on keepdims
    conditionals kept in `memo`, as in_* does, stopping at the first failed side."""
    scopes, spread, candidates, sides = group
    cells = dist._marginal(scopes[0]).size
    if cells > CROSSOVER_CELLS:
        return [t for t in candidates.tolist()
                if all(np.max(np.abs(lhs - rhs)) <= eps
                       for lhs, rhs in _membership_sides(dist, conj, kind, *t, memo))]
    marginals = np.empty((len(scopes), len(spread[0]), cells))
    for rows, scope, row_masks in zip(marginals, scopes, spread):
        rows = rows.reshape(-1, *dist._marginal(scope).shape)
        for x, mask in enumerate(row_masks):
            rows[x] = dist._marginal(mask)
    # every left side conditions a whole scope: row (q, u) is (given u, total scopes[q])
    lhs_rows = _checked(conj._residuum(marginals.reshape(-1, cells),
                                       np.repeat(marginals[:, -1], len(spread[0]), axis=0)))
    marginals = marginals.reshape(-1, cells)
    members = []
    step = max(1, BLOCK_CELLS // cells)
    for start in range(0, len(candidates), step):
        alive = np.arange(start, min(start + step, len(candidates)))
        for side in sides:
            pairs = side[alive]
            given, total = pairs[:, 1:].reshape(-1, 2).T
            rhs = _checked(conj._residuum(marginals[given], marginals[total]))
            # a side with two right-side conditionals lists them in turn
            if pairs.shape[1] == 3:
                rhs = _checked(conj._conjoin(rhs[0::2], rhs[1::2]))
            # both sides are range-checked, so no NaN reaches the comparison
            alive = alive[np.max(np.abs(lhs_rows[pairs[:, 0, 0]] - rhs), axis=1) <= eps]
        members += candidates[alive].tolist()
    return members


def enumerate_relation(
    dist: Distribution, conj: Conjunction, kind: RelationKind, eps: float = EPS
) -> IndependenceRelation:
    """All triplets over the distribution scope whose membership test holds.

    Candidates are grouped by their scope a|b|c and evaluated on that
    scope's frame, with the comparisons of in_independence and
    in_noninteractivity: scopes whose frames have at most CROSSOVER_CELLS
    cells in blocks of at most BLOCK_CELLS cells, larger ones one
    triplet at a time."""
    if not dist.normalised:
        raise NotNormalised("relation enumeration needs a normalised distribution")
    _check_relation_guard(len(dist.scope))
    check_eps(eps)
    kind = RelationKind(kind)
    memo = {}  # conditionals shared by the scopes enumerated one triplet at a time
    rows = [t for group in _plan(dist.table.shape, kind)
            for t in _scope_members(dist, conj, kind, eps, group, memo)]
    return IndependenceRelation(dist.space, frozenset(triplets_from_masks(dist.scope, rows)))
