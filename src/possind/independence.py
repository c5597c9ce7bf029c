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

import bisect
import functools
import itertools
import math
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
    _mask_tables,
    candidate_masks,
    check_count,
    check_degrees,
    check_eps,
    masks,
    triplet_count,
)
from .errors import BadTriplet, NotNormalised, ScopeMismatch, TooLarge, TooSmall

#: Enumeration refuses spaces with more candidate triplets than this.
RELATION_GUARD = 100_000

#: A block of the enumeration gathers at most this many cells per side and
#: conjunction, in whole units (see _row_tables); a larger unit takes a
#: block of its own.
#: A membership test walks its frame in chunks of at most this many cells
#: per conditional, or one run of the frame's last axis if that is longer.
BLOCK_CELLS = 1 << 13

#: Scopes whose frames have more cells than this are enumerated one triplet
#: at a time: past it, comparing every candidate on the scope's frame costs
#: more than the per-triplet route, which stops at the first failed side.
CROSSOVER_CELLS = 1 << 11

#: Enumeration keeps the plans (_plan) of this many frame shapes.
PLAN_CACHE_SIZE = 8


def _check_relation_guard(n: int) -> None:
    # 2^n <= triplet_count(n) from 3 variables on: past the guard's bit length, skip 4^n
    count = triplet_count(n) if n < RELATION_GUARD.bit_length() else f"at least 2^{n}"
    if isinstance(count, str) or count > RELATION_GUARD:
        raise TooLarge(f"{n} variables give {count} candidate triplets, which exceed the guard "
                       f"of {RELATION_GUARD}")


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
    """The definition's test of `t`, with witnesses: per chunk of the
    triplet's frame, one residuum call and one range check on the stacked
    (given, total) marginals of every conditional of _side_pairs, one
    conjunction for no-interactivity and one comparison for all sides.  A
    chunk is a C-order run of at most BLOCK_CELLS cells per conditional,
    or one run of the last axis if that is longer.  Witnesses list each
    side's failing points in C order, side after side."""
    _validate_membership(dist, t, eps)
    a, b, c = masks(dist.scope, t.a, t.b, t.c)
    full = dist.space.subset(t.a | t.b | t.c)
    shape = dist.space.shape(full)
    sides = _side_pairs(kind, a, b, c)
    outside = tuple(i for i in range(len(dist.scope)) if not (a | b | c) >> i & 1)
    # column k holds the k-th conditional of every side, so lhs and rhs are whole rows
    operands = [tuple(dist._marginal(m).squeeze(outside) for m in (given, x | given))
                for column in zip(*sides) for x, given in column]
    split = next((j for j in range(len(shape) - 1) if math.prod(shape[j + 1:]) <= BLOCK_CELLS),
                 len(shape) - 2)
    step = max(1, BLOCK_CELLS // math.prod(shape[split + 1:]))
    if math.prod(shape) > BLOCK_CELLS:  # chunks index the axes before `split` by value
        operands = [tuple(np.broadcast_to(m, shape) for m in pair) for pair in operands]
    found = [[] for _ in sides]
    for outer in itertools.product(*map(range, shape[:split])):
        for start in range(0, shape[split], step):
            where = (*outer, slice(start, start + step))
            rows = min(step, shape[split] - start)
            stack = np.empty((2, len(operands), rows, *shape[split + 1:]))
            for p, (given, total) in enumerate(operands):
                stack[0, p], stack[1, p] = given[where], total[where]
            lhs, *rhs = _checked(conj._residuum(*stack)).reshape(-1, len(sides), *stack.shape[2:])
            rhs = _checked(conj._conjoin(*rhs)) if len(rhs) == 2 else rhs[0]
            hit = np.nonzero(np.abs(lhs - rhs) > eps)
            for s, at, *rest, left, right in zip(*(axis.tolist() for axis in hit),
                                                 lhs[hit].tolist(), rhs[hit].tolist()):
                cell = dist.space.assignment_at(full, (*outer, start + at, *rest))
                found[s].append(Witness(cell, left, right))
    witnesses = tuple(w for side in found for w in side)
    return MembershipEvidence(not witnesses, witnesses)


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
    grid = check_count(grid, "grid", 1)
    rng = np.random.default_rng(seed)
    # phi rises with k, and k = grid gives phi(1) = 1
    k_min = bisect.bisect_left(range(grid), True, key=lambda k: generator.apply(k / grid) >= 0.5)
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


def _row_tables(k: int):
    """Local (a, b, c) masks of the candidate triplets that span all of k
    bits, ordered by c and then a, and the index of each one's mirror
    (b, a, c) in that order.  A unit is the candidates with one c, so a
    candidate's mirror is in its unit."""
    full = (1 << k) - 1
    c, a = np.divmod(np.arange(1 << 2 * k, dtype=np.int32), 1 << k)
    keep = ((a & c) == 0) & (a > 0) & ((a | c) != full)
    a, b, c = a[keep], (full ^ a ^ c)[keep], c[keep]
    index = np.zeros((1 << k, 1 << k), dtype=np.int32)
    index[c, a] = np.arange(len(a))
    return np.stack([a, b, c], axis=1), index[c, b]


def _extended(table: np.ndarray) -> np.ndarray:
    """`table` with one more slot on each axis, holding the max over that
    axis: the entry at the frame size on the axes outside a mask, and at a
    frame value on the others, is that mask's lattice entry there."""
    for axis in range(table.ndim):
        table = np.concatenate([table, table.max(axis=axis, keepdims=True)], axis=axis)
    return table


@functools.cache
def _sort_order(n: int) -> tuple:
    """Read-only (rank, rows) over n sorted names, bit i standing for the
    i-th: each of the 2^n masks' rank by its names (core._mask_tables),
    and the (a, b, c) masks of every candidate triplet in sort_key order."""
    rank = _mask_tables(tuple(range(n)), range(1 << n))[1]
    rows = candidate_masks(n)
    return _read_only((rank, rows[(rank[rows] @ (1 << 2 * n, 1 << n, 1)).argsort()]))


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _plan(shape: tuple) -> tuple:
    """Read-only (operands, groups, slots) of tables of this shape, for
    both kinds, whose axes are names in sorted order: bit i of a mask
    stands for the i-th.  The block route's conditionals are
    residuum(*operands) over the flat _extended table: every split x | g,
    x not empty, of every scope of at most CROSSOVER_CELLS cells, on its
    own frame in C order.  Scopes of two or more variables whose axes
    have the same frame sizes form a group, whose route is decided once
    from its cell count: None past CROSSOVER_CELLS, else the block route.
    Consecutive block groups are packed into one while their candidates
    times the widest one's cells stay within BLOCK_CELLS; a group that
    does not fit starts the next pack.  Per group past the crossover and
    per pack, (candidates, route): the candidates' (a, b, c) masks, scope
    by scope in _row_tables' order, and the route, None or (region,
    index, left, mirror, blocks) (_pack).  Per group, slots is an int32
    array apart from the route: each candidate's place in sort_key
    order, its row of _sort_order(n)."""
    n = len(shape)
    groups = {}  # frame sizes of a scope's axes -> the axes of each such scope
    for scope in range(1, 1 << n):
        axes = [i for i in range(n) if scope >> i & 1]
        groups.setdefault(tuple(shape[i] for i in axes), []).append(axes)
    # C-order strides of the extended table, whose last entry is the top of the lattice
    step = np.cumprod([1, *(size + 1 for size in shape[:0:-1])])[::-1]
    top = math.prod(size + 1 for size in shape) - 1
    operands, packs = [np.zeros((2, 0), np.intp)], []  # numpy gathers fastest with intp
    at = np.zeros((1 << n, 1 << n), dtype=np.intp)  # [scope, g]: where split g of scope starts
    # smaller scopes first, so that the splits a route reads are placed before it
    for sizes, axes in sorted(groups.items(), key=lambda group: len(group[0])):
        k, cells, axes = len(sizes), math.prod(sizes), np.array(axes)
        bits = np.arange(1 << k)[:, None] >> np.arange(k) & 1
        spread = (1 << axes) @ bits.T  # [q, x]: the axes of scope q that local mask x selects
        local, mirror = _row_tables(k)
        route = None
        if cells <= CROSSOVER_CELLS:
            begin, cell = sum(part.shape[1] for part in operands), np.indices(sizes).reshape(k, -1)
            # [q, x]: the lattice entry of local mask x at each cell of scope q's frame
            entry = top + (bits * step[axes][:, None]) @ (cell - np.array(sizes)[:, None])
            given, total = np.broadcast_arrays(entry[:, :-1], entry[:, -1:])
            operands.append(np.stack([given, total]).reshape(2, -1))
            at[spread[:, -1:], spread[:, :-1]] = begin + np.arange(
                0, given.size, given.shape[2]).reshape(given.shape[:2])
            if k >= 2:
                a, b, c = local.T
                q = np.arange(len(axes), dtype=np.int32)[:, None]
                left = (q * ((1 << k) - 1))[..., None] + np.stack([b | c, c], 1)
                ends = q * len(local) + np.append(np.flatnonzero(np.diff(c)) + 1, len(local))
                # C-order strides of each local mask's entry, 0 on the axes it drops
                kept = np.where(bits, sizes, 1)
                strides = np.cumprod(kept[:, ::-1], axis=1)[:, ::-1] // kept * bits
                index = (strides @ cell).astype(np.int32)[np.tile(a | c, len(axes))]
                index += at[spread[:, a | c], spread[:, c]].astype(np.int32).reshape(-1, 1)
                route = (slice(begin, begin + given.size), index, left.reshape(-1, 2),
                         (q * len(local) + mirror).ravel(), ends.ravel())
        if k >= 2:
            group = (spread[:, local].reshape(-1, 3), route)
            pack = [*packs[-1], group] if packs and route and packs[-1][-1][1] else []
            # a block group joins the last pack while its candidates fit one block at its width
            if pack and sum(len(rows) for rows, _ in pack) * max(
                    part[1].shape[1] for _, part in pack) <= BLOCK_CELLS:
                packs[-1] = pack
            else:
                packs.append([group])
    packs, rank = tuple(map(_pack, packs)), _sort_order(n)[0]
    key = rank[np.concatenate([rows for rows, _ in packs])] @ (1 << 2 * n, 1 << n, 1)
    slots = np.empty(len(key), np.int32)
    slots[key.argsort()] = np.arange(len(key))
    slots = np.split(slots, np.cumsum([len(rows) for rows, _ in packs])[:-1])
    return _read_only((np.concatenate(operands, axis=1), packs, tuple(slots)))


def _pack(groups: list) -> tuple:
    """(candidates, route) of consecutive groups of _plan, routed as one.
    The block route (region, index, left, mirror, blocks) compares its
    candidates at the pack's width, the most cells of any of its groups;
    a candidate of w cells reads cell j mod w, in C order, at column j.
    Rows of `region`, a slice of the conditionals for a pack of one group,
    else an index, hold its groups' splits, split g of a group's scope q
    at the group's start plus q * (2^k - 1) + g.  Per candidate (a, b, c):
    index, int32, reads its right side, a given c, at each cell of its
    frame (the split's start plus the cell offsets of a | c); left holds
    its rows given b | c and given c; mirror is where (b, a, c) is in its
    block.  A block (start, stop) is whole units of at most BLOCK_CELLS
    cells of right sides, or one larger unit."""
    candidates, routes = zip(*groups)
    if routes[0] is None:
        return groups[0]
    width, rows, count, parts = max(route[1].shape[1] for route in routes), 0, 0, []
    for region, index, left, mirror, ends in routes:
        cells, column = index.shape[1], np.arange(width) % index.shape[1]
        # take keeps the copies C-ordered, as blocks slice their rows
        parts.append((np.arange(region.start, region.stop, dtype=np.int32).reshape(
            -1, cells).take(column, 1), index.take(column, 1), left + rows, mirror + count,
                      ends + count))
        rows, count = rows + (region.stop - region.start) // cells, count + len(index)
    region, index, left, mirror, ends = map(np.concatenate, zip(*parts))
    edges, ends = [0], ends.tolist()
    # close a block before a unit that overfills it
    for unit, end in zip([0, *ends], ends):
        if (end - edges[-1]) * width > BLOCK_CELLS and unit > edges[-1]:
            edges.append(unit)
    edges.append(ends[-1])
    mirror -= np.repeat(np.array(edges[:-1], np.int32), np.diff(edges))
    return np.concatenate(candidates), (routes[0][0] if len(routes) == 1 else region, index,
                                        left, mirror, tuple(zip(edges, edges[1:])))


def _read_only(tables: tuple) -> tuple:
    """`tables`, with every array in it or in tuples in it made read-only."""
    for table in tables:
        if isinstance(table, np.ndarray):
            table.setflags(write=False)
        elif isinstance(table, tuple):
            _read_only(table)
    return tables


def _block_members(conjs, kinds, eps, route, slots, conds, verdicts) -> None:
    """Set verdicts[i, j] at `slots` for the candidates of a pack of block
    groups of _plan: whether each is a member of kind kinds[j] under
    conjs[i].  `route` is the pack's, conds[i] its conditionals under
    conjs[i], whose left rows are read once through its region.  Blocks
    only gather and compare, all conjunctions at once, at the pack's
    width: one gather of the right sides, a given c, by the plan's index,
    and per kind one of the left sides and one comparison per candidate
    and conjunction, written to the candidates' slots.  Independence
    compares a given b | c against a given c, and the second side of
    (a; b | c) is the first of its mirror (b; a | c); no-interactivity
    a | b given c against a given c conjoined with b given c, the
    mirror's right side."""
    region, index, left, mirror, blocks = route
    # take copies a non-contiguous source, as several rows' region slice is, on every call: copy
    # it once; an index gathers a contiguous copy
    lefts = np.ascontiguousarray(conds[:, region]).reshape(len(conjs), -1, index.shape[1])
    for start, stop in blocks:
        # take dispatches faster than indexing, though it converts the plan's int32 index
        own, pair, at = conds.take(index[start:stop], 1), mirror[start:stop], slots[start:stop]
        for j, kind in enumerate(kinds):
            # both sides are range-checked, so no NaN reaches a comparison
            if kind is RelationKind.INDEPENDENCE:
                ok = (np.abs(lefts.take(left[start:stop, 0], 1) - own) <= eps).all(axis=2)
                ok &= ok.take(pair, 1)
            else:
                rhs = own.take(pair, 1)  # the mirrors' right sides, conjoined in place
                for i, conj in enumerate(conjs):
                    rhs[i] = _checked(conj._conjoin(own[i], rhs[i]))
                ok = (np.abs(lefts.take(left[start:stop, 1], 1) - rhs) <= eps).all(axis=2)
            verdicts[:, j, at] = ok


def enumerate_relation(
    dist: Distribution, conj: Conjunction, kind: RelationKind, eps: float = EPS
) -> IndependenceRelation:
    """All triplets over the distribution scope whose membership test holds.

    Candidates are grouped by their scope a|b|c and evaluated on that
    scope's frame, with the comparisons of in_independence and
    in_noninteractivity: scopes whose frames have at most CROSSOVER_CELLS
    cells in blocks (see _plan), where small groups of scopes are packed
    into one, on conditionals computed once per table, larger ones one
    triplet at a time.  This is
    _enumerate_relations of the one conjunction and kind."""
    return _enumerate_relations(dist, (conj,), (kind,), eps)[0][0]


def _enumerate_relations(dist, conjs, kinds, eps=EPS) -> tuple:
    """Per conjunction of `conjs`, enumerate_relation of each kind of
    `kinds`, in one pass over the table, transposed (a view) so that its
    axes stand for dist.scope's names in sorted order, and planned as
    that shape.  Each conjunction makes one residuum call, on marginals
    read off one _extended table, for every conditional the blocks read,
    range-checked and stacked as one row of a (conjunctions, splits)
    array, and each pack of block groups compares in blocks of its own
    (_plan, _block_members).  The scopes past CROSSOVER_CELLS are
    enumerated one triplet at a time, on masks moved back onto
    dist.scope, stopping at the first failed side, one conjunction after
    the other: each conjunction's conditionals are kept in a dict shared
    by its kinds and freed before the next conjunction's.  Every verdict
    is written to one (conjunctions, kinds, candidates) array at the
    candidate's slot in sort_key order, so one nonzero gives each
    relation's member rows in that order, over the sorted names.  Each
    relation leaves holding only its encoding (core._encode), built
    without a Triplet."""
    if not dist.normalised:
        raise NotNormalised("relation enumeration needs a normalised distribution")
    n = len(dist.scope)
    if n < 2:
        raise TooSmall("relation enumeration needs at least two variables")
    _check_relation_guard(n)
    check_eps(eps)
    kinds = tuple(map(RelationKind, kinds))
    axes = sorted(range(n), key=dist.scope.__getitem__)  # the axis of each name, sorted
    table = dist.table.transpose(axes)
    operands, groups, slots = _plan(table.shape)
    rows = _sort_order(n)[1]
    verdicts = np.zeros((len(conjs), len(kinds), len(rows)), bool)
    blocked = [(route, at) for (_, route), at in zip(groups, slots) if route is not None]
    if blocked:  # a table wholly past the crossover needs no extended table
        # indexing, not take: take copies an index that is not writeable, as the plan's are
        given, total = _extended(table).ravel()[operands]
        conds = np.stack([_checked(conj._residuum(given, total)) for conj in conjs])
        for route, at in blocked:
            _block_members(conjs, kinds, eps, route, at, conds, verdicts)
    if len(blocked) < len(groups):  # each plan mask's bits moved back onto dist.scope
        moved = (np.arange(1 << n)[:, None] >> np.arange(n) & 1) @ (1 << np.array(axes))
    for i, conj in enumerate(conjs):
        memo = {}  # this conjunction's conditionals, for all its one-triplet scopes and kinds
        for (candidates, route), at in zip(groups, slots):
            if route is None:
                for j, kind in enumerate(kinds):
                    verdicts[i, j, at] = [all(
                        np.max(np.abs(lhs - rhs)) <= eps
                        for lhs, rhs in _membership_sides(dist, conj, kind, *t, memo))
                        for t in moved[candidates].tolist()]
    found, slot = verdicts.reshape(-1, len(rows)).nonzero()
    rows, names = rows[slot], tuple(dist.scope[axis] for axis in axes)
    ends = found.searchsorted(np.arange(len(conjs) * len(kinds) + 1)).tolist()
    relations = [IndependenceRelation._encoded(dist.space, names, rows[lo:hi])
                 for lo, hi in zip(ends, ends[1:])]
    return tuple(tuple(relations[i * len(kinds):(i + 1) * len(kinds)]) for i in range(len(conjs)))
