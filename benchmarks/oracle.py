"""Reference computations the benchmark checks possind against.

Everything here is written from the definitions and closed forms in
numpy and plain Python, without calling possind, so a fault in the
program cannot hide itself by also being in the check.

A table is a dense ndarray with one axis per variable; variables are
named by their axis position.  A triplet is a tuple (a, b, c) of
frozensets of axis positions, with a and b nonempty.
"""

from __future__ import annotations

import itertools
from collections import defaultdict

import numpy as np

EPS = 1e-9


def marginals(table: np.ndarray) -> dict:
    """Max-projections onto every subset of the axes, kept as broadcastable
    arrays (size-1 along every dropped axis)."""
    n = table.ndim
    out = {}
    for r in range(n + 1):
        for keep in itertools.combinations(range(n), r):
            drop = tuple(i for i in range(n) if i not in keep)
            out[frozenset(keep)] = table.max(axis=drop, keepdims=True)
    return out


def triplets(n: int) -> list[tuple]:
    """All ordered disjoint (a, b, c) over n axes with a and b nonempty."""
    out = []
    for buckets in itertools.product((0, 1, 2, 3), repeat=n):
        a = frozenset(i for i, k in enumerate(buckets) if k == 1)
        b = frozenset(i for i, k in enumerate(buckets) if k == 2)
        if a and b:
            out.append((a, b, frozenset(i for i, k in enumerate(buckets) if k == 3)))
    return out


def _parts(lattice, t):
    a, b, c = t
    return lattice[a | b | c], lattice[c], lattice[a | c], lattice[b | c]


def _zero_pattern_ok(lattice, x, y, c, eps) -> bool:
    # wherever the c-marginal is positive and some y-completion is impossible,
    # the xc-marginal must equal the c-marginal
    m_c, m_xc, m_yc = lattice[c], lattice[x | c], lattice[y | c]
    some_y_zero = np.any(m_yc <= eps, axis=tuple(x | y), keepdims=True)
    return not np.any((m_c > eps) & some_y_zero & (np.abs(m_xc - m_c) > eps))


def closed_form(lattice, t, family: str, power: float, kind: str, eps: float = EPS) -> bool:
    """Membership of t by the family's closed form over the marginals.

    family is "min", "luka" or "prod"; kind is "independence" or
    "noninteractivity".  These are the criteria of characterize_min_i/_ni,
    characterize_luka/_luka_ni and characterize_product_i/_ni.
    """
    abc, c, ac, bc = _parts(lattice, t)
    if family == "min":
        ok = np.max(np.abs(abc - np.minimum(ac, bc))) <= eps
        if kind == "independence":
            ok = ok and np.max(np.abs(c - np.maximum(ac, bc))) <= eps
        return bool(ok)
    g = (lambda x: x) if power == 1.0 else (lambda x: x**power)
    if family == "luka":
        if kind == "independence":
            return bool(np.max(np.abs((g(abc) + g(c)) - (g(ac) + g(bc)))) <= eps)
        abc, c, ac, bc = g(abc), g(c), g(ac), g(bc)
        additive = np.abs((abc + c) - (ac + bc)) <= eps
        clamp = (c >= 1.0 - eps) & (abc <= eps) & (ac + bc <= 1.0 + eps)
        return bool(np.all(additive | clamp))
    if family == "prod":
        ok = np.max(np.abs(g(abc) * g(c) - g(ac) * g(bc))) <= eps
        if kind == "independence" and ok:
            a, b, cc = t
            ok = _zero_pattern_ok(lattice, a, b, cc, eps) and _zero_pattern_ok(
                lattice, b, a, cc, eps
            )
        return bool(ok)
    raise ValueError(f"unknown family {family!r}")


def relation(lattice, n: int, family: str, power: float, kind: str) -> frozenset:
    """Every triplet over n axes whose closed form holds."""
    return frozenset(t for t in triplets(n) if closed_form(lattice, t, family, power, kind))


def residuum(family: str, power: float, a, b):
    """sup{s : conj(s, a) <= b}, written from each family's definition."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    g = (lambda x: x) if power == 1.0 else (lambda x: x**power)
    gi = (lambda y: y) if power == 1.0 else (lambda y: y ** (1.0 / power))
    if family == "min":
        below = b
    elif family == "luka":
        below = gi(np.clip(1.0 - g(a) + g(b), 0.0, 1.0))
    elif family == "prod":
        with np.errstate(divide="ignore", invalid="ignore"):
            below = gi(np.where(a > 0, g(b) / np.where(a > 0, g(a), 1.0), 1.0))
    else:
        raise ValueError(f"unknown family {family!r}")
    return np.where(b >= a, 1.0, below)


def _subsets(s: frozenset):
    """Nonempty subsets of s."""
    items = sorted(s)
    for r in range(1, len(items) + 1):
        for combo in itertools.combinations(items, r):
            yield frozenset(combo)


def axiom_counterexamples(rel: frozenset) -> dict:
    """Counterexamples of each graphoid axiom, as sets of (premises, conclusion).

    Premise patterns follow the semigraphoid and graphoid axioms: symmetry,
    decomposition, weak union, contraction (a;b|d and a;c|b+d give
    a;b+c|d) and intersection (a;b|c+d and a;c|b+d give a;b+c|d).  Pairs
    are found by lookup, not by scanning every pair of members.
    """
    out = {name: set() for name in ("symmetry", "decomposition", "weak_union",
                                    "contraction", "intersection")}
    by_ac = defaultdict(list)
    for t in rel:
        by_ac[(t[0], t[2])].append(t)
    for t in rel:
        a, b, c = t
        if (b, a, c) not in rel:
            out["symmetry"].add(((t,), (b, a, c)))
        for kept in _subsets(b):
            if (a, kept, c) not in rel:
                out["decomposition"].add(((t,), (a, kept, c)))
            wu = (a, kept, c | (b - kept))
            if wu not in rel:
                out["weak_union"].add(((t,), wu))
        for t2 in by_ac.get((a, b | c), ()):
            concl = (a, b | t2[1], c)
            if concl not in rel:
                out["contraction"].add(((t, t2), concl))
        for moved in _subsets(c):
            d = c - moved
            t2 = (a, moved, b | d)
            if t2 in rel:
                concl = (a, b | moved, d)
                if concl not in rel:
                    out["intersection"].add(((t, t2), concl))
    return out
