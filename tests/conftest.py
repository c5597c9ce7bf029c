"""Shared fixtures, independent oracles and hypothesis strategies."""

import re

import numpy as np
import pytest
from hypothesis import strategies as st

from possind import Distribution, build_space, one_sided_min_dist, two_peak_dist

GRID = 10

#: Values no count argument takes: a bool, floats (an integral one too)
#: and a string.
NOT_COUNTS = [True, 2.5, 10.0, np.float64(3), "3"]


def not_a_count(name, value):
    """The pattern of the ValueError refusing `value` as the count `name`."""
    return re.escape(f"{name} must be an integer, got {value!r}")


#: One shared 3-binary-variable space; immutable, safe to reuse.
SPACE3 = build_space([("X1", ("0", "1")), ("X2", ("0", "1")), ("X3", ("0", "1"))])


@pytest.fixture
def space3():
    return SPACE3


@pytest.fixture
def one_sided():
    return one_sided_min_dist()


@pytest.fixture
def two_peak():
    return two_peak_dist()


def brute_marginal(dist, keep):
    """Independent max-projection oracle: plain dict/loop, no axis reductions."""
    keep = dist.space.subset(keep)
    out = {}
    for assignment, value in dist.items():
        key = tuple(assignment[n] for n in keep)
        out[key] = max(out.get(key, 0.0), value)
    return out


def grid_values(n, grid=GRID):
    return st.lists(st.integers(0, grid), min_size=n, max_size=n).map(
        lambda ks: [k / grid for k in ks]
    )


@st.composite
def distributions3(draw, normalised=True, strictly_positive=False):
    """Random grid-valued distribution over the shared 3-variable space."""
    lo = 1 if strictly_positive else 0
    ks = draw(st.lists(st.integers(lo, GRID), min_size=8, max_size=8))
    values = [k / GRID for k in ks]
    if normalised:
        values[draw(st.integers(0, 7))] = 1.0
    table = np.reshape(values, (2, 2, 2))
    return Distribution(SPACE3, SPACE3.names, table)


def triplets3():
    from possind import enumerate_triplets

    return st.sampled_from(enumerate_triplets(SPACE3))
