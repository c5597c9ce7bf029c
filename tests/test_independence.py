"""Conditioning, membership tests, characterizations and the constructor."""

import math
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from possind import (
    BadTriplet,
    Conjunction,
    Distribution,
    FuzzConfig,
    Generator,
    IndependenceRelation,
    LukasiewiczLike,
    Min,
    NotNormalised,
    OutOfRange,
    ProductLike,
    RelationKind,
    ScopeMismatch,
    TooLarge,
    TooSmall,
    Triplet,
    build_space,
    characterize_luka,
    characterize_luka_ni,
    characterize_min_i,
    characterize_min_ni,
    characterize_product_i,
    characterize_product_ni,
    condition,
    construct_luka_instance,
    enumerate_relation,
    enumerate_triplets,
    fuzz_properties,
    in_independence,
    in_noninteractivity,
    make_distribution,
    parse_conjunction,
    random_distribution,
)
from possind import graphoid, independence
from possind.core import _mask_tables, triplets_from_masks
from possind.independence import CROSSOVER_CELLS

from conftest import NOT_COUNTS, SPACE3, distributions3, not_a_count, triplets3

MIN, LUKA, PROD = Min(), LukasiewiczLike(), ProductLike()
ALL_FAMILIES = (MIN, LUKA, PROD, LukasiewiczLike(Generator(2.0)), ProductLike(Generator(2.0)))


def uniform3():
    return make_distribution(SPACE3, SPACE3.names, [(a, 1.0) for a in SPACE3.assignments()])


def single_atom3():
    """Exactly one fully possible assignment; every other degree is 0."""
    return make_distribution(SPACE3, SPACE3.names, [({"X1": "0", "X2": "0", "X3": "0"}, 1.0)])


class TestCondition:
    def test_one_sided_min_conditional(self, one_sided):
        cond = condition(one_sided, "X1", "X3", MIN)
        for x3 in ("0", "1"):
            assert cond.at({"X1": "0", "X3": x3}) == 0.6
            assert cond.at({"X1": "1", "X3": x3}) == 1.0

    def test_uniform_conditional_is_constant_one(self):
        dist = uniform3()
        for conj in ALL_FAMILIES:
            cond = condition(dist, "X1", ("X2", "X3"), conj)
            assert np.all(cond.table == 1.0)

    def test_product_division_on_two_variables(self):
        space = build_space([("X1", ["0", "1"]), ("X2", ["0", "1"])])
        dist = make_distribution(
            space,
            space.names,
            [
                ({"X1": "0", "X2": "0"}, 1.0),
                ({"X1": "0", "X2": "1"}, 0.5),
                ({"X1": "1", "X2": "0"}, 0.8),
                ({"X1": "1", "X2": "1"}, 0.4),
            ],
        )
        cond = condition(dist, "X1", "X2", PROD)
        assert cond.at({"X1": "0", "X2": "0"}) == 1.0
        assert cond.at({"X1": "1", "X2": "0"}) == pytest.approx(0.8, abs=1e-12)
        assert cond.at({"X1": "0", "X2": "1"}) == 1.0
        assert cond.at({"X1": "1", "X2": "1"}) == pytest.approx(0.8, abs=1e-12)

    def test_empty_given_returns_the_marginal(self, one_sided):
        for conj in ALL_FAMILIES:
            cond = condition(one_sided, ("X1", "X2"), (), conj)
            assert cond.equal_within(one_sided.marginalize(("X1", "X2")), 0.0)

    def test_conditionals_are_normalised(self, one_sided, two_peak):
        for dist in (one_sided, two_peak):
            for conj in ALL_FAMILIES:
                assert condition(dist, "X1", "X3", conj).normalised

    def test_requires_normalised_input(self):
        half = make_distribution(
            SPACE3, SPACE3.names, [({"X1": "0", "X2": "0", "X3": "0"}, 0.5)]
        )
        with pytest.raises(NotNormalised):
            condition(half, "X1", "X2", MIN)

    def test_rejects_overlapping_sets(self, one_sided):
        with pytest.raises(ScopeMismatch):
            condition(one_sided, ("X1", "X2"), "X2", MIN)

    def test_rejects_sets_outside_scope(self, one_sided):
        marginal = one_sided.marginalize(("X1", "X2"))
        with pytest.raises(ScopeMismatch):
            condition(marginal, "X1", "X3", MIN)

    def test_product_power_two_survives_underflowing_degrees(self):
        # phi(1e-200) and phi(1e-201) underflow to 0 under pow=2; the
        # conditional must still be the quotient, not 0 / 0
        space = build_space([("X1", ["0", "1"]), ("X2", ["0", "1"])])
        dist = Distribution(space, space.names, [[1.0, 1e-201], [1e-200, 1e-201]])
        cond = condition(dist, "X2", "X1", ProductLike(Generator(2.0)))
        assert cond.at({"X1": "1", "X2": "0"}) == 1.0
        assert cond.at({"X1": "1", "X2": "1"}) == pytest.approx(0.1, abs=1e-12)
        assert cond.at({"X1": "0", "X2": "1"}) <= 1e-200

    def test_every_family_on_a_shared_distribution_matches_a_fresh_one(self, one_sided):
        for conj in ALL_FAMILIES:
            shared = condition(one_sided, "X1", ("X2", "X3"), conj)
            fresh = condition(
                Distribution(one_sided.space, one_sided.scope, one_sided.table),
                "X1", ("X2", "X3"), conj,
            )
            assert np.array_equal(shared.table, fresh.table)

    @settings(max_examples=50, deadline=None)
    @given(dist=distributions3(), conj=st.sampled_from(ALL_FAMILIES))
    def test_conjoining_back_recovers_the_joint(self, dist, conj):
        # c(cond(a|b), pi_b) == pi_{a+b} for every family
        cond = condition(dist, "X1", ("X2", "X3"), conj)
        given_marginal = dist.marginalize(("X2", "X3")).extend(cond.scope)
        recovered = conj.conjoin(cond.table, given_marginal.table)
        joint = dist.marginalize(cond.scope).table
        assert np.max(np.abs(recovered - joint)) <= 1e-9


class TestIndependenceMembership:
    def test_one_sided_min_fails_on_the_second_equality_only(self, one_sided):
        first_lhs = condition(one_sided, "X1", ("X2", "X3"), MIN)
        first_rhs = condition(one_sided, "X1", "X3", MIN)
        assert first_lhs.equal_within(first_rhs, 1e-9)
        second_lhs = condition(one_sided, "X2", ("X1", "X3"), MIN)
        second_rhs = condition(one_sided, "X2", "X3", MIN)
        assert not second_lhs.equal_within(second_rhs, 1e-9)

        evidence = in_independence(one_sided, Triplet.of("X1", "X2", "X3"), MIN)
        assert not evidence.verdict
        assert not bool(evidence)
        assert len(evidence.witnesses) == 2
        w = evidence.witnesses[0]
        assert w.assignment == {"X1": "0", "X2": "0", "X3": "0"}
        assert (w.left, w.right) == (1.0, 0.7)

    def test_uniform_distribution_satisfies_every_triplet(self):
        dist = uniform3()
        for conj in ALL_FAMILIES:
            for t in enumerate_triplets(SPACE3):
                assert in_independence(dist, t, conj).verdict
                assert in_noninteractivity(dist, t, conj).verdict

    def test_two_peak_separates_independence_from_noninteractivity(self, two_peak):
        t = Triplet.of("X1", "X2", "X3")
        assert in_noninteractivity(two_peak, t, PROD).verdict
        evidence = in_independence(two_peak, t, PROD)
        assert not evidence.verdict and evidence.witnesses

    def test_two_peak_noninteractivity_memberships(self, two_peak):
        assert in_noninteractivity(two_peak, Triplet.of("X1", "X2", "X3"), PROD).verdict
        assert in_noninteractivity(two_peak, Triplet.of("X1", "X3", "X2"), PROD).verdict
        grouped = Triplet.of("X1", ("X2", "X3"), ())
        evidence = in_noninteractivity(two_peak, grouped, PROD)
        assert not evidence.verdict
        # the gap sits where the joint is 0 but both marginals are fully possible
        gap = {"X1": "2", "X2": "1", "X3": "-1"}
        assert any(w.assignment == gap and w.left == 0.0 and w.right == 1.0
                   for w in evidence.witnesses)

    @settings(max_examples=40, deadline=None)
    @given(dist=distributions3(), t=triplets3(), conj=st.sampled_from(ALL_FAMILIES))
    def test_membership_is_symmetric_in_the_first_two_parts(self, dist, t, conj):
        swapped = Triplet(t.b, t.a, t.c)
        assert (
            in_independence(dist, t, conj).verdict
            == in_independence(dist, swapped, conj).verdict
        )

    def test_witnesses_empty_exactly_when_verdict_true(self, one_sided):
        for t in enumerate_triplets(SPACE3):
            for conj in (MIN, PROD):
                ev = in_independence(one_sided, t, conj)
                assert ev.verdict == (not ev.witnesses)

    def test_rejects_triplet_with_unknown_variable(self, one_sided):
        with pytest.raises(BadTriplet):
            in_independence(one_sided, Triplet.of("X1", "Y9", ()), MIN)

    def test_rejects_triplet_outside_the_distribution_scope(self, one_sided):
        # X3 is a variable of the space but not of the marginal's scope
        marginal = one_sided.marginalize(("X1", "X2"))
        t = Triplet.of("X1", "X2", "X3")
        checks = [lambda d, t: in_independence(d, t, MIN),
                  lambda d, t: in_noninteractivity(d, t, PROD),
                  characterize_min_i, characterize_min_ni, characterize_luka,
                  characterize_luka_ni, characterize_product_i, characterize_product_ni]
        for check in checks:
            with pytest.raises(BadTriplet, match="outside the distribution scope"):
                check(marginal, t)

    def test_rejects_non_normalised(self):
        half = make_distribution(
            SPACE3, SPACE3.names, [({"X1": "0", "X2": "0", "X3": "0"}, 0.5)]
        )
        with pytest.raises(NotNormalised):
            in_independence(half, Triplet.of("X1", "X2", "X3"), MIN)


class TestLukaCharacterization:
    def test_uniform_is_trivially_true(self):
        assert characterize_luka(uniform3(), Triplet.of("X1", "X2", "X3"))

    def test_one_sided_matches_direct_definition(self, one_sided):
        t = Triplet.of("X1", "X2", "X3")
        direct = in_independence(one_sided, t, LUKA).verdict
        assert characterize_luka(one_sided, t) == direct is False

    @settings(max_examples=80, deadline=None)
    @given(
        dist=distributions3(),
        t=triplets3(),
        power=st.sampled_from([1.0, 2.0]),
    )
    def test_equivalent_to_direct_independence(self, dist, t, power):
        g = Generator(power)
        direct = in_independence(dist, t, LukasiewiczLike(g)).verdict
        assert characterize_luka(dist, t, g) == direct

    @settings(max_examples=80, deadline=None)
    @given(
        dist=distributions3(strictly_positive=True),
        t=triplets3(),
        power=st.sampled_from([1.0, 2.0]),
    )
    def test_triple_equivalence_on_strictly_positive_tables(self, dist, t, power):
        g = Generator(power)
        conj = LukasiewiczLike(g)
        i = in_independence(dist, t, conj).verdict
        ni = in_noninteractivity(dist, t, conj).verdict
        assert i == ni == characterize_luka(dist, t, g)

    def test_single_atom_gap_between_noninteractivity_and_independence(self):
        # With zeros present, the clamped conjunction can reproduce the
        # impossible joint conditional even though conditioning does not
        # forget the other block, so no-interactivity is strictly wider than
        # independence.  The additive criterion sides with independence and
        # the clamp-aware criterion with no-interactivity; acceptance
        # criterion 3 asserts exactly this.  PAPER.md holds only the
        # abstract, which does not settle whether the paper's equivalence
        # is meant for strictly positive tables only.
        dist = single_atom3()
        t = Triplet.of("X1", "X2", "X3")
        assert in_noninteractivity(dist, t, LUKA).verdict
        assert not in_independence(dist, t, LUKA).verdict
        assert not characterize_luka(dist, t)
        assert characterize_luka_ni(dist, t)

    @pytest.mark.parametrize("power", [1.0, 2.0])
    def test_gap_with_positive_pair_marginals(self, power):
        # The gap point (0, 0, 0) has pair marginals 0.3 and 0.3 and a
        # fully possible c-marginal: the conjunction of the conditionals
        # clamps to 0 there, so the gap does not come from conditioning on
        # an impossible event.
        dist = make_distribution(
            SPACE3,
            SPACE3.names,
            [
                ({"X1": "0", "X2": "1", "X3": "0"}, 0.3),
                ({"X1": "1", "X2": "0", "X3": "0"}, 0.3),
                ({"X1": "1", "X2": "1", "X3": "0"}, 1.0),
            ],
        )
        g = Generator(power)
        conj = LukasiewiczLike(g)
        t = Triplet.of("X1", "X2", "X3")
        assert in_noninteractivity(dist, t, conj).verdict
        evidence = in_independence(dist, t, conj)
        assert not evidence.verdict
        assert {"X1": "0", "X2": "0", "X3": "0"} in [w.assignment for w in evidence.witnesses]
        assert not characterize_luka(dist, t, g)
        assert characterize_luka_ni(dist, t, g)

    @settings(max_examples=80, deadline=None)
    @given(
        dist=distributions3(),
        t=triplets3(),
        power=st.sampled_from([1.0, 2.0]),
    )
    def test_clamp_aware_form_equivalent_to_direct_noninteractivity(self, dist, t, power):
        g = Generator(power)
        direct = in_noninteractivity(dist, t, LukasiewiczLike(g)).verdict
        assert characterize_luka_ni(dist, t, g) == direct

    @settings(max_examples=80, deadline=None)
    @given(
        dist=distributions3(),
        t=triplets3(),
        power=st.sampled_from([1.0, 2.0]),
    )
    def test_independence_implies_noninteractivity(self, dist, t, power):
        conj = LukasiewiczLike(Generator(power))
        if in_independence(dist, t, conj).verdict:
            assert in_noninteractivity(dist, t, conj).verdict


class TestProductCharacterization:
    def test_two_peak_values(self, two_peak):
        t = Triplet.of("X1", "X2", "X3")
        grouped = Triplet.of("X1", ("X2", "X3"), ())
        assert characterize_product_ni(two_peak, t)
        assert not characterize_product_ni(two_peak, grouped)
        assert not characterize_product_i(two_peak, t)

    def test_uniform_is_trivially_true(self):
        t = Triplet.of("X1", "X2", "X3")
        assert characterize_product_ni(uniform3(), t)
        assert characterize_product_i(uniform3(), t)

    @settings(max_examples=80, deadline=None)
    @given(
        dist=distributions3(),
        t=triplets3(),
        power=st.sampled_from([1.0, 2.0]),
    )
    def test_equivalent_to_direct_definitions(self, dist, t, power):
        g = Generator(power)
        conj = ProductLike(g)
        assert characterize_product_ni(dist, t, g) == in_noninteractivity(dist, t, conj).verdict
        assert characterize_product_i(dist, t, g) == in_independence(dist, t, conj).verdict

    @settings(max_examples=60, deadline=None)
    @given(dist=distributions3(strictly_positive=True), t=triplets3())
    def test_strictly_positive_collapses_independence_to_noninteractivity(self, dist, t):
        assert characterize_product_i(dist, t) == characterize_product_ni(dist, t)


class TestMinCharacterization:
    def test_one_sided_values(self, one_sided):
        t = Triplet.of("X1", "X2", "X3")
        assert characterize_min_ni(one_sided, t)
        assert characterize_min_i(one_sided, t) == in_independence(one_sided, t, MIN).verdict is False

    def test_two_peak_values(self, two_peak):
        assert characterize_min_ni(two_peak, Triplet.of("X1", "X2", "X3"))
        assert not characterize_min_ni(two_peak, Triplet.of("X1", ("X2", "X3"), ()))

    def test_uniform_is_trivially_true(self):
        t = Triplet.of("X1", "X2", "X3")
        assert characterize_min_i(uniform3(), t)
        assert characterize_min_ni(uniform3(), t)

    @settings(max_examples=80, deadline=None)
    @given(dist=distributions3(), t=triplets3())
    def test_equivalent_to_direct_definitions(self, dist, t):
        assert characterize_min_i(dist, t) == in_independence(dist, t, MIN).verdict
        assert characterize_min_ni(dist, t) == in_noninteractivity(dist, t, MIN).verdict


class TestConstructor:
    @pytest.mark.parametrize("power", [1.0, 2.0])
    @pytest.mark.parametrize("seed", [0, 1, 7, 23, 99])
    def test_constructed_instances_are_independent(self, power, seed):
        g = Generator(power)
        t = Triplet.of("X1", "X2", "X3")
        dist, returned = construct_luka_instance(SPACE3, t, g, seed=seed)
        assert returned == t
        assert dist.normalised
        assert in_independence(dist, t, LukasiewiczLike(g)).verdict

    def test_empty_conditioning_set_works(self):
        t = Triplet.of("X1", ("X2", "X3"), ())
        dist, _ = construct_luka_instance(SPACE3, t, seed=5)
        assert dist.normalised
        assert in_independence(dist, t, LUKA).verdict

    def test_deterministic_for_fixed_seed(self):
        t = Triplet.of("X1", "X2", "X3")
        d1, _ = construct_luka_instance(SPACE3, t, seed=42)
        d2, _ = construct_luka_instance(SPACE3, t, seed=42)
        assert np.array_equal(d1.table, d2.table)
        d3, _ = construct_luka_instance(SPACE3, t, seed=43)
        assert not np.array_equal(d1.table, d3.table)

    @pytest.mark.parametrize("power", [1.0, 2.0])
    @pytest.mark.parametrize("grid", [10**12, 2**63 - 1])
    def test_huge_grids_return_at_once(self, grid, power):
        # the smallest step is bisected, not walked, so the grid's size costs nothing
        t = Triplet.of("X1", "X2", "X3")
        started = time.perf_counter()
        dist, _ = construct_luka_instance(SPACE3, t, Generator(power), seed=1, grid=grid)
        assert time.perf_counter() - started < 1.0
        assert dist.normalised
        assert in_independence(dist, t, LukasiewiczLike(Generator(power))).verdict

    @pytest.mark.parametrize("grid, message", [
        (0, "grid must be >= 1, got 0"),
        (-3, "grid must be >= 1, got -3"),
        (2**63, "grid must be <= 9223372036854775807, got 9223372036854775808"),
        *[pytest.param(grid, not_a_count("grid", grid), id=repr(grid)) for grid in NOT_COUNTS],
    ])
    def test_grids_numpy_cannot_draw_are_refused(self, grid, message):
        with pytest.raises(ValueError, match=message):
            construct_luka_instance(SPACE3, Triplet.of("X1", "X2", "X3"), grid=grid)

    @pytest.mark.parametrize("grid", [10, 2**63 - 1])
    def test_a_numpy_integer_grid_draws_the_same_instance(self, grid):
        t = Triplet.of("X1", "X2", "X3")
        numpy, _ = construct_luka_instance(SPACE3, t, seed=4, grid=np.int64(grid))
        plain, _ = construct_luka_instance(SPACE3, t, seed=4, grid=grid)
        assert np.array_equal(numpy.table, plain.table)

    def test_factor_values_stay_on_the_grid(self):
        t = Triplet.of("X1", "X2", "X3")
        dist, _ = construct_luka_instance(SPACE3, t, seed=11, grid=10)
        # identity generator conjunction of grid factors stays near the grid
        assert np.all(dist.table * 10 == pytest.approx(np.round(dist.table * 10), abs=1e-9))


MIXED = build_space([("X1", ("0",)), ("X2", ("0", "1", "2")), ("X3", ("0", "1"))])
WIDE = build_space([("X1", "012"), ("X2", "01"), ("X3", "0123")])

# Tables drawn by the constructor, pinned so that a change of draw order shows.
PINNED_INSTANCES = {
    "space3-pow1": (SPACE3, ("X1", "X2", "X3"), 1.0, 3, 10,
                    [[[0.6, 0.0], [0.2999999999999998, 0.0]], [[1.0, 0.0], [0.7, 0.0]]]),
    "space3-pow2": (SPACE3, ("X1", "X2", "X3"), 2.0, 3, 10,
                    [[[0.8, 0.5291502622129184], [0.670820393249937, 0.5291502622129184]],
                     [[1.0, 0.5291502622129184], [0.9, 0.5291502622129184]]]),
    "empty-c": (SPACE3, ("X1", ("X2", "X3"), ()), 1.0, 5, 10,
                [[[0.6000000000000001, 0.7000000000000002], [0.7000000000000002, 0.9]],
                 [[0.7, 0.8], [0.8, 1.0]]]),
    "mixed-grid1": (MIXED, ("X2", "X1", "X3"), 1.0, 4, 1,
                    [[[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]]]),
    "mixed-grid3": (MIXED, ("X2", "X1", "X3"), 1.0, 4, 3,
                    [[[1.0, 1.0], [1.0, 1.0], [0.6666666666666666, 0.6666666666666666]]]),
    "mixed-grid10": (MIXED, ("X2", "X1", "X3"), 0.5, 4, 10,
                     [[[0.5344885196415935, 1.0], [0.6222912360003364, 1.0],
                       [0.1954964001031073, 0.6]]]),
    "mixed-empty-c": (MIXED, ("X1", "X3", ()), 2.0, 2, 10, [[1.0, 0.8]]),
    "wide": (WIDE, ("X1", "X3", "X2"), 1.0, 6, 10,
             [[[0.3999999999999999] * 4, [0.6, 0.9, 1.0, 0.7]],
              [[0.3999999999999999] * 4, [0.3999999999999999, 0.7000000000000002, 0.8, 0.5]],
              [[0.3999999999999999] * 4,
               [0.2999999999999998, 0.6000000000000001, 0.7, 0.3999999999999999]]]),
}


class TestPinnedConstructions:
    @pytest.mark.parametrize("case", PINNED_INSTANCES)
    def test_table_is_bit_identical_to_the_pinned_draw(self, case):
        space, parts, power, seed, grid, expected = PINNED_INSTANCES[case]
        t = Triplet.of(*parts)
        dist, _ = construct_luka_instance(space, t, Generator(power), seed=seed, grid=grid)
        assert dist.scope == space.subset(t.a | t.b | t.c)
        assert dist.table.tobytes() == np.array(expected).tobytes()
        assert dist.normalised
        assert in_independence(dist, t, LukasiewiczLike(Generator(power))).verdict


class TestEnumerateRelation:
    def test_uniform_relation_contains_all_18_triplets(self):
        rel = enumerate_relation(uniform3(), MIN, RelationKind.INDEPENDENCE)
        assert len(rel) == 18

    def test_two_peak_product_noninteractivity_members(self, two_peak):
        rel = enumerate_relation(two_peak, PROD, RelationKind.NON_INTERACTIVITY)
        assert Triplet.of("X1", "X2", "X3") in rel
        assert Triplet.of("X1", "X3", "X2") in rel
        assert Triplet.of("X1", ("X2", "X3"), ()) not in rel
        assert len(rel) == 6

    def test_relation_kind_accepts_plain_strings(self, two_peak):
        rel = enumerate_relation(two_peak, PROD, "noninteractivity")
        assert len(rel) == 6

    def test_induced_relations_are_symmetric(self, one_sided):
        for conj in (MIN, PROD, LUKA):
            for kind in RelationKind:
                rel = enumerate_relation(one_sided, conj, kind)
                for t in rel:
                    assert Triplet(t.b, t.a, t.c) in rel

    def test_guard_rejects_huge_spaces(self):
        space9 = build_space([(f"X{i}", ["0", "1"]) for i in range(9)])
        table = np.zeros([2] * 9)
        table.flat[0] = 1.0
        dist = Distribution(space9, space9.names, table)
        with pytest.raises(TooLarge):
            enumerate_relation(dist, MIN, RelationKind.INDEPENDENCE)

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_variables_rejected(self, n):
        # no triplet has two nonempty parts there, so every relation would be vacuously empty
        space = build_space([(f"X{i + 1}", ("0", "1")) for i in range(n)])
        dist = Distribution(space, space.names, np.ones((2,) * n))
        for kind in RelationKind:
            with pytest.raises(TooSmall):
                enumerate_relation(dist, MIN, kind)

    def test_requires_normalised(self):
        half = make_distribution(
            SPACE3, SPACE3.names, [({"X1": "0", "X2": "0", "X3": "0"}, 0.5)]
        )
        with pytest.raises(NotNormalised):
            enumerate_relation(half, MIN, RelationKind.INDEPENDENCE)


ROUTE_FAMILIES = tuple(
    parse_conjunction(spec) for spec in ("min", "luka", "luka:pow=2", "prod", "prod:pow=2")
)


def _grid_table(shape, seed):
    """A grid-valued table with zeros and a 1, drawn from `seed`."""
    rng = np.random.default_rng(seed)
    table = rng.integers(0, 11, size=shape) / 10
    table.flat[rng.choice(table.size, size=2, replace=False)] = 0.0
    table.flat[rng.integers(0, table.size)] = 1.0
    return table


def seeded_tables():
    """Grid-valued 3- and 4-variable tables, each with zeros and a 1."""
    out = []
    for n, seeds in ((3, range(6)), (4, range(3))):
        space = build_space([(f"X{i + 1}", ("0", "1")) for i in range(n)])
        out += [(space, _grid_table((2,) * n, seed)) for seed in seeds]
    return out


def mixed_tables():
    """Grid-valued tables on mixed frame sizes, shapes interleaved: (2,3,2)
    and (3,2,2) group their scopes differently."""
    out = []
    for seed in range(2):
        for shape in ((2, 3, 2), (3, 2, 2), (1, 3, 2), (2, 3, 2, 3)):
            space = build_space([(f"X{i + 1}", [str(v) for v in range(f)])
                                 for i, f in enumerate(shape)])
            out.append((space, _grid_table(shape, seed)))
    return out


def _factor(rng, shape):
    factor = rng.integers(1, 11, size=shape) / 10
    factor.flat[rng.integers(0, factor.size)] = 1.0
    return factor


def crossover_tables():
    """3-variable block tables: with frames of 12 the whole scope is
    enumerated in several blocks, with frames of 13 one triplet at a time;
    pair scopes stay below the crossover in both."""
    rng = np.random.default_rng(0)
    out = []
    for f, combine in ((12, np.multiply), (13, np.minimum)):
        space = build_space([(f"X{i + 1}", [str(v) for v in range(f)]) for i in range(3)])
        out.append((space, combine(_factor(rng, (f, 1, 1)), _factor(rng, (1, f, f)))))
    return out


def evidence_record(dist, t, conj):
    return [
        (ev.verdict, [(w.assignment, w.left, w.right) for w in ev.witnesses])
        for ev in (in_independence(dist, t, conj), in_noninteractivity(dist, t, conj))
    ]


class TestRoutesAgree:
    """Enumeration and the witness-building tests reach the same verdicts,
    on one shared distribution and on fresh ones."""

    @pytest.mark.parametrize("kind", list(RelationKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("conj", ROUTE_FAMILIES, ids=str)
    def test_enumeration_equals_membership_tests(self, conj, kind):
        test = in_independence if kind is RelationKind.INDEPENDENCE else in_noninteractivity
        for space, table in seeded_tables() + mixed_tables() + crossover_tables():
            dist = Distribution(space, space.names, table)
            members = enumerate_relation(dist, conj, kind).members
            fresh = Distribution(space, space.names, table)
            expected = {t for t in enumerate_triplets(space) if test(fresh, t, conj).verdict}
            assert members == expected

    def test_crossover_tables_straddle_both_regimes(self):
        # 12 candidates span all 3 variables: with frames of 12 their
        # conditionals take several blocks, with frames of 13 they are
        # evaluated one by one; pair scopes take blocks in both
        for f in (12, 13):
            (_, pairs), (candidates, whole) = independence._plan((f,) * 3)[1]
            assert len(candidates) == 12 and pairs is not None
            if f == 12:
                assert len(whole[-1]) > 1  # the route's blocks
            else:
                assert whole is None

    @pytest.mark.parametrize("kind", list(RelationKind), ids=lambda k: k.value)
    def test_groups_past_the_crossover_keep_only_their_candidate_rows(self, kind):
        operands, groups = independence._plan((13,) * 3)
        assert [route is None for _, route in groups] == [False, True]
        # the block route reads the lattice entries of the pair scopes only: an
        # entry of the extended table drops the axes where it is at the frame size
        coords = np.unravel_index(operands, (14,) * 3)
        read = sum((coord < 13) << axis for axis, coord in enumerate(coords))
        assert sorted(set(read.ravel().tolist())) == [0, 1, 2, 3, 4, 5, 6]
        # the pair route holds, per candidate of scope q, the rows 3q + g of
        # its two left sides, given g = b | c and given g = c, and the position of
        # its mirror (b ; a | c) in its block: all six candidates share one block
        candidates, route = groups[0]
        index, left, mirror = route[1], route[2], route[3]
        assert candidates.tolist() == [[1, 2, 0], [2, 1, 0], [1, 4, 0], [4, 1, 0],
                                       [2, 4, 0], [4, 2, 0]]
        assert left.tolist() == [[2, 0], [1, 0], [5, 3], [4, 3], [8, 6], [7, 6]]
        assert mirror.tolist() == [1, 0, 3, 2, 5, 4]
        # each kind's left side is one of the two: (X1 ; X2) conditions on {X2} or on {}
        (_, given), *_ = independence._side_pairs(kind, 1, 2, 0)[0]
        assert left[0, 0 if kind is RelationKind.INDEPENDENCE else 1] == given
        # the plan holds each candidate's right-side gather index, over the cells
        # of its frame in C order: where its split a | c starts, plus the offset
        # of each cell on the frame of a | c, and there the operands read the
        # lattice entries of c and of a | c
        assert index.dtype == np.int32 and not index.flags.writeable
        assert index.shape == (len(candidates), 13 * 13)
        cell = np.indices((13, 13)).reshape(2, -1)
        for (a, b, c), row in zip(candidates.tolist(), index):
            axes = [axis for axis in range(3) if (a | b | c) >> axis & 1]

            def entry(mask):
                at = np.full((3, cell.shape[1]), 13)
                for k, axis in enumerate(axes):
                    if mask >> axis & 1:
                        at[axis] = cell[k]
                return np.ravel_multi_index(at, (14,) * 3)

            kept = [k for k, axis in enumerate(axes) if (a | c) >> axis & 1]
            offsets = np.ravel_multi_index(cell[kept], (13,) * len(kept))
            assert np.array_equal(row, row[0] + offsets)
            assert np.array_equal(operands[:, row], [entry(c), entry(a | c)])

    @pytest.mark.parametrize("tile", [1, 23], ids=["blocks", "one-by-one"])
    def test_sides_differing_by_exactly_eps_are_members(self, tile):
        # cond(X2 | X1) and cond(X2) differ by 0.25 at X1=1, X2=1 and agree
        # elsewhere; tiling keeps every conditional and moves the 2-variable
        # scope past the crossover (46**2 cells)
        table = np.kron([[1.0, 0.75], [0.5, 0.5]], np.ones((tile, tile)))
        frame = [str(v) for v in range(2 * tile)]
        space = build_space([("X1", frame), ("X2", frame)])
        assert (table.size > CROSSOVER_CELLS) == (tile > 1)
        t = Triplet.of("X1", "X2")
        for eps, member in ((0.25, True), (0.125, False)):
            dist = Distribution(space, space.names, table)
            assert (t in enumerate_relation(dist, MIN, RelationKind.INDEPENDENCE, eps)) is member
            assert in_independence(dist, t, MIN, eps).verdict is member

    def test_memo_does_not_leak_between_conjunctions(self):
        for space, table in seeded_tables():
            shared = Distribution(space, space.names, table)
            for t in enumerate_triplets(space):
                for conj in ROUTE_FAMILIES:
                    fresh = Distribution(space, space.names, table)
                    assert evidence_record(shared, t, conj) == evidence_record(fresh, t, conj)


@dataclass(frozen=True)
class Hamacher(Conjunction):
    """The Hamacher product ab / (a + b - ab), a conjunction possind does not ship."""

    def _conjoin(self, aa, bb):
        den = aa + bb - aa * bb
        return np.where(den > 0, aa * bb / np.where(den > 0, den, 1.0), 0.0)

    def _residuum(self, aa, bb):
        den = aa - bb + aa * bb
        return np.where(bb >= aa, 1.0, aa * bb / np.where(bb >= aa, 1.0, den))

    def spec_string(self) -> str:
        return "hamacher"


@dataclass(frozen=True)
class OutOfUnit(Hamacher):
    def _residuum(self, aa, bb):
        return 1.5


@dataclass(frozen=True)
class NaiveHamacher(Hamacher):
    """ab / (a + b - ab) without the 0 at (0, 0), where it is 0/0: NaN."""

    def _conjoin(self, aa, bb):
        return np.where((aa == 0.0) & (bb == 0.0), np.nan, Hamacher._conjoin(self, aa, bb))


@dataclass(eq=True)
class UnhashableHamacher(Conjunction):
    """Hamacher as a mutable dataclass: eq=True without frozen sets __hash__ to None."""

    _conjoin = Hamacher._conjoin
    _residuum = Hamacher._residuum
    spec_string = Hamacher.spec_string


class TestCustomConjunction:
    @pytest.mark.parametrize("kind", list(RelationKind), ids=lambda k: k.value)
    def test_enumeration_equals_membership_tests(self, kind):
        test = in_independence if kind is RelationKind.INDEPENDENCE else in_noninteractivity
        space = build_space([(f"X{i + 1}", ("0", "1")) for i in range(4)])
        for seed in (2, 4, 9):  # seeds whose relations are not empty
            table = random_distribution(space, seed=seed).table
            members = enumerate_relation(Distribution(space, space.names, table), Hamacher(), kind)
            fresh = Distribution(space, space.names, table)
            expected = {t for t in enumerate_triplets(space) if test(fresh, t, Hamacher()).verdict}
            assert members.members == expected
            assert expected

    @pytest.mark.parametrize("frame", [2, 50], ids=["blocks", "one-by-one"])
    @pytest.mark.parametrize("kind", list(RelationKind), ids=lambda k: k.value)
    def test_out_of_range_conditionals_are_refused(self, frame, kind):
        test = in_independence if kind is RelationKind.INDEPENDENCE else in_noninteractivity
        space = build_space([(f"X{i + 1}", [str(v) for v in range(frame)]) for i in range(2)])
        dist = random_distribution(space, seed=0)
        with pytest.raises(OutOfRange):
            enumerate_relation(dist, OutOfUnit(), kind)
        with pytest.raises(OutOfRange):
            test(dist, Triplet.of("X1", "X2"), OutOfUnit())
        with pytest.raises(OutOfRange):
            condition(dist, "X1", "X2", OutOfUnit())

    @pytest.mark.parametrize("frame", [2, 50], ids=["blocks", "one-by-one"])
    def test_a_faulty_conjunction_between_valid_ones_is_refused(self, frame):
        # the stack's valid conjunctions do not hide the faulty one's degrees,
        # before (residua) and after (conjoined sides) the blocks gather
        space = build_space([(f"X{i + 1}", [str(v) for v in range(frame)]) for i in range(2)])
        nan_table = np.zeros((frame, frame))
        nan_table[0, 0] = 1.0
        for dist, faulty, kinds in (
                (random_distribution(space, seed=0), OutOfUnit(), tuple(RelationKind)),
                (Distribution(space, space.names, nan_table), NaiveHamacher(),
                 (RelationKind.NON_INTERACTIVITY,))):
            with pytest.raises(OutOfRange, match=r"^conditional degrees must lie in \[0, 1\]$"):
                independence._enumerate_relations(dist, (MIN, faulty, Hamacher()), kinds)

    @pytest.mark.parametrize("frame", [2, 50], ids=["blocks", "one-by-one"])
    def test_nan_conjoined_side_is_refused_on_both_routes(self, frame):
        # X1 and X2 each have an impossible value, so at that point both
        # right-side conditionals of (X1 ; X2) are 0 and their conjunction NaN
        space = build_space([(f"X{i + 1}", [str(v) for v in range(frame)]) for i in range(2)])
        table = np.zeros((frame, frame))
        table[0, 0] = 1.0
        dist = Distribution(space, space.names, table)
        with pytest.raises(OutOfRange):
            enumerate_relation(dist, NaiveHamacher(), RelationKind.NON_INTERACTIVITY)
        with pytest.raises(OutOfRange):
            in_noninteractivity(dist, Triplet.of("X1", "X2"), NaiveHamacher())
        # independence conjoins nothing, so it answers as Hamacher does
        independence = RelationKind.INDEPENDENCE
        assert enumerate_relation(dist, NaiveHamacher(), independence) == enumerate_relation(
            dist, Hamacher(), independence)

    @pytest.mark.parametrize("frame", [2, 50], ids=["blocks", "one-by-one"])
    def test_nan_conjoined_side_stops_a_fuzz_run(self, frame):
        # the table of the test above: its independence relation is a
        # graphoid, and its no-interactivity relation is refused
        space = build_space([(f"X{i + 1}", [str(v) for v in range(frame)]) for i in range(2)])
        table = np.zeros((frame, frame))
        table[0, 0] = 1.0
        config = FuzzConfig(trials=0, variables=2, frame_size=frame,
                            conjunctions=(NaiveHamacher(),),
                            inject=(Distribution(space, space.names, table),))
        with pytest.raises(OutOfRange):
            fuzz_properties(config)

    @pytest.mark.parametrize("f", [12, 13], ids=["blocks", "one-by-one"])
    def test_unhashable_conjunction_answers_as_its_hashable_twin(self, f):
        # the Hamacher product of an X1 factor and an X2,X3 factor, on
        # frames either side of the crossover as in crossover_tables
        rng = np.random.default_rng(0)
        space = build_space([(f"X{i + 1}", [str(v) for v in range(f)]) for i in range(3)])
        table = Hamacher().conjoin(_factor(rng, (f, 1, 1)), _factor(rng, (1, f, f)))
        dist = Distribution(space, space.names, table)
        for kind in RelationKind:
            relation = enumerate_relation(dist, UnhashableHamacher(), kind)
            assert relation == enumerate_relation(dist, Hamacher(), kind)
            assert relation
        for t in enumerate_triplets(space):
            assert evidence_record(dist, t, UnhashableHamacher()) == evidence_record(
                dist, t, Hamacher())
            given = t.b | t.c
            assert np.array_equal(condition(dist, t.a, given, UnhashableHamacher()).table,
                                  condition(dist, t.a, given, Hamacher()).table)


@pytest.fixture
def block_cells(monkeypatch):
    """Sets independence.BLOCK_CELLS; plans built under another value are dropped."""
    def use(cells):
        monkeypatch.setattr(independence, "BLOCK_CELLS", cells)
        independence._plan.cache_clear()

    yield use
    independence._plan.cache_clear()


def _arrays(tables):
    """Every array in `tables` or in tuples in it."""
    for table in tables:
        if isinstance(table, np.ndarray):
            yield table
        elif isinstance(table, tuple):
            yield from _arrays(table)


NEAR_TIES = (0.0, 5e-324, 1e-300, 1e-12, 1e-9, 0.3, 0.5, 1 - 1e-12, 1.0)


def near_tie_tables():
    """Tables of degrees a tolerance apart, or next to 0 and 1, each with a 1."""
    out = []
    for seed, shape in enumerate(((2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 2, 2, 2))):
        rng = np.random.default_rng(seed)
        space = build_space([(f"X{i + 1}", [str(v) for v in range(f)])
                             for i, f in enumerate(shape)])
        table = np.array(NEAR_TIES)[rng.integers(0, len(NEAR_TIES), size=shape)]
        table.flat[rng.integers(0, table.size)] = 1.0
        out.append((space, table))
    return out


def reference_records(dist, t, conj, kind, epsilons):
    """Per eps, the verdict and witnesses of `t` from the public condition()
    tables, each broadcast onto the triplet's frame: side after side, in C
    order."""
    a, b, c = t.a, t.b, t.c
    full = dist.space.subset(a | b | c)
    if kind is RelationKind.INDEPENDENCE:
        sides = (((a, b | c), (a, c)), ((b, a | c), (b, c)))
    else:
        sides = (((a | b, c), (a, c), (b, c)),)
    tables = []
    for side in sides:
        lhs, *rhs = (condition(dist, x, given, conj).extend(full).table for x, given in side)
        tables.append((lhs, conj.conjoin(*rhs) if len(rhs) == 2 else rhs[0]))
    records = []
    for eps in epsilons:
        record = [(dist.space.assignment_at(full, idx), lhs[idx].hex(), rhs[idx].hex())
                  for lhs, rhs in tables
                  for idx in map(tuple, np.argwhere(np.abs(lhs - rhs) > eps).tolist())]
        records.append((not record, record))
    return records


class TestChunkedMembership:
    @pytest.mark.parametrize("kind", list(RelationKind), ids=lambda k: k.value)
    def test_witnesses_do_not_depend_on_the_chunk_size(self, kind, block_cells):
        test = in_independence if kind is RelationKind.INDEPENDENCE else in_noninteractivity
        epsilons = (1e-9, 0.0)
        cases, expected = [], []
        for space, table in seeded_tables() + mixed_tables() + near_tie_tables():
            dist = Distribution(space, space.names, table)
            for t in enumerate_triplets(space):
                for conj in ROUTE_FAMILIES + (Hamacher(),):
                    cases += [(dist, t, conj, eps) for eps in epsilons]
                    expected += reference_records(dist, t, conj, kind, epsilons)
        assert any(verdict for verdict, _ in expected)
        assert any(len(witnesses) > 1 for _, witnesses in expected)
        # every case at the default size, and at one of the small sizes in turn:
        # those split every frame, and all of them would triple the test's time
        default, small = independence.BLOCK_CELLS, (1, 3, 7)
        for cells in small + (default,):
            block_cells(cells)
            for i, (case, (verdict, witnesses)) in enumerate(zip(cases, expected)):
                if cells != default and small[i % len(small)] != cells:
                    continue
                evidence = test(*case)
                assert evidence.verdict is verdict
                assert [(w.assignment, w.left.hex(), w.right.hex())
                        for w in evidence.witnesses] == witnesses

    @pytest.mark.parametrize("test, conj", [(in_independence, MIN),
                                            (in_noninteractivity, LukasiewiczLike(Generator(2.0)))],
                             ids=["independence-min", "noninteractivity-luka2"])
    def test_a_warm_test_allocates_no_frame_sized_array(self, test, conj):
        # 10^6 cells, 8 MB per frame-sized float array; the marginals are kept
        # by the distribution, so the second call allocates only its chunks
        space = build_space([(f"X{i + 1}", [str(v) for v in range(10)]) for i in range(6)])
        dist = Distribution(space, space.names, np.ones((10,) * 6))
        t = Triplet.of("X1", ("X2", "X3"), ("X4", "X5", "X6"))
        assert test(dist, t, conj).verdict
        tracemalloc.start()
        try:
            assert test(dist, t, conj).verdict
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20


class TestPlan:
    def test_both_kinds_share_one_plan_per_shape(self):
        independence._plan.cache_clear()
        space, table = seeded_tables()[0]
        for kind in RelationKind:
            enumerate_relation(Distribution(space, space.names, table), MIN, kind)
        assert independence._plan.cache_info().currsize == 1

    @pytest.mark.parametrize("shape", [(2, 2, 2), (13, 13, 13)], ids=["blocks", "one-by-one"])
    def test_plans_are_read_only(self, shape):
        # plans are shared by every call on tables of one shape; both shapes
        # have pair scopes on the block route, so both plan conditionals
        operands, groups = independence._plan(shape)
        arrays = list(_arrays((operands, groups)))
        assert operands.size and not any(array.flags.writeable for array in arrays)

    def test_the_route_is_decided_by_the_cell_count(self):
        # a pair scope of exactly CROSSOVER_CELLS cells takes the block route,
        # one cell more does not; single variables make no group
        for shape, blocked in (((32, 64), True), ((3, 683), False)):
            assert math.prod(shape) == CROSSOVER_CELLS + (not blocked)
            (candidates, route), = independence._plan(shape)[1]
            assert candidates.tolist() == [[1, 2, 0], [2, 1, 0]]
            assert (route is not None) is blocked
        # a single frame past the crossover has no route and no conditionals:
        # the operands hold only the one split of the frame of 2
        operands, groups = independence._plan((2049, 2))
        assert [route for _, route in groups] == [None] and operands.shape == (2, 2)

    def test_small_block_groups_are_packed(self):
        # 3 and 4 binary variables compare all their block groups in one block
        for shape in ((2,) * 3, (2,) * 4):
            (_, route), = independence._plan(shape)[1]
            assert len(route[-1]) == 1
        # at 6, the 30 pair and 240 triple candidates compare at 8 cells; the
        # 750 of 4 variables do not fit a block with them and keep their region
        groups = independence._plan((2,) * 6)[1]
        assert [(len(candidates), route[1].shape[1]) for candidates, route in groups] == [
            (270, 8), (750, 16), (1080, 32), (602, 64)]
        assert [isinstance(route[0], slice) for _, route in groups] == [False, True, True, True]
        # a group past the crossover ends a pack: frame sizes (2, 46) | (46, 46)
        # | (2, 2) and (46, 2) | (2, 46, 46) | (2, 46, 2) | (46, 46, 2) | all four
        groups = independence._plan((2, 46, 46, 2))[1]
        assert [(len(candidates), route is None) for candidates, route in groups] == [
            (4, False), (2, True), (6, False), (12, True), (24, False), (12, True), (50, True)]

    @pytest.mark.parametrize("cells", [64, None], ids=["64", "default"])
    def test_packs_read_what_their_groups_read(self, cells, block_cells):
        # at 1 cell nothing packs and every group keeps its own route; a pack
        # pads a candidate of w cells to its width, column j reading cell j mod
        # w, both in its right-side index and in the region its left rows read
        shapes = ((2, 2, 2), (2,) * 4, (2,) * 6, (2, 3, 4), (1, 2, 3, 2), (2, 3, 2, 3))
        cells = cells or independence.BLOCK_CELLS

        def reads(shape):
            """Per candidate, the entries of its right side and left rows on its own cells."""
            out, packed = {}, 0
            for candidates, (region, index, left, *_) in independence._plan(shape)[1]:
                width = index.shape[1]
                if isinstance(region, slice):
                    region = np.arange(region.start, region.stop).reshape(-1, width)
                else:
                    packed += 1
                    assert len(candidates) * width <= independence.BLOCK_CELLS
                for (a, b, c), right, rows in zip(candidates.tolist(), index, left):
                    w = math.prod(f for i, f in enumerate(shape) if (a | b | c) >> i & 1)
                    column = np.arange(width) % w
                    assert np.array_equal(right, right[column])
                    assert np.array_equal(region[rows], region[rows][:, column])
                    out[a, b, c] = right[:w].tolist(), region[rows][:, :w].tolist()
            return out, packed

        block_cells(1)
        expected = [reads(shape) for shape in shapes]
        assert not any(packed for _, packed in expected)
        block_cells(cells)
        got = [reads(shape) for shape in shapes]
        assert [out for out, _ in got] == [out for out, _ in expected]
        assert any(packed for _, packed in got)

    @pytest.mark.parametrize("width", [1, 3])
    def test_axiom_choices_are_read_only(self, width):
        # like the plans, shared by every axiom check of this width
        picks = graphoid._choices(width)
        assert picks.shape == (width, 2 ** width - 1) and not picks.flags.writeable


class TestBlocks:
    @pytest.mark.parametrize("kind", list(RelationKind), ids=lambda k: k.value)
    def test_relations_do_not_depend_on_the_block_size(self, kind, block_cells):
        # at 1 cell every unit takes a block of its own, at 64 a few units share
        # one; at 64 and the default, packs mix widths that do not divide each other
        tables = seeded_tables() + mixed_tables() + crossover_tables() + [
            (build_space([(f"X{i + 1}", [str(v) for v in range(f)])
                          for i, f in enumerate(shape)]), _grid_table(shape, 0))
            for shape in ((2, 3, 4), (1, 2, 3, 2))]

        def relations():
            return [enumerate_relation(Distribution(space, space.names, table), conj, kind)
                    for space, table in tables for conj in ROUTE_FAMILIES + (Hamacher(),)]

        block_cells(independence.BLOCK_CELLS)
        expected = relations()
        for cells in (1, 64):
            block_cells(cells)
            assert relations() == expected

    def test_both_kinds_in_one_pass_equal_one_kind_at_a_time(self, block_cells):
        # independence's early exit must not carry over to no-interactivity,
        # every block must compare against the left sides of the first, and
        # no conjunction's conditionals may leak into the next one's
        dists = [Distribution(space, space.names, table)
                 for space, table in seeded_tables() + mixed_tables() + crossover_tables()]
        # past the crossover, a product table relates different triplets
        # under each family, so one family's conditionals would show
        space, _ = crossover_tables()[1]
        rng = np.random.default_rng(1)
        dists.append(Distribution(space, space.names,
                                  _factor(rng, (13, 1, 1)) * _factor(rng, (1, 13, 13))))
        conjs = ROUTE_FAMILIES + (Hamacher(),)
        kinds = tuple(RelationKind)
        default = independence.BLOCK_CELLS
        block_cells(default)
        expected = [tuple(enumerate_relation(dist, conj, kind) for kind in kinds)
                    for dist in dists for conj in conjs]
        # a stack that repeats a conjunction answers for each of its entries
        repeated = (4, 0, 4, 5)
        for cells in (1, 64, default):
            block_cells(cells)
            assert [rels for dist in dists
                    for rels in independence._enumerate_relations(dist, conjs, kinds)] == expected
            assert [rels for dist in dists for rels in independence._enumerate_relations(
                dist, tuple(conjs[i] for i in repeated), kinds)] == [
                expected[d * len(conjs) + i] for d in range(len(dists)) for i in repeated]

    @pytest.mark.parametrize("shape", [(2, 2, 2), (2,) * 6, (12, 12, 12)],
                             ids=["2x3", "2x6", "12x3"])
    def test_mirrors_stay_in_their_block(self, shape, block_cells):
        # a block compares each candidate (a ; b | c) once and reads the rest
        # of its verdict off its mirror (b ; a | c), which must be in its block;
        # under min, this table has candidates whose mirror is not independent
        rng = np.random.default_rng(0)
        space = build_space([(f"X{i + 1}", [str(v) for v in range(f)])
                             for i, f in enumerate(shape)])
        table = np.minimum(_factor(rng, shape[:1] + (1,) * (len(shape) - 1)),
                           _factor(rng, (1,) + shape[1:]))
        dist = Distribution(space, space.names, table)
        tests = {RelationKind.INDEPENDENCE: in_independence,
                 RelationKind.NON_INTERACTIVITY: in_noninteractivity}
        expected = {kind: {t for t in enumerate_triplets(space) if test(dist, t, MIN).verdict}
                    for kind, test in tests.items()}
        for cells in (1, 64, independence.BLOCK_CELLS):
            block_cells(cells)
            for candidates, route in independence._plan(shape)[1]:
                *_, mirror, blocks = route
                for *_, start, stop in blocks:
                    pair, own = mirror[start:stop], candidates[start:stop]
                    assert np.array_equal(pair[pair], np.arange(stop - start))
                    assert np.array_equal(own[pair], own[:, [1, 0, 2]])
            for kind in RelationKind:
                assert enumerate_relation(dist, MIN, kind).members == expected[kind]


#: Names whose sorted order differs from the space order, on frames of 2 and 3.
SORTED_APART = tuple(build_space([(n, frame) for n in names]) for names, frame in (
    (("X2", "X10", "b", "a"), "01"), (("B", "X10", "A", "X2"), "012")))


def blocked_table(space, blocks, combine, seed):
    """`combine` of one factor per block of axes, drawn from `seed`."""
    rng = np.random.default_rng(seed)
    shape = space.shape(space.names)
    table = np.ones(shape)
    for block in blocks:
        table = combine(table, _factor(rng, tuple(f if i in block else 1
                                                  for i, f in enumerate(shape))))
    return table


def assert_encoded_as_hand_built(rel):
    """The encoding a relation carries equals the one derived from its
    members' names: names, mask rows and member order."""
    (names, rows), members = rel._encoding, rel.sorted_members
    hand = IndependenceRelation(rel.space, rel.members)
    (hand_names, hand_rows), hand_members = hand._encoding, hand.sorted_members
    assert (names, members) == (hand_names, hand_members)
    assert members == tuple(sorted(rel.members, key=lambda t: t.sort_key)) == tuple(rel)
    assert rows.dtype == hand_rows.dtype == np.int64 and rows.shape == (len(rel), 3)
    assert np.array_equal(rows, hand_rows)


class TestEncoding:
    def test_enumerated_encodings_equal_the_hand_built_ones(self):
        # one call per table, so all twelve relations share its mask tables,
        # and consecutive calls have different scopes
        tables = seeded_tables() + mixed_tables() + crossover_tables() + [
            (space, blocked_table(space, blocks, combine, 0)) for space in SORTED_APART
            for blocks, combine in ((((0, 2), (1, 3)), np.multiply),
                                    (((0,), (1, 2, 3)), np.minimum),
                                    (((1,), (3,), (0, 2)), np.multiply))]
        conjs = ROUTE_FAMILIES + (Hamacher(),)
        used = set()
        for space, table in tables:
            dist = Distribution(space, space.names, table)
            rels = independence._enumerate_relations(dist, conjs, tuple(RelationKind))
            for conj, pair in zip(conjs, rels):
                for kind, rel in zip(RelationKind, pair):
                    assert rel == enumerate_relation(dist, conj, kind)
                    assert_encoded_as_hand_built(rel)
                    if space in SORTED_APART:
                        used.add((space, len(rel._encoding[0])))
        # empty relations, and relations over part of the scope and over all of it
        assert all({0, 4} < {n for over, n in used if over == space} for space in SORTED_APART)

    def test_encodings_where_the_packed_sort_key_is_widest(self):
        # an enumerated relation sorts its members by one key of their parts'
        # ranks, n bits each: at 8 names they fill 24 bits; the full
        # relations use every rank, and the names sort apart from the space
        wide = build_space([(n, "01") for n in ("X2", "X10", "b", "a", "B", "A", "X1", "x")])
        tables = [(space, np.ones(space.shape(space.names)), (RelationKind.NON_INTERACTIVITY,))
                  for space in (wide, *SORTED_APART)]
        tables += [(wide, blocked_table(wide, blocks, combine, 0), tuple(RelationKind))
                   for blocks, combine in ((((0, 5), (1, 3, 7), (2, 4, 6)), np.multiply),
                                           (((0, 7), (1, 2, 3, 4, 5, 6)), np.minimum))]
        sizes = []
        for space, table, kinds in tables:
            dist = Distribution(space, space.names, table)
            for pair in independence._enumerate_relations(dist, (MIN,), kinds):
                for rel in pair:
                    sizes.append(len(rel))
                    assert len(rel._encoding[0]) == len(space)
                    assert_encoded_as_hand_built(rel)
        assert sizes == [52670, 110, 110, 1270, 1270, 890, 7210]

    def test_hand_built_members_in_reverse_sort_key_order(self):
        # a hand-built relation sorts its members by sort_key itself
        space = SORTED_APART[1]
        members = sorted(enumerate_triplets(space), key=lambda t: t.sort_key)
        rel = IndependenceRelation(space, frozenset(reversed(members)))
        names, rows = rel._encoding
        assert rel.sorted_members == tuple(members) and names == tuple(sorted(space.names))
        assert triplets_from_masks(names, rows.tolist()) == members

    def test_mask_tables_rank_masks_by_their_sorted_names(self):
        # a mask ranks by the sorted tuple of its names, a prefix first, and
        # its bits move onto the sorted names
        rng = np.random.default_rng(0)
        pool = ["X2", "X10", "b", "a", "B", "A", "X1", "x"]
        orders = [tuple(rng.permutation(pool[:n])) for n in range(1, 9) for _ in range(3)]
        cases = [(order, rng.permutation(1 << len(order)).tolist()) for order in orders]
        cases += [(order, rng.choice(1 << len(order), 5, replace=False).tolist())
                  for order in orders[6:]]
        cases += [(space.names, range(1 << len(space))) for space in SORTED_APART]
        wide = tuple(rng.permutation([f"V{i}" for i in range(31)]))
        masks31 = rng.permutation(np.unique(rng.integers(0, 1 << 31, 200))).tolist()
        cases += [(wide, masks31), ((), ())]
        for order, bitmasks in cases:
            names, rank, moved = _mask_tables(order, bitmasks)
            picked = [tuple(sorted(n for i, n in enumerate(order) if m >> i & 1))
                      for m in bitmasks]
            assert names == sorted(order)
            assert rank.tolist() == [sorted(picked).index(p) for p in picked]
            assert moved.dtype == np.int64
            assert moved.tolist() == [sum(1 << names.index(n) for n in p) for p in picked]


@dataclass(frozen=True)
class Counting(Conjunction):
    """A conjunction that answers as `inner` and records the operand shape
    of each residuum call."""

    inner: Conjunction
    calls: list = field(default_factory=list, compare=False)

    def _conjoin(self, aa, bb):
        return self.inner._conjoin(aa, bb)

    def _residuum(self, aa, bb):
        self.calls.append(np.shape(aa))
        return self.inner._residuum(aa, bb)

    def spec_string(self) -> str:
        return self.inner.spec_string()


class TestConditionOnce:
    @pytest.mark.parametrize("shape", [(2,) * 3, (2,) * 6, (2, 3, 2, 3)],
                             ids=["2x3", "2x6", "2323"])
    def test_one_residuum_call_per_conjunction(self, shape, block_cells):
        # every scope of these tables takes the block route, so each
        # conjunction conditions every split x | g of every scope, x not
        # empty, once on the scope's frame, whatever the block size
        space = build_space([(f"X{i + 1}", [str(v) for v in range(f)])
                             for i, f in enumerate(shape)])
        dist = Distribution(space, space.names, _grid_table(shape, 0))
        kinds = tuple(RelationKind)
        splits = sum((2 ** bin(scope).count("1") - 1)
                     * int(np.prod([f for i, f in enumerate(shape) if scope >> i & 1]))
                     for scope in range(1, 1 << len(shape)))
        default = independence.BLOCK_CELLS
        for cells in (1, 64, default):
            block_cells(cells)
            assert all(route is not None for _, route in independence._plan(shape)[1])
            counting = tuple(Counting(conj) for conj in ROUTE_FAMILIES)
            relations = independence._enumerate_relations(dist, counting, kinds)
            assert [conj.calls for conj in counting] == [[(splits,)]] * len(counting)
            assert relations == independence._enumerate_relations(dist, ROUTE_FAMILIES, kinds)

    def test_extended_table_holds_every_lattice_entry(self):
        tables = mixed_tables() + [(space, blocked_table(space, ((0, 2), (1, 3)), np.multiply, 0))
                                   for space in SORTED_APART]
        assert any(1 in table.shape for _, table in tables)  # a one-value frame
        for space, table in tables:
            dist = Distribution(space, space.names, table)
            extended = independence._extended(dist.table)
            assert extended.shape == tuple(f + 1 for f in table.shape)
            for mask in range(1 << table.ndim):
                # the frame size indexes the slot that holds the max over its axis
                entry = extended[tuple(slice(f) if mask >> i & 1 else slice(f, f + 1)
                                       for i, f in enumerate(table.shape))]
                marginal = dist._marginal(mask)
                assert entry.shape == marginal.shape
                assert entry.tobytes() == marginal.tobytes()


class TestEpsValidation:
    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -1.0, "1e-9", None, True])
    def test_membership_and_enumeration_reject_bad_eps(self, eps):
        # at eps = nan this dependent pair used to pass as independent
        space = build_space([("X1", "01"), ("X2", "01")])
        dist = Distribution(space, space.names, [[1.0, 0.3], [0.5, 0.2]])
        t = Triplet.of("X1", "X2", ())
        assert not in_independence(dist, t, MIN).verdict
        for test in (in_independence, in_noninteractivity):
            with pytest.raises(ValueError):
                test(dist, t, MIN, eps)
        with pytest.raises(ValueError):
            enumerate_relation(dist, MIN, RelationKind.INDEPENDENCE, eps)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -1.0, "1e-9", None, True])
    def test_characterizations_reject_bad_eps(self, eps, one_sided):
        t = Triplet.of("X1", "X2", "X3")
        for fn in (characterize_luka, characterize_luka_ni,
                   characterize_product_i, characterize_product_ni):
            with pytest.raises(ValueError):
                fn(one_sided, t, eps=eps)
        for fn in (characterize_min_i, characterize_min_ni):
            with pytest.raises(ValueError):
                fn(one_sided, t, eps)

    def test_zero_eps_is_accepted(self):
        assert in_independence(uniform3(), Triplet.of("X1", "X2", "X3"), MIN, 0.0).verdict

