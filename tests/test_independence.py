"""Conditioning, membership tests, characterizations and the constructor."""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from possind import (
    BadTriplet,
    Conjunction,
    Distribution,
    Generator,
    LukasiewiczLike,
    Min,
    NotNormalised,
    OutOfRange,
    ProductLike,
    RelationKind,
    ScopeMismatch,
    TooLarge,
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
    in_independence,
    in_noninteractivity,
    make_distribution,
    parse_conjunction,
    random_distribution,
)
from possind.independence import BLOCK_CELLS, CROSSOVER_CELLS

from conftest import SPACE3, distributions3, triplets3

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

    def test_requires_normalised(self):
        half = make_distribution(
            SPACE3, SPACE3.names, [({"X1": "0", "X2": "0", "X3": "0"}, 0.5)]
        )
        with pytest.raises(NotNormalised):
            enumerate_relation(half, MIN, RelationKind.INDEPENDENCE)


ROUTE_FAMILIES = tuple(
    parse_conjunction(spec) for spec in ("min", "luka", "luka:pow=2", "prod", "prod:pow=2")
)


def seeded_tables():
    """Grid-valued 3- and 4-variable tables, each with zeros and a 1."""
    out = []
    for n, seeds in ((3, range(6)), (4, range(3))):
        space = build_space([(f"X{i + 1}", ("0", "1")) for i in range(n)])
        for seed in seeds:
            rng = np.random.default_rng(seed)
            table = rng.integers(0, 11, size=(2,) * n) / 10
            table.flat[rng.choice(table.size, size=2, replace=False)] = 0.0
            table.flat[rng.integers(0, table.size)] = 1.0
            out.append((space, table))
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
        for space, table in seeded_tables() + crossover_tables():
            dist = Distribution(space, space.names, table)
            members = enumerate_relation(dist, conj, kind).members
            fresh = Distribution(space, space.names, table)
            expected = {t for t in enumerate_triplets(space) if test(fresh, t, conj).verdict}
            assert members == expected

    def test_crossover_tables_straddle_both_regimes(self):
        # 12 candidates span all 3 variables: with frames of 12 they take
        # several blocks, with frames of 13 they are evaluated one by one
        assert 13**2 <= CROSSOVER_CELLS
        assert 12**3 <= CROSSOVER_CELLS < 13**3
        assert BLOCK_CELLS // 12**3 < 12

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


class TestEpsValidation:
    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -1.0])
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

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -1.0])
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

