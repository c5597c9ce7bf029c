"""Spaces, distributions, marginalization, extension and comparison."""

import importlib
import itertools
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from possind import (
    Distribution,
    DuplicateVariable,
    EmptyFrame,
    OutOfRange,
    ScopeMismatch,
    SpaceMismatch,
    TooLarge,
    TooSmall,
    Triplet,
    BadTriplet,
    build_space,
    enumerate_triplets,
    make_distribution,
    possibility_measure,
    triplet_count,
)
from possind.core import check_count
from possind.errors import DuplicateValue, PossindError

from conftest import NOT_COUNTS, SPACE3, brute_marginal, distributions3, not_a_count


class TestSpace:
    def test_single_binary_variable_has_two_assignments(self):
        space = build_space([("X1", ["0", "1"])])
        assert len(list(space.assignments())) == 2

    def test_three_binary_variables_have_eight_assignments(self):
        assert len(list(SPACE3.assignments())) == 8

    def test_duplicate_name_rejected(self):
        with pytest.raises(DuplicateVariable):
            build_space([("X1", ["0", "1"]), ("X1", ["a"])])

    def test_empty_frame_rejected(self):
        with pytest.raises(EmptyFrame):
            build_space([("X1", [])])

    def test_repeated_frame_value_rejected(self):
        with pytest.raises(ValueError):
            build_space([("X1", ["a", "a"])])

    def test_repeated_frame_value_is_a_possind_error(self):
        with pytest.raises(DuplicateValue) as info:
            build_space([("X1", ["a", "b", "a"])])
        assert isinstance(info.value, PossindError)

    def test_assignments_enumerate_last_variable_fastest(self):
        space = build_space([("A", ["0", "1"]), ("B", ["x", "y"])])
        got = [(a["A"], a["B"]) for a in space.assignments()]
        assert got == [("0", "x"), ("0", "y"), ("1", "x"), ("1", "y")]

    def test_frame_of_an_unknown_name_rejected(self):
        assert SPACE3.frame("X2") == ("0", "1")
        with pytest.raises(ScopeMismatch, match="unknown variable 'Y9'"):
            SPACE3.frame("Y9")

    def test_subset_is_ordered_and_validated(self):
        assert SPACE3.subset(("X3", "X1")) == ("X1", "X3")
        assert SPACE3.subset("X2") == ("X2",)
        with pytest.raises(ScopeMismatch):
            SPACE3.subset(("X1", "nope"))

    def test_value_equality_and_hash(self):
        twin = build_space([("X1", ("0", "1")), ("X2", ("0", "1")), ("X3", ("0", "1"))])
        assert twin == SPACE3
        assert hash(twin) == hash(SPACE3)
        assert build_space([("X1", ["0"])]) != SPACE3


class TestMakeDistribution:
    def test_one_sided_table_values(self, one_sided):
        values = sorted(v for _, v in one_sided.items())
        assert values == [0.6, 0.6, 0.6, 0.6, 0.7, 0.8, 0.9, 1.0]
        assert one_sided.normalised

    def test_all_ones_is_normalised(self):
        ones = make_distribution(
            SPACE3, SPACE3.names, [(a, 1.0) for a in SPACE3.assignments()]
        )
        assert ones.normalised

    def test_single_half_entry_is_not_normalised(self):
        half = make_distribution(
            SPACE3, SPACE3.names, [({"X1": "0", "X2": "0", "X3": "0"}, 0.5)]
        )
        assert not half.normalised
        assert half.at({"X1": "1", "X2": "0", "X3": "0"}) == 0.0

    def test_normalised_needs_an_exact_one(self):
        # every other comparison is within eps; normalisation is max == 1.0
        atom = {"X1": "0", "X2": "0", "X3": "0"}
        near = make_distribution(SPACE3, SPACE3.names, [(atom, 1.0 - 1e-12)])
        exact = make_distribution(SPACE3, SPACE3.names, [(atom, 1.0)])
        assert near.equal_within(exact)
        assert not near.normalised
        assert exact.normalised

    def test_unlisted_assignments_default_to_zero(self):
        dist = make_distribution(SPACE3, SPACE3.names, [])
        assert all(v == 0.0 for _, v in dist.items())

    def test_out_of_range_value_rejected(self):
        with pytest.raises(OutOfRange):
            make_distribution(SPACE3, SPACE3.names, [({"X1": "0", "X2": "0", "X3": "0"}, 1.5)])

    def test_degree_too_large_for_a_float_rejected(self):
        # float(10**400) raises OverflowError; parse_distribution says the same
        with pytest.raises(OutOfRange, match="too large for a float"):
            make_distribution(SPACE3, SPACE3.names, [({"X1": "0", "X2": "0", "X3": "0"}, 10**400)])

    def test_assignment_scope_mismatch_rejected(self):
        with pytest.raises(ScopeMismatch):
            make_distribution(SPACE3, SPACE3.names, [({"X1": "0"}, 0.5)])

    def test_table_of_the_wrong_shape_rejected(self):
        with pytest.raises(ScopeMismatch, match=r"table shape \(2, 2\) does not match scope "
                                                r"shape \(2, 2, 2\)"):
            Distribution(SPACE3, SPACE3.names, np.ones((2, 2)))

    def test_bad_frame_value_rejected(self):
        with pytest.raises(ScopeMismatch):
            make_distribution(
                SPACE3, SPACE3.names, [({"X1": "7", "X2": "0", "X3": "0"}, 0.5)]
            )

    def test_oversized_table_rejected_before_allocation(self):
        # 2**50 cells would need 8 PiB
        space = build_space([(f"X{i}", ["0", "1"]) for i in range(50)])
        with pytest.raises(TooLarge):
            make_distribution(space, space.names, [])

    def test_table_is_read_only(self, one_sided):
        with pytest.raises(ValueError):
            one_sided.table[0, 0, 0] = 0.0

    @pytest.mark.parametrize("scope", [("X2", "X1"), ["X2", "X1"], iter(("X2", "X1"))],
                             ids=["tuple", "list", "iterator"])
    def test_scope_listed_out_of_space_order_rejected(self, scope):
        # a square table fits either axis order, so only the order check can tell
        space = build_space([("X1", "01"), ("X2", "01")])
        with pytest.raises(ScopeMismatch, match=r"list it as \('X1', 'X2'\)"):
            Distribution(space, scope, [[1.0, 0.2], [0.7, 0.1]])

    @pytest.mark.parametrize("scope", [("X1", "X2"), ["X1", "X2"], iter(("X1", "X2")),
                                       {"X2", "X1"}, frozenset({"X2", "X1"})],
                             ids=["tuple", "list", "iterator", "set", "frozenset"])
    def test_scope_in_space_order_or_unordered_accepted(self, scope):
        space = build_space([("X1", "01"), ("X2", "01")])
        dist = Distribution(space, scope, [[1.0, 0.2], [0.7, 0.1]])
        assert dist.scope == ("X1", "X2")
        assert dist.at({"X1": "1", "X2": "0"}) == 0.7

    def test_single_name_scope_accepted(self):
        space = build_space([("X1", "01"), ("X2", "01")])
        assert Distribution(space, "X2", [1.0, 0.2]).scope == ("X2",)

    def test_make_distribution_puts_the_scope_in_space_order(self):
        space = build_space([("X1", "01"), ("X2", "01")])
        dist = make_distribution(space, ("X2", "X1"), [({"X1": "1", "X2": "0"}, 1.0)])
        assert dist.scope == ("X1", "X2")
        assert dist.at({"X1": "1", "X2": "0"}) == 1.0

    @pytest.mark.parametrize("second", [0.3, 1.0], ids=["equal", "different"])
    def test_assignment_listed_twice_rejected(self, second):
        rows = [({"X1": "0"}, 0.3), ({"X1": "0"}, second)]
        with pytest.raises(DuplicateValue, match=r"duplicate assignment \{'X1': '0'\}") as exc:
            make_distribution(build_space([("X1", "01")]), ["X1"], rows)
        assert isinstance(exc.value, PossindError) and isinstance(exc.value, ValueError)


class TestMarginalize:
    def test_one_sided_marginal_on_x3(self, one_sided):
        marginal = one_sided.marginalize("X3")
        assert marginal.at({"X3": "0"}) == 0.9
        assert marginal.at({"X3": "1"}) == 1.0

    def test_two_peak_marginal_on_x1(self, two_peak):
        marginal = two_peak.marginalize("X1")
        assert marginal.at({"X1": "0"}) == 1.0
        assert marginal.at({"X1": "2"}) == 1.0

    def test_full_scope_keeps_table(self, one_sided):
        same = one_sided.marginalize(one_sided.scope)
        assert np.array_equal(same.table, one_sided.table)

    def test_empty_keep_gives_global_maximum_scalar(self, one_sided):
        scalar = one_sided.marginalize(())
        assert scalar.scope == ()
        assert float(scalar.table) == 1.0

    def test_keep_outside_scope_rejected(self, one_sided):
        small = one_sided.marginalize(("X1", "X2"))
        with pytest.raises(ScopeMismatch):
            small.marginalize("X3")

    @settings(max_examples=60, deadline=None)
    @given(dist=distributions3(normalised=False))
    def test_matches_brute_force_oracle(self, dist):
        for keep in [(), ("X1",), ("X2", "X3"), ("X1", "X3")]:
            expected = brute_marginal(dist, keep)
            got = dist.marginalize(keep)
            for assignment, value in got.items():
                key = tuple(assignment[n] for n in got.scope)
                assert value == expected[key]

    @settings(max_examples=60, deadline=None)
    @given(dist=distributions3(normalised=False))
    def test_consonance_is_exact(self, dist):
        # iterated max-projections commute: (pi_A)_B == pi_B for B within A
        via_a = dist.marginalize(("X1", "X3")).marginalize("X3")
        direct = dist.marginalize("X3")
        assert np.array_equal(via_a.table, direct.table)

    @settings(max_examples=60, deadline=None)
    @given(dist=distributions3(normalised=False))
    def test_marginal_dominates_every_completion(self, dist):
        marginal = dist.marginalize(("X1", "X2"))
        for assignment, value in dist.items():
            restricted = {n: assignment[n] for n in ("X1", "X2")}
            assert marginal.at(restricted) >= value

    @settings(max_examples=60, deadline=None)
    @given(dist=distributions3())
    def test_normalisation_is_preserved(self, dist):
        assert dist.marginalize(("X2",)).normalised

    @pytest.mark.parametrize("n", [3, 4])
    def test_a_lattice_entry_is_one_reduction_of_the_table(self, n):
        # an entry depends only on the table and its mask, so computing one
        # caches no other entry
        space = build_space([(f"X{i + 1}", "012"[:2 + i % 2]) for i in range(n)])
        table = np.random.default_rng(n).integers(0, 11, size=space.shape(space.names)) / 10
        full = (1 << n) - 1
        for mask in range(1 << n):
            dist = Distribution(space, space.names, table)
            entry = dist._marginal(mask)
            assert set(dist._lattice) == {full, mask}
            outside = tuple(i for i in range(n) if not mask >> i & 1)
            assert entry.tobytes() == table.max(axis=outside, keepdims=True).tobytes()
            assert entry.shape == tuple(f if mask >> i & 1 else 1
                                        for i, f in enumerate(table.shape))


class TestExtend:
    def test_marginal_extension_depends_only_on_original_scope(self, one_sided):
        extended = one_sided.marginalize("X3").extend(("X2", "X3"))
        for x2 in ("0", "1"):
            assert extended.at({"X2": x2, "X3": "0"}) == 0.9
            assert extended.at({"X2": x2, "X3": "1"}) == 1.0

    def test_extend_to_own_scope_is_identity(self, one_sided):
        assert one_sided.extend(one_sided.scope) is one_sided

    def test_scalar_extends_to_constant(self, one_sided):
        scalar = one_sided.marginalize(())
        const = scalar.extend("X1")
        assert const.at({"X1": "0"}) == 1.0 and const.at({"X1": "1"}) == 1.0

    def test_extend_to_non_superset_rejected(self, one_sided):
        marginal = one_sided.marginalize(("X1", "X2"))
        with pytest.raises(ScopeMismatch):
            marginal.extend(("X2", "X3"))

    @settings(max_examples=60, deadline=None)
    @given(dist=distributions3(normalised=False))
    def test_extend_then_marginalize_back_is_identity(self, dist):
        marginal = dist.marginalize(("X1", "X3"))
        back = marginal.extend(dist.scope).marginalize(("X1", "X3"))
        assert np.array_equal(back.table, marginal.table)


class TestEqualWithin:
    def test_identical_tables_at_zero_eps(self, one_sided):
        twin = Distribution(one_sided.space, one_sided.scope, one_sided.table)
        assert one_sided.equal_within(twin, 0.0)

    def test_small_difference_detected(self, one_sided):
        bumped = np.array(one_sided.table)
        bumped[0, 0, 0] -= 0.05
        other = Distribution(one_sided.space, one_sided.scope, bumped)
        assert not one_sided.equal_within(other, 1e-9)
        assert one_sided.equal_within(other, 0.05 + 1e-12)

    def test_comparison_crosses_scopes_via_extension(self, one_sided):
        marginal = one_sided.marginalize(("X1", "X3"))
        extended = marginal.extend(one_sided.scope)
        assert marginal.equal_within(extended, 0.0)

    def test_different_spaces_rejected(self, one_sided, two_peak):
        with pytest.raises(SpaceMismatch):
            one_sided.equal_within(two_peak)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -1.0])
    def test_bad_eps_rejected(self, one_sided, eps):
        with pytest.raises(ValueError):
            one_sided.equal_within(one_sided, eps)


class TestPossibilityMeasure:
    def test_whole_frame_of_normalised_distribution_is_one(self, one_sided):
        assert possibility_measure(one_sided, one_sided.space.assignments()) == 1.0

    def test_empty_event_is_zero(self, one_sided):
        assert possibility_measure(one_sided, []) == 0.0

    def test_two_point_event(self, one_sided):
        event = [
            {"X1": "1", "X2": "0", "X3": "0"},
            {"X1": "1", "X2": "0", "X3": "1"},
        ]
        assert possibility_measure(one_sided, event) == 0.8

    def test_wrong_scope_rejected(self, one_sided):
        with pytest.raises(ScopeMismatch):
            possibility_measure(one_sided, [{"X1": "1"}])


class TestTriplets:
    def test_validation_catches_overlap_and_empties(self):
        with pytest.raises(BadTriplet):
            Triplet.of("X1", "X1", ()).validate(SPACE3)
        with pytest.raises(BadTriplet):
            Triplet.of((), "X2", ()).validate(SPACE3)
        with pytest.raises(BadTriplet):
            Triplet.of("X9", "X2", ()).validate(SPACE3)
        Triplet.of("X1", "X2", "X3").validate(SPACE3)

    def test_two_variable_enumeration_is_exactly_two(self):
        space = build_space([("X1", ["0", "1"]), ("X2", ["0", "1"])])
        got = enumerate_triplets(space)
        assert set(got) == {
            Triplet.of("X1", "X2", ()),
            Triplet.of("X2", "X1", ()),
        }

    def test_counts_match_closed_formula(self):
        assert len(enumerate_triplets(SPACE3)) == triplet_count(3) == 18
        space4 = build_space([(f"X{i}", ["0", "1"]) for i in range(4)])
        assert len(enumerate_triplets(space4)) == triplet_count(4) == 110

    def test_enumeration_keeps_the_bucket_product_order(self):
        # bucket 0 = unused, 1 -> a, 2 -> b, 3 -> c; first variable slowest
        names = ("X2", "X10", "b", "a")
        space = build_space([(n, ["0", "1"]) for n in names])
        expected = []
        for buckets in itertools.product((0, 1, 2, 3), repeat=len(names)):
            a, b, c = (frozenset(n for n, k in zip(names, buckets) if k == part)
                       for part in (1, 2, 3))
            if a and b:
                expected.append(Triplet(a, b, c))
        assert enumerate_triplets(space) == expected

    def test_single_variable_space_rejected(self):
        with pytest.raises(TooSmall):
            enumerate_triplets(build_space([("X1", ["0", "1"])]))


class TestCheckCount:
    @pytest.mark.parametrize("value", NOT_COUNTS + [np.True_, None], ids=repr)
    def test_refuses_bools_and_non_integers(self, value):
        with pytest.raises(ValueError, match=not_a_count("n", value)):
            check_count(value, "n", 0)

    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3)], ids=repr)
    def test_gives_integers_back_as_int(self, value):
        out = check_count(value, "n", 3, 3)
        assert (out, type(out)) == (3, int)

    @pytest.mark.parametrize("value, low, message", [
        (0, 1, "n must be >= 1, got 0"),
        (np.int64(-1), 0, "n must be >= 0, got -1"),
        (2**63, 0, "n must be <= 9223372036854775807, got 9223372036854775808"),
    ])
    def test_bounds(self, value, low, message):
        with pytest.raises(ValueError, match=message):
            check_count(value, "n", low)


class TestReadme:
    def test_stated_constants_match_the_code(self):
        # README states constants as `possind.<module>.<NAME>` = <value>, 10^7 for 10**7
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        stated = re.findall(r"`possind\.(\w+)\.([A-Z_]+)`\s+=\s+([0-9](?:[0-9e.^-]*[0-9])?)",
                            readme)
        assert {name for _, name, _ in stated} >= {
            "CROSSOVER_CELLS", "PLAN_CACHE_SIZE", "ENCODED_NAMES", "MIN_POWER", "TABLE_GUARD",
            "BLOCK_CELLS", "RELATION_GUARD", "EPS"}
        for module, name, value in stated:
            base, _, exponent = value.partition("^")
            expected = int(base) ** int(exponent) if exponent else float(value)
            assert getattr(importlib.import_module(f"possind.{module}"), name) == expected, name
