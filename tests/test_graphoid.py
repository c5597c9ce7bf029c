"""Axiom checking, random distribution generation and the fuzz harness."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from possind import (
    AXIOMS,
    GRAPHOID_AXIOMS,
    SEMIGRAPHOID_AXIOMS,
    AxiomReport,
    Counterexample,
    Distribution,
    FuzzConfig,
    IndependenceRelation,
    LukasiewiczLike,
    Min,
    ProductLike,
    RelationKind,
    TooLarge,
    TooSmall,
    Triplet,
    build_space,
    check_axiom,
    enumerate_relation,
    enumerate_triplets,
    fuzz_properties,
    is_graphoid,
    is_semigraphoid,
    make_distribution,
    random_distribution,
)
from possind import graphoid

from conftest import SPACE3


def relation(*triplets):
    return IndependenceRelation(SPACE3, frozenset(triplets))


def symmetric_closure(*triplets):
    members = set(triplets)
    members.update(Triplet(t.b, t.a, t.c) for t in triplets)
    return IndependenceRelation(SPACE3, frozenset(members))


class TestAxioms:
    def test_empty_relation_satisfies_everything(self):
        report = is_graphoid(relation())
        assert report.holds and not report.counterexamples

    def test_full_relation_satisfies_everything(self):
        full = IndependenceRelation(SPACE3, frozenset(enumerate_triplets(SPACE3)))
        assert is_graphoid(full).holds

    def test_symmetry_violation_reported(self):
        rel = relation(Triplet.of("X1", "X2", ()))
        report = check_axiom(rel, "symmetry")
        assert not report.holds
        assert report.counterexamples == (
            Counterexample(
                "symmetry",
                (Triplet.of("X1", "X2", ()),),
                Triplet.of("X2", "X1", ()),
            ),
        )

    def test_decomposition_requires_every_nonempty_sub_block(self):
        premise = Triplet.of("X1", ("X2", "X3"), ())
        report = check_axiom(relation(premise), "decomposition")
        missing = {cx.conclusion for cx in report.counterexamples}
        assert missing == {Triplet.of("X1", "X2", ()), Triplet.of("X1", "X3", ())}
        fixed = relation(premise, *missing)
        assert check_axiom(fixed, "decomposition").holds

    def test_weak_union_moves_the_complement_into_the_condition(self):
        premise = Triplet.of("X1", ("X2", "X3"), ())
        report = check_axiom(relation(premise), "weak_union")
        missing = {cx.conclusion for cx in report.counterexamples}
        assert missing == {Triplet.of("X1", "X2", "X3"), Triplet.of("X1", "X3", "X2")}

    def test_contraction_joins_compatible_premises(self):
        t1 = Triplet.of("X1", "X2", ())
        t2 = Triplet.of("X1", "X3", "X2")
        report = check_axiom(relation(t1, t2), "contraction")
        assert [cx.conclusion for cx in report.counterexamples] == [
            Triplet.of("X1", ("X2", "X3"), ())
        ]
        assert report.counterexamples[0].premises == (t1, t2)

    def test_intersection_on_two_peak_min_relation(self, two_peak):
        rel = enumerate_relation(two_peak, Min(), RelationKind.NON_INTERACTIVITY)
        report = check_axiom(rel, "intersection")
        assert not report.holds
        expected = Counterexample(
            "intersection",
            (Triplet.of("X1", "X2", "X3"), Triplet.of("X1", "X3", "X2")),
            Triplet.of("X1", ("X2", "X3"), ()),
        )
        assert expected in report.counterexamples

    def test_axiom_verdict_matches_counterexample_emptiness(self):
        rel = symmetric_closure(Triplet.of("X1", ("X2", "X3"), ()))
        for axiom in AXIOMS:
            report = check_axiom(rel, axiom)
            assert report.verdicts[axiom] == (not report.counterexamples)

    def test_unknown_axiom_rejected(self):
        with pytest.raises(ValueError):
            check_axiom(relation(), "transitivity")


#: Names whose sorted order differs from the space order.
SPACE4 = build_space([(n, ("0", "1")) for n in ("X2", "X10", "b", "a")])
TRIPLETS4 = enumerate_triplets(SPACE4)


def reference_counterexamples(rel, axiom):
    """Pairwise brute force over the members in sort_key order; splits of b
    run smallest first, then by sorted names."""
    members, held = rel.sorted_members, rel.members

    def splits(b):
        return [frozenset(k) for r in range(1, len(b) + 1)
                for k in itertools.combinations(sorted(b), r)]

    instances = {
        "symmetry": [((t,), Triplet(t.b, t.a, t.c)) for t in members],
        "decomposition": [((t,), Triplet(t.a, k, t.c)) for t in members for k in splits(t.b)],
        "weak_union": [((t,), Triplet(t.a, k, t.c | (t.b - k)))
                       for t in members for k in splits(t.b)],
        "contraction": [((t1, t2), Triplet(t1.a, t1.b | t2.b, t1.c))
                        for t1 in members for t2 in members
                        if t2.a == t1.a and t2.c == t1.b | t1.c],
        "intersection": [((t1, t2), Triplet(t1.a, t1.b | t2.b, t1.c - t2.b))
                         for t1 in members for t2 in members
                         if t2.a == t1.a and t2.b <= t1.c and t2.c == t1.b | (t1.c - t2.b)],
    }[axiom]
    return [Counterexample(axiom, p, c) for p, c in instances if c not in held]


def reference_report(rel, axioms):
    found = {axiom: reference_counterexamples(rel, axiom) for axiom in axioms}
    return AxiomReport(
        {axiom: not cx for axiom, cx in found.items()},
        tuple(cx for axiom in axioms for cx in found[axiom]),
    )


# sparse subsets, and the complements of sparse subsets, where premises pair often
relations4 = st.frozensets(st.sampled_from(TRIPLETS4)).flatmap(
    lambda some: st.sampled_from((some, frozenset(TRIPLETS4) - some))
).map(lambda members: IndependenceRelation(SPACE4, members))


def assert_reports_equal_the_reference(rel):
    """Every report of the relation, counterexample order included."""
    for axioms, report in (
        (GRAPHOID_AXIOMS, is_graphoid(rel)),
        (SEMIGRAPHOID_AXIOMS, is_semigraphoid(rel)),
        *(((axiom,), check_axiom(rel, axiom)) for axiom in AXIOMS),
    ):
        assert report == reference_report(rel, axioms)
        assert list(report.verdicts) == list(axioms)


SPACE5 = build_space([(f"X{i}", ("0", "1")) for i in range(1, 6)])


class TestAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(rel=relations4)
    def test_reports_equal_the_brute_force_reference(self, rel):
        assert_reports_equal_the_reference(rel)

    def test_induced_relations_equal_the_brute_force_reference(self):
        for seed in range(4):
            dist = random_distribution(SPACE4, seed=seed)
            for conj in (Min(), ProductLike(), LukasiewiczLike()):
                for kind in RelationKind:
                    rel = enumerate_relation(dist, conj, kind)
                    assert is_graphoid(rel) == reference_report(rel, GRAPHOID_AXIOMS)

    def test_five_variable_relations_equal_the_brute_force_reference(self):
        full = IndependenceRelation(SPACE5, frozenset(enumerate_triplets(SPACE5)))
        assert len(full) == 570
        assert_reports_equal_the_reference(full)
        for seed in (0, 1):
            # X5 repeats X4, so no-interactivity loses intersection, and
            # under luka weak union
            table = random_distribution(SPACE5, grid=3, seed=seed).table.copy()
            table[..., 0, 1] = table[..., 1, 0] = 0.0
            table.flat[np.argmax(table)] = 1.0
            dist = Distribution(SPACE5, SPACE5.names, table)
            for conj in (Min(), ProductLike(), LukasiewiczLike()):
                for kind in RelationKind:
                    assert_reports_equal_the_reference(enumerate_relation(dist, conj, kind))

    def test_empty_relation_equals_the_brute_force_reference(self):
        assert_reports_equal_the_reference(IndependenceRelation(SPACE4, frozenset()))

    def test_names_past_the_encoding_are_refused(self):
        space = build_space([(f"V{i:02}", ("0", "1")) for i in range(32)])
        names = space.names
        fits = IndependenceRelation(space, frozenset({Triplet.of(names[:29], names[29:31])}))
        assert_reports_equal_the_reference(fits)
        assert is_graphoid(fits).failing() == ("symmetry", "decomposition", "weak_union")
        past = IndependenceRelation(space, frozenset({Triplet.of(names[:30], names[30:])}))
        with pytest.raises(TooLarge, match="32 variables; its encoding holds at most 31"):
            is_graphoid(past)

    @settings(max_examples=100, deadline=None)
    @given(rel=relations4)
    def test_sorted_members_follow_sort_key(self, rel):
        assert rel.sorted_members == tuple(sorted(rel.members, key=lambda t: t.sort_key))


class TestLevels:
    def test_two_peak_noninteractivity_is_semigraphoid_only(self, two_peak):
        for conj in (ProductLike(), Min()):
            rel = enumerate_relation(two_peak, conj, RelationKind.NON_INTERACTIVITY)
            assert is_semigraphoid(rel).holds
            report = is_graphoid(rel)
            assert not report.holds
            assert report.failing() == ("intersection",)

    def test_semigraphoid_checks_exactly_four_axioms(self):
        report = is_semigraphoid(relation())
        assert set(report.verdicts) == {
            "symmetry",
            "decomposition",
            "weak_union",
            "contraction",
        }

    def test_graphoid_checks_all_five(self):
        assert set(is_graphoid(relation()).verdicts) == set(AXIOMS)


class TestRandomDistribution:
    def test_deterministic_and_normalised(self):
        d1 = random_distribution(SPACE3, seed=7)
        d2 = random_distribution(SPACE3, seed=7)
        assert np.array_equal(d1.table, d2.table)
        assert d1.normalised

    def test_values_stay_on_grid(self):
        dist = random_distribution(SPACE3, grid=4, seed=3)
        assert set(np.unique(dist.table * 4)) <= {0.0, 1.0, 2.0, 3.0, 4.0}

    def test_strictly_positive_has_no_zeros(self):
        for seed in range(10):
            dist = random_distribution(SPACE3, strictly_positive=True, seed=seed)
            assert np.all(dist.table > 0)

    def test_different_seeds_differ(self):
        assert not np.array_equal(
            random_distribution(SPACE3, seed=0).table,
            random_distribution(SPACE3, seed=1).table,
        )

    def test_invalid_grid_rejected(self):
        with pytest.raises(ValueError):
            random_distribution(SPACE3, grid=0)


class TestFuzz:
    def test_clean_run_under_min_and_product(self):
        config = FuzzConfig(trials=40, seed=1234, conjunctions=(Min(), ProductLike()))
        report = fuzz_properties(config)
        assert report.ok
        assert report.trials_run == 40
        assert report.relations_checked == 40 * 4

    def test_two_peak_injection_mines_the_intersection_gap(self, two_peak):
        config = FuzzConfig(trials=0, conjunctions=(Min(),), inject=(two_peak,))
        report = fuzz_properties(config)
        assert report.ok
        expected = Counterexample(
            "intersection",
            (Triplet.of("X1", "X2", "X3"), Triplet.of("X1", "X3", "X2")),
            Triplet.of("X1", ("X2", "X3"), ()),
        )
        assert any(
            m.trial == 0 and m.conjunction == "min" and m.counterexample == expected
            for m in report.mined
        )

    def test_lukasiewicz_divergence_is_reported_with_reproducer(self, tmp_path, monkeypatch):
        # single fully-possible atom: no-interactivity strictly exceeds
        # independence under the clamped conjunction, which is consistent
        # with the claimed containment
        atom = make_distribution(
            SPACE3, SPACE3.names, [({"X1": "0", "X2": "0", "X3": "0"}, 1.0)]
        )
        config = FuzzConfig(
            trials=0,
            conjunctions=(LukasiewiczLike(),),
            inject=(atom,),
            reproducer_dir=tmp_path,
        )
        assert fuzz_properties(config).ok

        # a planted independence member missing from no-interactivity is
        # a violated containment claim
        def planted(dist, conj, kind, eps):
            full = kind is RelationKind.INDEPENDENCE
            return IndependenceRelation(
                dist.space, frozenset(enumerate_triplets(dist.space) if full else ())
            )

        monkeypatch.setattr(graphoid, "enumerate_relation", planted)
        report = fuzz_properties(config)
        assert not report.ok
        failure = report.failures[0]
        assert "contained in no-interactivity" in failure.prop
        assert failure.detail == "independence member (X1 ; X2 | -) is not in no-interactivity"
        assert failure.conjunction == "luka"
        doc = json.loads((tmp_path / failure.path.split("/")[-1]).read_text())
        assert doc["conjunction"] == "luka"
        assert doc["seed"] is None
        assert doc["variables"] == [
            {"name": n, "frame": ["0", "1"]} for n in ("X1", "X2", "X3")
        ]
        assert doc["values"] == [
            {"assignment": {"X1": "0", "X2": "0", "X3": "0"}, "possibility": 1.0}
        ]

    def test_deterministic_for_fixed_seed(self):
        config = FuzzConfig(trials=25, seed=77, conjunctions=(ProductLike(),))
        r1 = fuzz_properties(config)
        r2 = fuzz_properties(config)
        assert [m for m in r1.mined] == [m for m in r2.mined]
        assert r1.relations_checked == r2.relations_checked

    def test_guard_rejects_huge_spaces(self):
        with pytest.raises(TooLarge):
            fuzz_properties(FuzzConfig(trials=1, variables=9))

    def test_too_few_variables_and_negative_trials_rejected(self):
        for variables in (1, 0, -2):
            with pytest.raises(TooSmall):
                fuzz_properties(FuzzConfig(trials=3, variables=variables))
        with pytest.raises(ValueError):
            fuzz_properties(FuzzConfig(trials=-5))

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -1.0])
    def test_bad_eps_rejected(self, eps):
        with pytest.raises(ValueError):
            fuzz_properties(FuzzConfig(trials=0, eps=eps))

    def test_four_variable_run(self):
        config = FuzzConfig(
            trials=3, variables=4, seed=5, conjunctions=(Min(),)
        )
        report = fuzz_properties(config)
        assert report.ok
        assert report.trials_run == 3
