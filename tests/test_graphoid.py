"""Axiom checking, random distribution generation and the fuzz harness."""

import itertools
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from possind import (
    AXIOMS,
    GRAPHOID_AXIOMS,
    SEMIGRAPHOID_AXIOMS,
    AxiomReport,
    BadTriplet,
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
    load_distribution,
    make_distribution,
    random_distribution,
)
from possind import core, graphoid, independence
from possind.serialize import reproducer_document

from conftest import NOT_COUNTS, SPACE3, not_a_count


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

    @pytest.mark.parametrize("invalid", [
        Triplet.of("X1", "X1"), Triplet.of((), "X2"), Triplet.of("Q", "X2"),
        Triplet.of("X1", "X2", "X2")], ids=str)
    def test_invalid_members_are_refused(self, invalid):
        # (X1 ; X1 | -) once encoded as (- ; - | X1), and every axiom held
        with pytest.raises(BadTriplet) as expected:
            invalid.validate(SPACE3)
        for read in (is_graphoid, list, lambda rel: rel.sorted_members):
            rel = relation(Triplet.of("X1", "X2"), invalid, Triplet.of("X2", "X1"))
            with pytest.raises(BadTriplet, match=f"^{re.escape(str(expected.value))}$"):
                read(rel)


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


def both_sides(check):
    """[check() as _Rows' rule decides, check() with every pass searching
    the sorted codes]: with no member-count allowance there is no table."""
    results = [check()]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graphoid, "_TABLE_PER_MEMBER", 0)
        results.append(check())
    return results


def assert_reports_equal_the_reference(rel):
    """Every report of the relation, counterexample order included, on
    both sides of _Rows' rule."""
    def reports():
        return [(GRAPHOID_AXIOMS, is_graphoid(rel)), (SEMIGRAPHOID_AXIOMS, is_semigraphoid(rel)),
                *(((axiom,), check_axiom(rel, axiom)) for axiom in AXIOMS)]

    default, searched = both_sides(reports)
    assert default == searched
    for axioms, report in default:
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
                    assert both_sides(lambda: is_graphoid(rel)) == [
                        reference_report(rel, GRAPHOID_AXIOMS)] * 2

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

    def test_chunked_pass_equals_one_relation_at_a_time(self, monkeypatch):
        # relation ids sit above twice the widest name count, so relations
        # naming 31 names share a pass in pairs only, and a longer list is
        # refused; b and c stay small, so no axiom splits many names
        space = build_space([(f"V{i:02}", ("0", "1")) for i in range(31)])
        v = space.names
        wide = [IndependenceRelation(space, frozenset(members)) for members in (
            {Triplet.of(v[:29], v[29], v[30])},
            {Triplet.of(v[:29], v[29], v[30]), Triplet.of(v[:29], v[30], v[29])},
            {Triplet.of(v[2:], v[:2], ()), Triplet.of(v[2:], v[0], ())},
            {Triplet.of(v[:30], v[30], ()), Triplet.of(v[30], v[0], v[1:3])},
        )]
        assert all(len(rel._encoding[0]) == 31 for rel in wide)
        empty = IndependenceRelation(SPACE4, frozenset())
        # members over only some of the scope's names
        some4 = IndependenceRelation(SPACE4, frozenset(
            t for t in TRIPLETS4 if t.a | t.b | t.c <= {"X2", "b", "a"} and len(t.b) > 1))
        # each other's symmetry conclusion and contraction partner, in one pass
        rels = [empty, relation(Triplet.of("X1", "X2", ())), relation(Triplet.of("X2", "X1", ())),
                relation(Triplet.of("X1", "X3", "X2")), some4, wide[0], empty, wide[1], wide[2],
                symmetric_closure(Triplet.of("X1", ("X2", "X3"), ())), empty, wide[3],
                IndependenceRelation(SPACE4, frozenset(TRIPLETS4))]
        passes, tables = [], []
        rows = graphoid._Rows

        def counted(members, n, rel):
            m = rows(members, n, rel)
            passes.append((int(rel.max()) + 1, n))
            tables.append(m.table is not None)
            return m

        monkeypatch.setattr(graphoid, "_Rows", counted)
        # the 2- and 3-name passes look members up in the rank table, the
        # first 3-name pass with its one member at the bound of 64 codes;
        # the 31-name passes search the sorted codes, and so does every
        # pass with no member-count allowance
        table_sides = [True, True, False, False, True, False]
        # runs of 3, 1, 2, 3, 2 and 2 relations, empty ones included, each fit one pass
        runs = np.cumsum([0, 3, 1, 2, 3, 2, 2]).tolist()
        assert runs[-1] == len(rels)
        for per_member, sides in ((graphoid._TABLE_PER_MEMBER, table_sides), (0, [False] * 6)):
            monkeypatch.setattr(graphoid, "_TABLE_PER_MEMBER", per_member)
            for axioms in (GRAPHOID_AXIOMS, SEMIGRAPHOID_AXIOMS, ("intersection", "symmetry")):
                passes.clear()
                tables.clear()
                with pytest.raises(TooLarge, match="10 relations over up to 31 names overflow"):
                    graphoid._check_axioms(rels, axioms)
                with pytest.raises(TooLarge, match="3 relations over up to 31 names overflow"):
                    graphoid._check_axioms(rels[5:9], axioms)
                assert passes == []
                reports = [report for lo, hi in zip(runs, runs[1:])
                           for report in graphoid._check_axioms(rels[lo:hi], axioms)]
                # (non-empty relations, n) of each pass
                assert passes == [(2, 2), (1, 3), (2, 31), (2, 31), (1, 3), (2, 31)]
                assert all(2 * n + (count - 1).bit_length() <= 63 for count, n in passes)
                assert tables == sides
                assert reports == [reference_report(rel, axioms) for rel in rels]
                assert all(list(report.verdicts) == list(axioms) for report in reports)
                assert reports == [graphoid._check_axioms((rel,), axioms)[0] for rel in rels]
        # the intersection and symmetry gaps, so the reports above are not vacuous
        assert [len(report.counterexamples) for report in reports] == [
            0, 1, 1, 1, 3, 1, 0, 4, 2, 0, 0, 2, 0]

    def test_six_variable_relations_on_both_sides(self):
        # the sizes the dense benchmark checks, whole and with every fifth
        # member dropped, so that every axiom has counterexamples to order;
        # one pass for all six, and one per relation
        space = build_space([(f"X{i}", ("0", "1")) for i in range(1, 7)])
        pairs = ((0, 1), (2, 3), (4, 5))
        rels = []
        for blocks, combine, conj, kind in (
                ((), np.multiply, LukasiewiczLike(), RelationKind.NON_INTERACTIVITY),
                (pairs, np.minimum, Min(), RelationKind.NON_INTERACTIVITY),
                (((0, 1, 2), (3, 4, 5)), np.multiply, ProductLike(), RelationKind.INDEPENDENCE)):
            table = np.ones((2,) * 6)
            for block in blocks:
                values = (1.0, 0.8, 0.5, 0.3) if len(block) == 2 else np.linspace(1.0, 0.3, 8)
                table = combine(table, np.reshape(values, [2 if i in block else 1
                                                           for i in range(6)]))
            rel = enumerate_relation(Distribution(space, space.names, table), conj, kind)
            thinned = frozenset(t for i, t in enumerate(rel.sorted_members) if i % 5)
            rels += [rel, IndependenceRelation(space, thinned)]
        assert [len(rel) for rel in rels] == [2702, 2161, 1350, 1080, 722, 577]
        tables = []
        rows = graphoid._Rows

        def counted(members, n, rel):
            m = rows(members, n, rel)
            tables.append(m.table is not None)
            return m

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graphoid, "_Rows", counted)
            default, searched = both_sides(lambda: graphoid._check_axioms(rels, GRAPHOID_AXIOMS))
        assert tables == [True, False]
        assert default == searched == [is_graphoid(rel) for rel in rels]
        assert [report.holds for report in default] == [True, False] * 3
        assert all(set(report.failing()) == set(GRAPHOID_AXIOMS) for report in default[1::2])
        # the brute force takes seconds past a thousand members
        assert default[3::2] == [reference_report(rel, GRAPHOID_AXIOMS) for rel in rels[3::2]]

    def test_chunked_pass_of_empty_relations_checks_nothing(self, monkeypatch):
        monkeypatch.setattr(graphoid, "_Rows", None)
        reports = graphoid._check_axioms([relation(), relation()], GRAPHOID_AXIOMS)
        assert reports == [is_graphoid(relation())] * 2 and reports[0].holds

    @settings(max_examples=100, deadline=None)
    @given(rel=relations4 | st.builds(
        lambda seed, conj, kind: enumerate_relation(random_distribution(SPACE4, 2, seed=seed),
                                                    conj, kind),
        st.integers(0, 2**32 - 1), st.sampled_from((Min(), ProductLike(), LukasiewiczLike())),
        st.sampled_from(RelationKind)))
    def test_sorted_members_follow_sort_key(self, rel):
        assert rel.sorted_members == tuple(sorted(rel.members, key=lambda t: t.sort_key))


def submasks(mask):
    """The nonempty submasks of mask, fewest bits first, then by bit positions."""
    bits = [i for i in range(mask.bit_length()) if mask >> i & 1]
    return [sum(1 << i for i in k)
            for r in range(1, len(bits) + 1) for k in itertools.combinations(bits, r)]


class TestSplits:
    def assert_each_submask_listed_once(self, *rels, table):
        # `table`: whether the pass has a rank table; if so, the pass without
        # one is checked on the same rows too
        encodings = [rel._encoding for rel in rels]
        rows = np.concatenate([block for _, block in encodings])
        n = max(len(names) for names, _ in encodings)
        ids = np.arange(len(rels)).repeat([len(rel) for rel in rels])
        both = both_sides(lambda: graphoid._Rows(rows, n, ids))
        assert [m.table is not None for m in both] == [table, False]
        for m in both[:1 + table]:
            self.assert_splits(m, rows)

    def assert_splits(self, m, rows):
        for column, part in enumerate("bc", 1):
            listed = {}
            for owner, kept, pos in zip(*(values.tolist() for values in m.splits[part])):
                listed.setdefault(owner, []).append((pos, kept))
            # sorted by pos, each owner's list is its submasks numbered from 0
            assert {owner: sorted(found) for owner, found in listed.items()} == {
                i: list(enumerate(submasks(int(row[column]))))
                for i, row in enumerate(rows) if row[column]}

    def test_one_member(self):
        # 3 names: one member's 64 codes are at the table's bound
        self.assert_each_submask_listed_once(relation(Triplet.of("X1", ("X2", "X3"))), table=True)
        self.assert_each_submask_listed_once(relation(Triplet.of("X1", "X2", "X3")), table=True)

    def test_rows_sharing_masks_and_empty_conditions(self):
        full = IndependenceRelation(SPACE4, frozenset(TRIPLETS4))
        assert sum(not t.c for t in full) > 1 and len({t.b for t in full}) < len(full)
        self.assert_each_submask_listed_once(full, table=True)
        self.assert_each_submask_listed_once(relation(Triplet.of("X1", ("X2", "X3"))), full,
                                             table=True)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_the_split_table_equals_the_distinct_masks(self, n):
        # over at most 8 names each mask's submasks are read from one table per
        # name count; without it, those of each distinct mask are found once;
        # both list them in _choices order, with and without a rank table
        rng = np.random.default_rng(n)
        # each name in no part, a, b or c; b is never empty, and rows repeat masks
        parts = rng.integers(0, 4, size=(40, n))
        parts[:, rng.integers(0, n)] = 2
        rows = np.stack([(parts == p) @ (1 << np.arange(n)) for p in (1, 2, 3)], axis=1)
        table = graphoid._split_table(n)
        assert sum(len(column) for column in table) == 2 * 2 ** n + 3 ** n - 2 ** n
        assert not any(column.flags.writeable for column in table)
        for members in (rows[:1], rows[:3], rows):
            ids = np.zeros(len(members), np.int64)
            read = both_sides(lambda: graphoid._Rows(members, n, ids))
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(graphoid, "_split_table", lambda n: None)
                found = both_sides(lambda: graphoid._Rows(members, n, ids))
            for m in read + found:
                self.assert_splits(m, members)
            listed = [{part: [column.tolist() for column in m.splits[part]] for part in "bc"}
                      for m in read + found]
            assert listed == listed[:1] * 4
            assert [m.table is not None for m in read] == [len(members) * 64 >= 4 ** n, False]
        assert graphoid._split_table(9) is None and graphoid._split_table(31) is None

    def test_thirty_one_names(self):
        space = build_space([(f"V{i:02}", ("0", "1")) for i in range(31)])
        v = space.names
        wide = IndependenceRelation(space, frozenset({
            Triplet.of(v[:23], v[23:27], v[27:]), Triplet.of(v[27:], v[23:27], v[:4]),
            Triplet.of(v[:29], v[29], v[30]), Triplet.of(v[4:27], v[27:], ())}))
        assert len(wide._encoding[0]) == 31
        self.assert_each_submask_listed_once(wide, table=False)


@pytest.fixture
def built(monkeypatch):
    """The number of Triplets constructed since the fixture was set up."""
    count = [0]

    def counted(self, *args, init=Triplet.__init__, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Triplet, "__init__", counted)
    return lambda: count[0]


class TestRowsFirstRelations:
    def test_enumeration_and_axiom_checks_build_no_triplet(self, built):
        space = build_space([(f"X{i}", ("0", "1")) for i in range(1, 5)])
        ones = Distribution(space, space.names, np.ones((2, 2, 2, 2)))
        rel = enumerate_relation(ones, Min(), RelationKind.INDEPENDENCE)
        assert len(rel) == 110 and is_graphoid(rel).holds
        assert built() == 0
        # iteration decodes each member once, and members reuses them
        assert len(list(rel)) == len(rel) == built()
        assert len(rel.members) == len(rel) == built()

    def test_a_trial_without_counterexamples_builds_no_triplet(self, built):
        # seed 0 relates only under luka's no-interactivity, which no claim
        # reads while luka's independence is empty; seed 11's min
        # no-interactivity is axiom-checked and holds all five axioms
        luka, ni = LukasiewiczLike(), RelationKind.NON_INTERACTIVITY
        for seed, (conj, kind) in ((0, (luka, ni)), (11, (Min(), ni))):
            report = fuzz_properties(FuzzConfig(trials=1, seed=seed))
            assert report.ok and not report.mined and built() == 0
            dist = random_distribution(SPACE3, seed=seed)
            assert len(enumerate_relation(dist, conj, kind)) == 2
            assert not enumerate_relation(dist, luka, RelationKind.INDEPENDENCE)

    def test_hand_built_relations_answer_reads_without_encoding(self):
        # neither an invalid member nor names past the encoding stop the
        # reads that need no encoding
        wide = build_space([(f"V{i:02}", ("0", "1")) for i in range(32)])
        for space, member in ((SPACE3, Triplet.of("X1", "X1")),
                              (wide, Triplet.of(wide.names[:30], wide.names[30:]))):
            rel = IndependenceRelation(space, frozenset({member}))
            twin = IndependenceRelation(space, frozenset({member}))
            assert len(rel) == 1 and member in rel and Triplet.of("X1", "X2") not in rel
            assert rel == twin and hash(rel) == hash(twin) and rel != relation()
            assert repr(rel) == "IndependenceRelation(1 triplets)"
            with pytest.raises((BadTriplet, TooLarge)):
                is_graphoid(rel)

    def test_enumerated_relations_equal_their_hand_built_copies(self, two_peak):
        kind = RelationKind.NON_INTERACTIVITY
        for conj in (Min(), ProductLike()):
            hand = IndependenceRelation(
                two_peak.space, enumerate_relation(two_peak, conj, kind).members)
            assert len(hand) == 6
            # each read first on a relation whose members were never read
            for first_read in (lambda rel: rel == hand, lambda rel: hand == rel,
                               lambda rel: hash(rel) == hash(hand)):
                rel = enumerate_relation(two_peak, conj, kind)
                assert "members" not in vars(rel) and first_read(rel)
                assert rel == hand and hand == rel and hash(rel) == hash(hand)
                assert rel != IndependenceRelation(two_peak.space, frozenset())
        empty = enumerate_relation(random_distribution(SPACE3, seed=1), Min(),
                                   RelationKind.INDEPENDENCE)
        assert empty == relation() and hash(empty) == hash(relation()) and len(empty) == 0


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

    def test_grid_past_int64_rejected(self):
        # the largest grid numpy can draw k = 0..grid for
        top = np.iinfo(np.int64).max
        assert random_distribution(SPACE3, grid=top, seed=1).normalised
        for grid in (top + 1, 99999999999999999999):
            with pytest.raises(ValueError, match=f"grid must be <= {top}, got {grid}"):
                random_distribution(SPACE3, grid=grid)
            with pytest.raises(ValueError, match=f"grid must be <= {top}, got {grid}"):
                fuzz_properties(FuzzConfig(trials=0, grid=grid))

    @pytest.mark.parametrize("grid", NOT_COUNTS, ids=repr)
    def test_grid_must_be_an_integer(self, grid):
        # 2.5 used to draw degrees {0, 0.4, 0.8}, and True a grid of 1
        with pytest.raises(ValueError, match=not_a_count("grid", grid)):
            random_distribution(SPACE3, grid=grid)

    @pytest.mark.parametrize("grid", [10, 2**63 - 1])
    def test_a_numpy_integer_grid_draws_the_same_table(self, grid):
        numpy = random_distribution(SPACE3, grid=np.int64(grid), seed=2)
        assert np.array_equal(numpy.table, random_distribution(SPACE3, grid=grid, seed=2).table)


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
        def planted(dist, conjs, kinds, eps):
            full = frozenset(enumerate_triplets(dist.space))
            rels = tuple(IndependenceRelation(dist.space, full if kind is RelationKind.INDEPENDENCE
                                              else frozenset()) for kind in kinds)
            return (rels,) * len(conjs)

        monkeypatch.setattr(graphoid, "_enumerate_relations", planted)
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

    def test_containment_names_the_first_missing_member_from_rows(self, built):
        # the rows of both relations move onto the names either uses, so
        # relations over different names compare member by member; the
        # first member in sort_key order that the other lacks is the only
        # Triplet built
        rng = np.random.default_rng(0)
        cases = []
        for _ in range(150):
            picks = []
            for _ in range(2):
                names = set(rng.choice(SPACE4.names, rng.integers(2, 5), replace=False).tolist())
                picks.append([t for t in TRIPLETS4
                              if t.a | t.b | t.c <= names and rng.random() < 0.6])
            kept = picks[0][::1 + int(rng.integers(0, 3))] if rng.random() < 0.5 else []
            cases.append((IndependenceRelation(SPACE4, frozenset(picks[0])),
                          IndependenceRelation(SPACE4, frozenset(picks[1] + kept))))
        before = built()
        found = [graphoid._first_missing(rel, other) for rel, other in cases if len(rel)]
        assert built() - before == sum(t is not None for t in found)
        assert found == [next((t for t in rel if t not in other.members), None)
                         for rel, other in cases if len(rel)]
        assert any(t is None for t in found) and sum(t is not None for t in found) > 50
        assert any(rel._encoding[0] != other._encoding[0] and missing is None
                   for (rel, other), missing in zip([c for c in cases if len(c[0])], found))

    @pytest.mark.parametrize("spec, name", [
        ("my/../min", "my-..-min"), ("a b\\c", "a-b-c"),
        ("luka:pow=2", "luka-pow-2"), ("prod:pow=1.0000001", "prod-pow-1.0000001"),
    ])
    def test_reproducer_lands_inside_its_directory(self, spec, name, tmp_path):
        class Named(Min):
            def spec_string(self) -> str:
                return spec

        # a near-tie table on which min independence is not a graphoid at eps 1e-9
        near_tie = Distribution(SPACE3, SPACE3.names, np.reshape(
            [2e-9, 1, 2e-9, 1, 1e-9, 1, 5e-324, 1 - 1e-12], (2, 2, 2)))
        directory = tmp_path / "out"
        report = fuzz_properties(FuzzConfig(trials=0, conjunctions=(Named(),), inject=(near_tie,),
                                            reproducer_dir=directory))
        [failure] = report.failures
        assert failure.conjunction == spec
        assert failure.path == str(directory / f"possind-reproducer-trial0-{name}.json")
        assert [p.name for p in tmp_path.rglob("*.json")] == [Path(failure.path).name]
        assert json.loads(Path(failure.path).read_text()) == failure.reproducer
        assert load_distribution(failure.path).table.tobytes() == near_tie.table.tobytes()

    @pytest.mark.parametrize("broken", ["min-graphoid", "prod-semigraphoid", "luka-containment"])
    def test_planted_failure_at_each_claim_position(self, broken, monkeypatch, tmp_path):
        # every relation is enumerated and checked before the first claim is
        # walked, so the report must still be the claim-by-claim one
        x1x2 = Triplet.of("X1", "X2", ())
        gapped = symmetric_closure(Triplet.of("X1", "X2", "X3"), Triplet.of("X1", "X3", "X2"))
        holds = {RelationKind.INDEPENDENCE: symmetric_closure(x1x2),
                 RelationKind.NON_INTERACTIVITY: gapped}
        plants = {spec: dict(holds) for spec in ("min", "prod", "luka")}
        plants["luka"][RelationKind.NON_INTERACTIVITY] = symmetric_closure(x1x2)
        conj, kind, plant = {
            "min-graphoid": ("min", RelationKind.INDEPENDENCE, relation(x1x2)),
            # a missing mirror breaks symmetry; the intersection gaps stay,
            # and must not be mined
            "prod-semigraphoid": ("prod", RelationKind.NON_INTERACTIVITY, relation(x1x2, *gapped)),
            "luka-containment": ("luka", RelationKind.NON_INTERACTIVITY, relation()),
        }[broken]
        plants[conj][kind] = plant
        conjs = (Min(), ProductLike(), LukasiewiczLike())
        dist = random_distribution(SPACE3, seed=3)

        def planted(dist, conjs, kinds, eps):
            return tuple(tuple(plants[c.spec_string()][k] for k in kinds) for c in conjs)

        def claim_by_claim():
            relations, mined = 0, []
            for c in conjs:
                i_rel, ni_rel = (plants[c.spec_string()][k] for k in RelationKind)
                relations += 1
                report = is_graphoid(i_rel)
                if not report.holds:
                    return relations, (c, "independence relation is a graphoid",
                                       str(report.counterexamples[0])), mined
                relations += 1
                if isinstance(c, LukasiewiczLike):
                    missing = [t for t in i_rel if t not in ni_rel]
                    if missing:
                        return relations, (c, "independence is contained in no-interactivity "
                                              "under lukasiewicz-like conjunctions",
                                           f"independence member {missing[0]} is not in "
                                           "no-interactivity"), mined
                    continue
                report = is_semigraphoid(ni_rel)
                if not report.holds:
                    return relations, (c, "no-interactivity relation is a semigraphoid",
                                       str(report.counterexamples[0])), mined
                mined += [(c.spec_string(), cx)
                          for cx in check_axiom(ni_rel, "intersection").counterexamples]
            return relations, None, mined

        relations, (c, prop, detail), mined = claim_by_claim()
        assert (relations, c.spec_string()) == {"min-graphoid": (1, "min"),
                                                "prod-semigraphoid": (4, "prod"),
                                                "luka-containment": (6, "luka")}[broken]
        assert len(mined) == {"min-graphoid": 0, "prod-semigraphoid": 2,
                              "luka-containment": 4}[broken]
        monkeypatch.setattr(graphoid, "_enumerate_relations", planted)
        report = fuzz_properties(FuzzConfig(trials=0, conjunctions=conjs, inject=(dist,),
                                            reproducer_dir=tmp_path))
        assert report.relations_checked == relations
        assert [(m.trial, m.conjunction, m.counterexample) for m in report.mined] == [
            (0, spec, cx) for spec, cx in mined]
        [failure] = report.failures
        assert (failure.trial, failure.seed, failure.conjunction, failure.prop, failure.detail) == (
            0, None, c.spec_string(), prop, detail)
        assert failure.reproducer == reproducer_document(dist, c, None, trial=0, property=prop)
        assert json.loads(Path(failure.path).read_text()) == failure.reproducer

    def test_one_enumeration_and_one_axiom_pass_per_trial(self, monkeypatch):
        # the all-ones table relates every candidate, so no relation is empty;
        # of luka's relations only independence has an axiom claim
        calls = {name: [] for name in ("_enumerate_relations", "_check_axioms", "_Rows")}
        for name, seen in calls.items():
            def counted(*args, fn=getattr(graphoid, name), seen=seen):
                seen.append(args)
                return fn(*args)
            monkeypatch.setattr(graphoid, name, counted)
        ones = Distribution(SPACE3, SPACE3.names, np.ones((2, 2, 2)))
        report = fuzz_properties(FuzzConfig(trials=0, inject=(ones,)))
        assert report.ok and report.relations_checked == 6
        [(_, conjs, *_)] = calls["_enumerate_relations"]
        assert len(conjs) == 3
        assert [len(args[0]) for args in calls["_check_axioms"]] == [5]
        assert [int(rel.max()) + 1 for _, _, rel in calls["_Rows"]] == [5]

    def test_enumerated_relations_leave_encoded(self, monkeypatch, two_peak):
        # only a hand-built relation maps its members' names to masks; an
        # enumeration call builds no mask tables: its plan holds the sort order
        def refused(*args):
            raise AssertionError("members' names mapped to masks")

        monkeypatch.setattr(core, "masks", refused)
        calls = {"_encode": [], "_mask_tables": []}
        for module, name in ((core, "_encode"), (independence, "_mask_tables")):
            def counted(*args, fn=getattr(module, name), seen=calls[name]):
                seen.append(args)
                return fn(*args)
            monkeypatch.setattr(module, name, counted)
        independence._sort_order(3)  # the ranks of 3 names, built once per process
        ones = Distribution(SPACE3, SPACE3.names, np.ones((2, 2, 2)))
        assert fuzz_properties(FuzzConfig(trials=0, inject=(ones,))).ok
        assert [len(args[1]) for args in calls["_encode"]] == [18] * 6
        assert not calls["_mask_tables"]
        assert fuzz_properties(FuzzConfig(trials=20, seed=7)).ok and len(calls["_encode"]) > 6
        rel = enumerate_relation(two_peak, Min(), RelationKind.NON_INTERACTIVITY)
        assert is_graphoid(rel).failing() == ("intersection",)
        assert list(rel) == list(rel.sorted_members) and len(rel) == 6
        with pytest.raises(AssertionError, match="names mapped to masks"):
            is_graphoid(IndependenceRelation(rel.space, rel.members))

    def test_a_trial_imports_no_masked_arrays(self):
        # numpy.ma costs about 1 MB of RSS; np.unique, for one, imports it
        script = ("import sys\n"
                  "from possind import FuzzConfig, fuzz_properties\n"
                  "assert fuzz_properties(FuzzConfig(trials=3)).ok\n"
                  "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))\n")
        env = dict(os.environ, PYTHONPATH=str(Path(graphoid.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=60)
        assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr

    def test_deterministic_for_fixed_seed(self):
        config = FuzzConfig(trials=25, seed=77, conjunctions=(ProductLike(),))
        r1 = fuzz_properties(config)
        r2 = fuzz_properties(config)
        assert [m for m in r1.mined] == [m for m in r2.mined]
        assert r1.relations_checked == r2.relations_checked

    def test_guard_rejects_huge_spaces(self):
        with pytest.raises(TooLarge):
            fuzz_properties(FuzzConfig(trials=1, variables=9))

    def test_huge_variable_counts_are_refused_without_their_count(self):
        # 9 variables still name their count; 4^n at 4 * 10**6 variables
        # would take seconds to compute and has 2.4 million digits
        with pytest.raises(TooLarge, match="^9 variables give 223290 candidate triplets"):
            fuzz_properties(FuzzConfig(trials=0, variables=9))
        start = time.perf_counter()
        with pytest.raises(TooLarge, match="^4000000 variables give") as refused:
            fuzz_properties(FuzzConfig(variables=4 * 10**6))
        assert time.perf_counter() - start < 0.5 and len(str(refused.value)) < 200

    @pytest.mark.parametrize("trials", [0, 1])
    def test_oversized_tables_are_refused_before_any_frame_is_built(self, trials):
        # 10**18 cells: a frame of 10**6 values is never listed, with or without draws
        start = time.perf_counter()
        with pytest.raises(TooLarge, match="^1000000000000000000 table cells exceed the guard"):
            fuzz_properties(FuzzConfig(trials=trials, frame_size=10**6))
        assert time.perf_counter() - start < 0.5

    def test_too_few_variables_and_negative_trials_rejected(self):
        for variables in (1, 0, -2):
            with pytest.raises(TooSmall):
                fuzz_properties(FuzzConfig(trials=3, variables=variables))
        with pytest.raises(ValueError):
            fuzz_properties(FuzzConfig(trials=-5))

    @pytest.mark.parametrize("value", NOT_COUNTS, ids=repr)
    @pytest.mark.parametrize("count", ["trials", "seed", "variables", "frame_size", "grid"])
    def test_counts_must_be_integers(self, count, value):
        config = FuzzConfig(**{"trials": 0, count: value})
        with pytest.raises(ValueError, match=not_a_count(count, value)):
            fuzz_properties(config)

    def test_numpy_integer_counts_give_the_same_report(self):
        counts = dict(trials=6, seed=1, variables=3, frame_size=2, grid=2)
        plain = fuzz_properties(FuzzConfig(**counts))
        numpy = fuzz_properties(FuzzConfig(**{k: np.int64(v) for k, v in counts.items()}))
        assert plain.mined and numpy == plain
        assert type(numpy.trials_run) is int

    def test_no_conjunctions_rejected(self):
        # a run that checks no relation must not report ok
        with pytest.raises(ValueError, match="conjunctions"):
            fuzz_properties(FuzzConfig(trials=5, conjunctions=()))

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
