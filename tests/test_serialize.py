"""Distribution document round-trips and format validation."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from possind import (
    Distribution,
    FormatError,
    LukasiewiczLike,
    OutOfRange,
    ScopeMismatch,
    TooLarge,
    build_space,
    distribution_document,
    dump_distribution,
    load_distribution,
    make_distribution,
    parse_distribution,
    reproducer_document,
    serialize,
)

#: frames of sizes 3, 4 and 2, so a flat index mixes three radices
SPACE342 = build_space([("A", ("a0", "a1", "a2")), ("B", ("b0", "b1", "b2", "b3")),
                        ("C", ("c0", "c1"))])


class TestRoundTrip:
    @pytest.mark.parametrize("fixture", ["one_sided", "two_peak"])
    def test_dump_then_load_preserves_everything(self, request, fixture, tmp_path):
        dist = request.getfixturevalue(fixture)
        path = tmp_path / "dist.json"
        dump_distribution(dist, path)
        loaded = load_distribution(path)
        assert loaded.space == dist.space
        assert loaded.scope == dist.scope
        assert np.array_equal(loaded.table, dist.table)

    def test_zero_entries_are_omitted(self, two_peak):
        doc = distribution_document(two_peak)
        assert len(doc["values"]) == 2
        assert {v["possibility"] for v in doc["values"]} == {1.0}

    def test_document_lists_frames_in_order(self, two_peak):
        doc = distribution_document(two_peak)
        assert doc["variables"][0] == {"name": "X1", "frame": ["0", "2"]}
        assert doc["variables"][1] == {"name": "X2", "frame": ["-1", "1"]}

    def test_document_lists_exactly_the_nonzero_cells(self):
        table = np.random.default_rng(4).integers(0, 3, (3, 4, 2)) / 2
        dist = Distribution(SPACE342, SPACE342.names, table)
        doc = distribution_document(dist)
        # reference: every cell through items(), zeros dropped afterwards
        want = [{"assignment": a, "possibility": v} for a, v in dist.items() if v != 0.0]
        assert 0 < len(want) < table.size
        assert json.dumps(doc["values"]) == json.dumps(want)
        assert np.array_equal(parse_distribution(doc).table, table)

    def test_empty_scope_document(self):
        dist = Distribution(build_space([]), (), 0.5)
        doc = distribution_document(dist)
        assert doc == {"variables": [], "values": [{"assignment": {}, "possibility": 0.5}]}
        assert parse_distribution(doc).table.tobytes() == dist.table.tobytes()

    def test_reproducer_document_carries_conjunction_and_seed(self, two_peak):
        doc = reproducer_document(two_peak, LukasiewiczLike(), 31, trial=4)
        assert doc["conjunction"] == "luka"
        assert doc["seed"] == 31
        assert doc["trial"] == 4
        assert doc["values"]


class TestParsing:
    def base_doc(self):
        return {
            "variables": [
                {"name": "A", "frame": ["0", "1"]},
                {"name": "B", "frame": ["0", "1"]},
            ],
            "values": [
                {"assignment": {"A": "0", "B": "0"}, "possibility": 1},
                {"assignment": {"A": "1", "B": "1"}, "possibility": 0.5},
            ],
        }

    def test_parses_valid_document(self):
        dist = parse_distribution(self.base_doc())
        assert dist.at({"A": "0", "B": "0"}) == 1.0
        assert dist.at({"A": "1", "B": "1"}) == 0.5
        assert dist.at({"A": "0", "B": "1"}) == 0.0

    def test_integer_possibility_is_accepted(self):
        doc = self.base_doc()
        doc["values"][0]["possibility"] = 1
        assert parse_distribution(doc).normalised

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("variables"),
            lambda d: d.__setitem__("variables", "X"),
            lambda d: d["variables"].append({"name": "C"}),
            lambda d: d["variables"].append({"name": "C", "frame": [0, 1]}),
            lambda d: d.__setitem__("values", {"a": 1}),
            lambda d: d["values"].append({"possibility": 0.5}),
            lambda d: d["values"].append(
                {"assignment": {"A": "0", "B": "0"}, "possibility": True}
            ),
            lambda d: d["values"].append(
                {"assignment": {"A": "0", "B": "0"}, "possibility": 0.2}
            ),
        ],
    )
    def test_malformed_documents_rejected(self, mutate):
        doc = self.base_doc()
        mutate(doc)
        with pytest.raises(FormatError):
            parse_distribution(doc)

    def test_non_dict_document_rejected(self):
        with pytest.raises(FormatError):
            parse_distribution([1, 2, 3])

    def test_out_of_range_degree_rejected(self):
        # 10**400 is an integer too large for a float
        for degree in (1.5, 10**400):
            doc = self.base_doc()
            doc["values"][1]["possibility"] = degree
            with pytest.raises(OutOfRange):
                parse_distribution(doc)

    def test_assignment_must_cover_all_variables(self):
        doc = self.base_doc()
        doc["values"][1]["assignment"] = {"A": "1"}
        with pytest.raises(ScopeMismatch):
            parse_distribution(doc)

    def test_unknown_frame_value_rejected(self):
        doc = self.base_doc()
        doc["values"][1]["assignment"] = {"A": "1", "B": "7"}
        with pytest.raises(ScopeMismatch):
            parse_distribution(doc)

    def test_invalid_json_file_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(FormatError):
            load_distribution(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_distribution(tmp_path / "absent.json")

    def test_file_round_trip_is_stable(self, one_sided, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        dump_distribution(one_sided, first)
        dump_distribution(load_distribution(first), second)
        assert first.read_text() == second.read_text()
        json.loads(first.read_text())  # stays valid JSON


def _set_row(i, **fields):
    def mutate(doc):
        doc["values"][i] = {**doc["values"][i], **fields}
    return mutate


def _set_value(i, name, value):
    def mutate(doc):
        doc["values"][i]["assignment"][name] = value
    return mutate


ASSIGNMENT_MESSAGE = "each row needs an 'assignment' object mapping names to frame values"
DEGREE_MESSAGE = "each row needs a numeric 'possibility'"


class TestRowFaults:
    """One faulty row among valid ones: the error class and message are fixed."""

    def doc(self):
        return {
            "variables": [{"name": "A", "frame": ["0", "1"]}, {"name": "B", "frame": ["0", "1"]}],
            "values": [
                {"assignment": {"A": "0", "B": "0"}, "possibility": 1.0},
                {"assignment": {"A": "1", "B": "0"}, "possibility": 0.5},
                {"assignment": {"A": "1", "B": "1"}, "possibility": 0.25},
            ],
        }

    @pytest.mark.parametrize(
        "mutate, error, message",
        [
            (lambda d: d["values"].__setitem__(1, ["A", "1"]),
             FormatError, "each value row must be an object"),
            (lambda d: d["values"][1].pop("assignment"), FormatError, ASSIGNMENT_MESSAGE),
            (_set_row(1, assignment=[["A", "1"], ["B", "0"]]), FormatError, ASSIGNMENT_MESSAGE),
            (_set_row(1, assignment={"A": "1", 2: "0"}), FormatError, ASSIGNMENT_MESSAGE),
            (_set_value(1, "B", 0), FormatError, ASSIGNMENT_MESSAGE),
            (_set_value(1, "B", ["0"]), FormatError, ASSIGNMENT_MESSAGE),
            (_set_value(1, "B", "7"), ScopeMismatch, "'7' is not in the frame of 'B'"),
            (_set_row(1, assignment={"A": "1"}),
             ScopeMismatch, "assignment binds ['A'], expected exactly ['A', 'B']"),
            (_set_row(1, assignment={"A": "1", "B": "0", "C": "0"}),
             ScopeMismatch, "assignment binds ['A', 'B', 'C'], expected exactly ['A', 'B']"),
            (lambda d: d["values"][1].pop("possibility"), FormatError, DEGREE_MESSAGE),
            (_set_row(1, possibility=True), FormatError, DEGREE_MESSAGE),
            (_set_row(1, possibility="0.5"), FormatError, DEGREE_MESSAGE),
            (_set_row(1, possibility=None), FormatError, DEGREE_MESSAGE),
            (_set_row(1, possibility=np.float32(0.5)), FormatError, DEGREE_MESSAGE),
            (_set_row(1, possibility=1.5), OutOfRange, "degree 1.5 outside [0, 1]"),
            (_set_row(1, possibility=-0.5), OutOfRange, "degree -0.5 outside [0, 1]"),
            (_set_row(1, possibility=float("nan")), OutOfRange, "degree nan outside [0, 1]"),
            (_set_row(1, possibility=10**400),
             OutOfRange, "a possibility degree is too large for a float"),
            (_set_row(2, assignment={"B": "0", "A": "1"}),
             FormatError, "duplicate assignment {'B': '0', 'A': '1'}"),
        ],
    )
    def test_single_fault(self, mutate, error, message):
        doc = self.doc()
        mutate(doc)
        with pytest.raises(error) as info:
            parse_distribution(doc)
        assert type(info.value) is error
        assert str(info.value) == message

    def test_first_faulty_row_decides(self):
        doc = self.doc()
        doc["values"][1]["possibility"] = 2.0
        doc["values"][2]["assignment"] = {"A": "1", "B": "9"}
        doc["values"].append(doc["values"][0])
        with pytest.raises(OutOfRange, match=r"degree 2\.0 outside"):
            parse_distribution(doc)

    def test_size_guard_fires_before_any_row(self):
        doc = {"variables": [{"name": f"X{i}", "frame": ["0", "1"]} for i in range(50)],
               "values": [["not", "a", "row"]]}
        with pytest.raises(TooLarge):
            parse_distribution(doc)


class TestParsedTables:
    """Parsed tables are bit-identical to make_distribution's on the same rows."""

    @pytest.mark.parametrize(
        "degrees",
        [
            [1, 0, 1, 0],
            [1.0, 0.5, 0.1, 0.7],
            [np.float64(0.3), 1, np.float64(1.0), 0.2],
            [-0.0, 1.0, 1e-300, 0.9999999999999999],
        ],
    )
    def test_matches_make_distribution(self, degrees):
        cells = list(SPACE342.assignments())
        order = np.random.default_rng(len(cells)).permutation(len(cells))
        entries = [(cells[k], d) for k, d in zip(order[:len(degrees)], degrees)]
        doc = {
            "variables": [{"name": n, "frame": list(f)} for n, f in SPACE342.variables],
            "values": [{"assignment": a, "possibility": d} for a, d in entries],
        }
        want = make_distribution(SPACE342, SPACE342.names, entries)
        got = parse_distribution(doc)
        assert got.space == want.space and got.scope == want.scope
        assert got.table.tobytes() == want.table.tobytes()
        assert got.normalised == want.normalised

    def test_no_rows_is_the_zero_table(self):
        doc = {"variables": [{"name": n, "frame": list(f)} for n, f in SPACE342.variables]}
        assert not parse_distribution(doc).table.any()


#: strings that look like the writer's own syntax: its NUL placeholder, a `%`
#: template field, brackets, a quote, a backslash, non-ASCII and a lone surrogate
TRICKY_STRINGS = ["\0", "%s", "%", "[{", '"', "\\", "é", "\ud800", ""]
TRICKY_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, float(2**70), 0.5]
SCALARS = st.one_of(
    st.sampled_from(TRICKY_STRINGS), st.text(max_size=3), st.sampled_from(TRICKY_FLOATS),
    st.floats(), st.integers(), st.just(2**70), st.booleans(), st.none())
STR_KEYS = st.one_of(st.sampled_from(TRICKY_STRINGS), st.text(max_size=2))
KEYS = st.one_of(STR_KEYS, st.sampled_from([1, True, None]))
TREES = st.recursive(
    SCALARS,
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.dictionaries(KEYS, children, max_size=4)),
    max_leaves=12)


@st.composite
def record_lists(draw):
    """Two or more same-shaped records, some rows perturbed, at depth 0 to 2."""
    shape = draw(st.dictionaries(STR_KEYS, st.none() | st.lists(STR_KEYS, min_size=1,
                                                                 max_size=3, unique=True),
                                 min_size=1, max_size=3))
    rows = [{key: draw(SCALARS) if sub is None else {k: draw(SCALARS) for k in sub}
             for key, sub in shape.items()} for _ in range(draw(st.integers(2, 5)))]
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.sampled_from(rows))
        target = draw(st.sampled_from([row, *(v for v in row.values() if type(v) is dict)]))
        if target and draw(st.booleans()):
            target.pop(draw(st.sampled_from(sorted(target, key=repr))))
        else:
            target[draw(KEYS)] = draw(TREES)
    if draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))] = draw(TREES)
    return draw(st.sampled_from([rows, {"rows": rows, "n": 1}, [[rows], 0]]))


def _outcome(write):
    """The bytes written, or the type of the exception raised."""
    try:
        return write()
    except Exception as exc:  # the writers must fail alike, whatever the error
        return type(exc)


class TestWriteJson:
    """write_json's file is json.dumps(doc, indent=2, sort_keys=True) plus a newline."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("write_json") / "doc.json"

    def check(self, doc, path):
        def written():
            serialize.write_json(doc, path)
            return path.read_bytes()

        want = _outcome(lambda: (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode())
        assert _outcome(written) == want

    @settings(max_examples=400, deadline=None)
    @given(doc=TREES)
    def test_trees(self, doc, path):
        self.check(doc, path)

    @settings(max_examples=400, deadline=None)
    @given(doc=record_lists())
    def test_record_lists(self, doc, path):
        self.check(doc, path)

    @pytest.mark.parametrize("doc", [
        [{1: ["x", -0.0]}, '"', []],
        [{True: 1.0}, {1: False}],
        [{"k": {}}, {"k": ""}],
        [{"\0": 1}, {"\0": 2}],
        [{"a%s": {"%": "%s", "\0": "\0"}, "b": math.nan}, {"b": -0.0, "a%s": {"\0": 1, "%": 2}}],
        [{"a": 1}, {"a": [1]}],
        [{"a": {"b": 1}}, {"a": {"b": {}}}],
        {"x": [], "y": {}, "z": [[], {}, [{}]]},
    ], ids=["str-row", "bool-key", "empty-inner-dict", "nul-key", "records", "list-in-row",
            "dict-in-inner-dict", "empty-containers"])
    def test_pinned(self, doc, path):
        self.check(doc, path)

    @pytest.mark.parametrize("doc", [
        [np.int64(1)],
        {"values": [{"assignment": {"X1": "0"}, "possibility": 1.0},
                    {"assignment": {"X1": "1"}, "possibility": np.int64(1)}]},
    ], ids=["flat", "record"])
    def test_foreign_leaf_raises_the_stdlib_error(self, doc, path):
        with pytest.raises(TypeError) as want:
            json.dumps(doc, indent=2, sort_keys=True)
        with pytest.raises(TypeError) as got:
            serialize.write_json(doc, path)
        assert str(got.value) == str(want.value) == "Object of type int64 is not JSON serializable"

    def test_cycles_and_deep_nesting_fail_alike(self, path):
        cycle = [{"a": 1}]
        cycle.append([cycle])
        deep = []
        for _ in range(100000):
            deep = [deep]
        for doc, error in ((cycle, ValueError), (deep, RecursionError)):
            with pytest.raises(error):
                serialize.write_json(doc, path)

    def test_no_accelerator_writes_the_same_bytes(self, two_peak, path, monkeypatch):
        doc = {"values": distribution_document(two_peak)["values"], "flat": [1, "a"],
               "nested": [{"a": [1.5]}, {}]}
        serialize.write_json(doc, path)
        want = path.read_bytes()
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
        serialize._encoder.cache_clear()  # so a cached C encoder cannot hide the check
        path.unlink()
        serialize.write_json(doc, path)
        assert path.read_bytes() == want
        assert want == (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
