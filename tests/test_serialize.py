"""Distribution document round-trips and format validation."""

import json

import numpy as np
import pytest

from possind import (
    FormatError,
    LukasiewiczLike,
    OutOfRange,
    ScopeMismatch,
    distribution_document,
    dump_distribution,
    load_distribution,
    parse_distribution,
    reproducer_document,
)


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
