"""JSON document format for distributions and fuzz reproducers.

A distribution document is a single object:

    {"variables": [{"name": "X1", "frame": ["0", "1"]}, ...],
     "values": [{"assignment": {"X1": "0", ...}, "possibility": 0.6}, ...]}

Assignments bind every listed variable; unlisted assignments default to
possibility 0.  Reproducer documents add a `conjunction` spec string and
the trial `seed`.
"""

from __future__ import annotations

import json
from pathlib import Path

from .conjunction import Conjunction
from .core import Distribution, build_space, make_distribution
from .errors import FormatError, OutOfRange


def distribution_document(dist: Distribution) -> dict:
    """Serializable document for a distribution; zero entries are omitted."""
    variables = [
        {"name": name, "frame": list(dist.space.frame(name))} for name in dist.scope
    ]
    values = [
        {"assignment": assignment, "possibility": value}
        for assignment, value in dist.items()
        if value != 0.0
    ]
    return {"variables": variables, "values": values}


def reproducer_document(dist: Distribution, conjunction: Conjunction, seed, **extra) -> dict:
    doc = distribution_document(dist)
    doc["conjunction"] = conjunction.spec_string()
    doc["seed"] = seed
    doc.update(extra)
    return doc


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise FormatError(message)


def parse_distribution(doc) -> Distribution:
    """Build a distribution from a parsed document; scope is every listed variable."""
    _expect(isinstance(doc, dict), "document must be a JSON object")
    variables = doc.get("variables")
    _expect(isinstance(variables, list), "'variables' must be a list")
    pairs = []
    for entry in variables:
        _expect(
            isinstance(entry, dict) and isinstance(entry.get("name"), str),
            "each variable needs a string 'name'",
        )
        frame = entry.get("frame")
        _expect(
            isinstance(frame, list) and all(isinstance(v, str) for v in frame),
            f"variable {entry.get('name')!r} needs a 'frame' list of strings",
        )
        pairs.append((entry["name"], frame))
    space = build_space(pairs)

    values = doc.get("values", [])
    _expect(isinstance(values, list), "'values' must be a list")
    entries = []
    seen = set()
    for row in values:
        _expect(isinstance(row, dict), "each value row must be an object")
        assignment = row.get("assignment")
        _expect(
            isinstance(assignment, dict)
            and all(isinstance(k, str) and isinstance(v, str) for k, v in assignment.items()),
            "each row needs an 'assignment' object mapping names to frame values",
        )
        degree = row.get("possibility")
        _expect(
            isinstance(degree, (int, float)) and not isinstance(degree, bool),
            "each row needs a numeric 'possibility'",
        )
        key = tuple(sorted(assignment.items()))
        _expect(key not in seen, f"duplicate assignment {assignment}")
        seen.add(key)
        try:
            degree = float(degree)
        except OverflowError:
            raise OutOfRange("a possibility degree is too large for a float") from None
        entries.append((assignment, degree))
    return make_distribution(space, space.names, entries)


def load_distribution(path) -> Distribution:
    """Read a distribution document from a JSON file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from exc
    return parse_distribution(doc)


def dump_distribution(dist: Distribution, path) -> None:
    """Write a distribution document to a JSON file."""
    doc = distribution_document(dist)
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
