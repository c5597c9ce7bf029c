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

import numpy as np

from .conjunction import Conjunction
from .core import Distribution, build_space
from .errors import FormatError, OutOfRange


def distribution_document(dist: Distribution) -> dict:
    """Serializable document for a distribution; zero entries are omitted."""
    frames = [dist.space.frame(name) for name in dist.scope]
    variables = [{"name": name, "frame": list(f)} for name, f in zip(dist.scope, frames)]
    table = dist.table
    # argwhere, unlike unravelling flatnonzero, also indexes the 0-d table of the empty scope
    values = [
        {"assignment": {n: f[i] for n, f, i in zip(dist.scope, frames, idx)}, "possibility": value}
        for idx, value in zip(np.argwhere(table).tolist(), table[table != 0.0].tolist())
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


def _numeric(kind: type) -> bool:
    """Whether a degree of this type is accepted: int and float, not bool."""
    return issubclass(kind, (int, float)) and not issubclass(kind, bool)


def parse_distribution(doc) -> Distribution:
    """Build a distribution from a parsed document; scope is every listed variable.

    The size guard is checked before any row is read.  The rows are read
    in one pass; when one is faulty, the first faulty row names the error.
    """
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
    shape = space.shape(space.names)

    values = doc.get("values", [])
    _expect(isinstance(values, list), "'values' must be a list")
    # a row's flat index is the sum over variables of position * stride
    strides = np.cumprod((1,) + shape[:0:-1])[::-1].tolist()
    offsets = [(name, {v: i * stride for i, v in enumerate(space.frame(name))})
               for name, stride in zip(space.names, strides)]
    cells, degrees = [], []
    # any fault ends this pass, and _raise_row_error names the first faulty row
    try:
        for row in values:
            assignment = row["assignment"]
            if not (isinstance(row, dict) and isinstance(assignment, dict)
                    and len(assignment) == len(offsets)):
                raise KeyError("a row without an assignment of exactly the scope")
            cell = 0
            for name, offset in offsets:
                cell += offset[assignment[name]]
            cells.append(cell)
            degrees.append(row["possibility"])
        if not all(map(_numeric, set(map(type, degrees)))):
            raise TypeError("a degree that is not a number")
        if len(set(cells)) < len(cells):
            raise ValueError("an assignment listed twice")
        table = np.zeros(shape)
        table.flat[cells] = degrees
        return Distribution(space, space.names, table)
    except (KeyError, TypeError, ValueError, OverflowError, OutOfRange):
        _raise_row_error(values, space)
        raise


def _raise_row_error(values, space) -> None:
    """Raise the error of the first faulty row.  Each row's checks run in
    a fixed order, which decides the error of a row with several faults."""
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
        _expect(_numeric(type(degree)), "each row needs a numeric 'possibility'")
        key = tuple(sorted(assignment.items()))
        _expect(key not in seen, f"duplicate assignment {assignment}")
        seen.add(key)
        try:
            degree = float(degree)
        except OverflowError:
            raise OutOfRange("a possibility degree is too large for a float") from None
        if not 0.0 <= degree <= 1.0:
            raise OutOfRange(f"degree {degree} outside [0, 1]")
        space.indices(assignment, space.names)


def load_distribution(path) -> Distribution:
    """Read a distribution document from a JSON file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from exc
    except RecursionError:
        raise FormatError(f"{path}: nested too deeply to parse") from None
    return parse_distribution(doc)


def write_json(doc, path) -> None:
    """Write a document as indented JSON with sorted keys: the layout of every
    file the package writes (distributions, reproducers and reports)."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def dump_distribution(dist: Distribution, path) -> None:
    """Write a distribution document to a JSON file."""
    write_json(distribution_document(dist), path)
