"""JSON document format for distributions and fuzz reproducers.

A distribution document is a single object:

    {"variables": [{"name": "X1", "frame": ["0", "1"]}, ...],
     "values": [{"assignment": {"X1": "0", ...}, "possibility": 0.6}, ...]}

Assignments bind every listed variable; unlisted assignments default to
possibility 0.  Reproducer documents add a `conjunction` spec string and
the trial `seed`.

Every file the package writes goes through `write_json`, whose bytes are
json.dumps(doc, indent=2, sort_keys=True) and a newline, encoded by
CPython's C encoder rather than the pure-Python one `indent` selects.
"""

from __future__ import annotations

import functools
import json
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path

import numpy as np

from .conjunction import Conjunction
from .core import Distribution, build_space, listed_degree
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
        listed_degree(degree)
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


_INDENT = "  "
_SCALARS = frozenset((str, int, float, bool, type(None)))


@functools.cache
def _encoder(separator: str):
    """CPython's C encoder, compact but for `separator` between items."""
    return json.encoder.c_make_encoder(
        None, json.JSONEncoder().default, encode_basestring_ascii,
        None, ": ", separator, True, False, True)


def _body(obj, separator: str) -> str:
    """The C encoding of a flat container, without its brackets."""
    return "".join(_encoder(separator)(obj, 0))[1:-1]


def _shaped(dicts, model: dict) -> bool:
    """Whether every item is a dict with exactly the str keys of `model`."""
    return (set(map(type, model)) == {str} and set(map(type, dicts)) == {dict}
            and all(map(model.keys().__eq__, map(dict.keys, dicts))))


def _records(rows: list, pad: str):
    """The rows' text from one template, or None unless every row has the
    first row's shape: str keys, each value a scalar or a non-empty dict of
    scalars with str keys.  The template is the first row with a NUL for
    each scalar; ensure_ascii escapes every NUL inside a string."""
    first = rows[0]
    if (len(rows) < 2 or type(first) is not dict or not first
            or not set(map(type, first.values())) <= _SCALARS | {dict} or not _shaped(rows, first)):
        return None
    inner, lines, columns = pad + _INDENT, [], []
    for key in sorted(first):
        column, name = list(map(itemgetter(key), rows)), encode_basestring_ascii(key)
        value = first[key]
        if type(value) is not dict:
            columns.append(column)
            lines.append(name + ": \0")
            continue
        if not value or not _shaped(column, value):
            return None
        sub = sorted(value)
        columns.extend(list(map(itemgetter(k), column)) for k in sub)
        lines.append(name + ": {" + ",".join(
            inner + _INDENT + encode_basestring_ascii(k) + ": \0" for k in sub) + inner + "}")
    scalars = list(chain.from_iterable(zip(*columns)))
    if not set(map(type, scalars)) <= _SCALARS:
        return None
    template = "{" + ",".join(inner + line for line in lines) + pad + "}"
    template = template.replace("%", "%%").replace("\0", "%s")
    return ("," + pad).join([template] * len(rows)) % tuple(_body(scalars, "\0").split("\0"))


def _text(obj, depth: int) -> str:
    """json.dumps(obj, indent=2, sort_keys=True) as if written `depth` levels in."""
    kind = type(obj)
    if kind in _SCALARS:
        return "".join(_encoder(",")(obj, 0))
    if kind is list or kind is dict and set(map(type, obj)) <= {str}:
        brackets = "[]" if kind is list else "{}"
        if not obj:
            return brackets
        pad = "\n" + _INDENT * (depth + 1)
        if set(map(type, obj if kind is list else obj.values())) <= _SCALARS:
            body = _body(obj, "," + pad)
        elif kind is list:
            body = _records(obj, pad)
            if body is None:
                body = ("," + pad).join([_text(item, depth + 1) for item in obj])
        else:
            body = ("," + pad).join([
                encode_basestring_ascii(key) + ": " + _text(value, depth + 1)
                for key, value in sorted(obj.items())])
        return brackets[0] + pad + body + pad[:-len(_INDENT)] + brackets[1]
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + _INDENT * depth)


def write_json(doc, path) -> None:
    """Write a document as indented JSON with sorted keys: the layout of every
    file the package writes (distributions, reproducers and reports).

    The text is json.dumps(doc, indent=2, sort_keys=True) byte for byte, in
    UTF-8 (it is ASCII), from one C-encoder call per flat container and per
    list of same-shaped records (`_records`).  Other containers recurse.  A
    subtree with a non-str key, a subclass or a foreign type is left to
    json.dumps, and so is all of `doc` without the `_json` accelerator or on
    a RecursionError (json.dumps names a cycle), so the errors are its too."""
    try:
        text = _text(doc, 0) if json.encoder.c_make_encoder else None
    except RecursionError:
        text = None
    Path(path).write_text((text or json.dumps(doc, indent=2, sort_keys=True)) + "\n",
                          encoding="utf-8")


def dump_distribution(dist: Distribution, path) -> None:
    """Write a distribution document to a JSON file."""
    write_json(distribution_document(dist), path)
