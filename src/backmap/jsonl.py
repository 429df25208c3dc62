"""Line-delimited JSON (JSONL): one JSON object per line.

Every export, artifact and CLI file of this shape is read and written here,
so they share one error policy: a bad line names its file and line number
and, when a field is missing or a builder wrapped in `naming_fields`
rejects its value, the field.

A line is decoded by one call of the C scanner behind `json.loads`, at
index 0 of the stripped line. Only a line the scanner rejects, or one with
text left after its value, goes on to `json.loads`, which runs the same
scan and raises the error every reader reports.

Every line written is `json.dumps` of its document, with the keys in the
order written. The hot artifact writers (observations, candidates, sharing,
servers) format their lines themselves, byte for byte as `json.dumps`
would: text through `quote`, `quote_optional` and `quote_sorted` (a
repeated value once, through a `Memo`), and an int as `{n}`, which reads
as `json.dumps` writes an int (a bool would not). The others build a dict
per row for `write_jsonl`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, TypeVar

T = TypeVar("T")
M = TypeVar("M")

# what a builder or a field check raises for a value it rejects
REJECTS = (TypeError, ValueError, AttributeError, OverflowError)

# the scanner of a decoder with `json.loads`' defaults; a line decodes when
# its value starts at index 0 and ends the line
_SCAN = json.JSONDecoder().scan_once


def read_jsonl(path: str | Path, build: Callable[[dict], T],
               malformed: Callable[[int, str], M] | None = None) -> Iterator[T | M]:
    """`build(doc)` for each non-blank line of `path`.

    A line that does not decode, is not a JSON object or that `build`
    rejects (KeyError or one of REJECTS) raises
    `ValueError("<path>:<line>: <reason>")`; with `malformed` given, the
    reader yields `malformed(line, reason)` in its place and goes on.
    """
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                try:
                    doc, end = _SCAN(line, 0)
                except StopIteration:
                    end = -1
                if end != len(line):
                    doc = json.loads(line)  # raises the error json.loads gives
                if not isinstance(doc, dict):
                    raise TypeError("record is not a JSON object")
                item = build(doc)
            except (KeyError, *REJECTS) as exc:
                reason = (f"missing field {exc.args[0]!r}" if isinstance(exc, KeyError)
                          else str(exc))
                if malformed is None:
                    raise ValueError(f"{path}:{line_no}: {reason}") from None
                item = malformed(line_no, reason)
            yield item


def write_jsonl(path: str | Path, docs: Iterable[dict]) -> None:
    """One `json.dumps(doc)` line per document, in the documents' key order."""
    write_lines(path, (json.dumps(doc) + "\n" for doc in docs))


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """`lines`, each ending in a newline, as the whole of `path`."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


# text as `json.dumps` writes it under its default ensure_ascii=True
quote = json.encoder.encode_basestring_ascii


def quote_optional(value: str | None) -> str:
    """Text or null, as `json.dumps` writes it."""
    return "null" if value is None else quote(value)


def quote_sorted(values: Iterable[str]) -> str:
    """The sorted list of some texts, as `json.dumps` writes it."""
    return "[" + ", ".join(map(quote, sorted(values))) + "]"


class Memo(dict):
    """`memo[key]` is `fn(key)`, computed on the key's first lookup only: a
    reader's, a writer's or a rollup's rows share a few distinct values,
    such as addresses, names, source sets and instants.

    `memo(value)` is the same lookup for a JSON value that a reader has not
    checked yet: text goes through the memo, and any other value straight
    to `fn`, which rejects it as it would (a list is no dict key)."""

    def __init__(self, fn: Callable) -> None:
        self.fn = fn  # dict.__new__ has made the empty dict

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value

    def __call__(self, value):
        return self[value] if type(value) is str else self.fn(value)


def naming_fields(build: Callable[[dict], T],
                  checks: Mapping[str, Callable[[Any], object]]) -> Callable[[dict], T]:
    """`build`, naming the field of a record it rejects: the first field in
    `checks` whose check rejects the record's value raises
    ValueError("field '<name>': <reason>"). If every check passes, `build`'s
    own error stands. Records that `build` accepts are never checked."""
    def build_or_name(doc: dict) -> T:
        try:
            return build(doc)
        except REJECTS:
            for name, check in checks.items():
                if name in doc:
                    try:
                        check(doc[name])
                    except REJECTS as exc:
                        raise ValueError(f"field {name!r}: {exc}") from None
            raise
    return build_or_name


def text(value: object) -> str:
    """`value` if it is a JSON string, else TypeError naming its type."""
    if not isinstance(value, str):
        raise TypeError(f"expected text, not {type(value).__name__}")
    return value


def optional_text(value: object) -> str | None:
    """`value` if it is a JSON string or null."""
    if value is not None and not isinstance(value, str):
        raise TypeError(f"expected text or null, not {type(value).__name__}")
    return value


def texts(value: object) -> list[str]:
    """`value` if it is a JSON list of strings."""
    if not isinstance(value, list):
        raise TypeError(f"expected a list, not {type(value).__name__}")
    for item in value:
        text(item)
    return value


def integer(value: object) -> int:
    """`value` if it is a JSON integer (true and false are not)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"expected an integer, not {type(value).__name__}")
    return value


def port(value: object) -> int:
    """`value` if it is a JSON integer in 1..65535."""
    if not 1 <= integer(value) <= 65535:
        raise ValueError(f"port out of range: {value}")
    return value


def flag(value: object) -> bool:
    """`value` if it is JSON true or false."""
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, not {type(value).__name__}")
    return value
