"""Line-delimited JSON (JSONL): one JSON object per line.

Every export, artifact and CLI file of this shape is read and written here,
so they share one error policy: a bad line names its file and line number
and, when a field is missing or a builder wrapped in `naming_fields`
rejects its value, the field.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, TypeVar

T = TypeVar("T")
M = TypeVar("M")

# what a builder or a field check raises for a value it rejects
REJECTS = (TypeError, ValueError, AttributeError, OverflowError)


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
                doc = json.loads(line)
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
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(json.dumps(doc) + "\n")


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
