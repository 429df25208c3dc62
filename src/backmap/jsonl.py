"""Line-delimited JSON (JSONL): one JSON object per line.

Every export, artifact and CLI file of this shape is read and written here,
so they share one error policy: a bad line names its file and line number
and, when a field is missing, the field.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")
M = TypeVar("M")


def read_jsonl(path: str | Path, build: Callable[[dict], T],
               malformed: Callable[[int, str], M] | None = None) -> Iterator[T | M]:
    """`build(doc)` for each non-blank line of `path`.

    A line that does not decode, is not a JSON object or that `build`
    rejects (KeyError, TypeError, ValueError, AttributeError) raises
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
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
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
