"""In-memory span tracer that wraps functions from outside the program.

A wrapped call records a span (name, layer, start, end, parent, self time);
spans of one job share the tracer's job id. Calls too frequent for a span
each (name matching, lazy-iterator `next()`) are timed per call but kept as
one aggregate per name. Self time is the call's duration minus the time of
the calls made inside it, so a consumer's busy time excludes the iterator it
drains. Every patch is undone by `restore`.
"""

from __future__ import annotations

import itertools
import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator


class Tracer:
    def __init__(self, job_id: str) -> None:
        self.job_id = job_id
        self.spans: list[tuple] = []  # (id, name, layer, parent id, start, end, self_s)
        self.hot: dict[str, list] = {}  # name -> [layer, calls, total_s, self_s]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = [[0.0, None]]  # frames: [child time, span id]
        self._patches: list[tuple[Any, str, Any]] = []
        self._ids = itertools.count(1)

    # -- recording ------------------------------------------------------------------

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[None]:
        sid = next(self._ids)
        parent = self._stack[-1]
        frame = [0.0, sid]
        self._stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            parent[0] += end - start
            self.spans.append((sid, name, layer, parent[1], start, end,
                               end - start - frame[0]))

    def _hot_acc(self, name: str, layer: str) -> list:
        return self.hot.setdefault(name, [layer, 0, 0.0, 0.0])

    # -- patching -------------------------------------------------------------------

    def _patch(self, owner: Any, attr: str, replacement: Callable) -> None:
        original = vars(owner)[attr]  # the raw attribute, so restore keeps descriptors
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def wrap(self, owner: Any, attr: str, layer: str,
             before: Callable | None = None, after: Callable | None = None) -> None:
        """Span per call. `before(args, kwargs)` may return replacement
        (args, kwargs); `after(args, kwargs, result)` records counts."""
        name = f"{layer}.{attr}"
        fn = getattr(owner, attr)

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            with self.span(name, layer):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        self._patch(owner, attr, traced)

    def wrap_hot(self, owner: Any, attr: str, layer: str,
                 after: Callable | None = None) -> None:
        """Timed leaf call aggregated per name; it must make no traced calls."""
        acc = self._hot_acc(f"{layer}.{attr}", layer)
        stack = self._stack
        fn = getattr(owner, attr)

        def traced(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            elapsed = perf_counter() - start
            stack[-1][0] += elapsed
            acc[1] += 1
            acc[2] += elapsed
            acc[3] += elapsed
            if after is not None:
                after(args, kwargs, result)
            return result

        self._patch(owner, attr, traced)

    def wrap_count(self, owner: Any, attr: str, counter: str) -> None:
        """Count calls only (no timing), for methods called per record."""
        counts = self.counts
        fn = getattr(owner, attr)

        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        self._patch(owner, attr, counted)

    def wrap_lazy(self, owner: Any, attr: str, layer: str) -> None:
        """The function returns an iterator; each `next()` is timed and the
        items yielded are counted, aggregated per name."""
        name = f"{layer}.{attr}"
        acc = self._hot_acc(name, layer)
        fn = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            tracer.counts[f"{name}.passes"] += 1
            return tracer._timed_iter(iter(fn(*args, **kwargs)), acc)

        self._patch(owner, attr, traced)

    def _timed_iter(self, it: Iterator, acc: list) -> Iterator:
        stack = self._stack
        nxt = it.__next__
        while True:
            frame = [0.0, None]
            stack.append(frame)
            start = perf_counter()
            try:
                item = nxt()
            except StopIteration:
                return
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stack[-1][0] += elapsed
                acc[2] += elapsed
                acc[3] += elapsed - frame[0]
            acc[1] += 1
            yield item

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries ------------------------------------------------------------------

    def by_name(self) -> dict[str, dict]:
        """name -> layer, calls, total_s (inclusive) and self_s."""
        out: dict[str, dict] = {}
        for _sid, name, layer, _parent, start, end, self_s in self.spans:
            row = out.setdefault(name, {"layer": layer, "calls": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += self_s
        for name, (layer, calls, total, self_s) in self.hot.items():
            out[name] = {"layer": layer, "calls": calls, "total_s": total, "self_s": self_s}
        return out

    def layer_busy(self) -> dict[str, float]:
        busy: dict[str, float] = defaultdict(float)
        for row in self.by_name().values():
            busy[row["layer"]] += row["self_s"]
        return dict(busy)

    def dump(self, path: Path) -> None:
        doc = {
            "job": self.job_id,
            "spans": [{"id": sid, "name": name, "layer": layer, "parent": parent,
                       "start": start, "end": end, "self_s": self_s}
                      for sid, name, layer, parent, start, end, self_s in self.spans],
            "aggregated": {name: {"layer": layer, "calls": calls, "total_s": total,
                                  "self_s": self_s}
                           for name, (layer, calls, total, self_s) in self.hot.items()},
            "counts": dict(self.counts),
        }
        path.write_text(json.dumps(doc) + "\n")
