"""Self-tests of the benchmark: run with `python3 -m pytest perfbench`."""

from __future__ import annotations

import json
import sys
import time

import run
from tracer import Tracer

sys.path.insert(0, str(run.SRC))


def _flip_first_verdict(out_dir) -> None:
    path = out_dir / "sharing.jsonl"
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    rows[0]["verdict"] = "shared" if rows[0]["verdict"] == "dedicated" else "dedicated"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))


def test_corrupted_artifact_counts_as_failed_job(monkeypatch):
    from workloads import WORKLOADS

    spawn = run.spawn_job

    def spawn_and_corrupt_second(workload, input_dir, out_dir, result, traced):
        doc, error = spawn(workload, input_dir, out_dir, result, traced)
        if out_dir.name == "job-2":
            _flip_first_verdict(out_dir)
        return doc, error

    monkeypatch.setattr(run, "spawn_job", spawn_and_corrupt_second)
    monkeypatch.setattr(run, "MIN_JOBS", 2)
    input_dir, _meta, _cached = run.prepare_inputs(WORKLOADS["outage-week"], 5)
    expected = json.loads((input_dir / "expected.json").read_text())
    jobs = run.measure("outage-week", input_dir, expected, 0, False, time.monotonic())

    assert [j["ok"] for j in jobs] == [True, False]
    assert any("sharing verdicts" in e for e in jobs[1]["errors"])
    assert sum(not j["ok"] for j in jobs) / len(jobs) == 0.5  # failed_share


def test_self_time_excludes_children_and_iterators():
    class Layer:
        @staticmethod
        def produce():
            for i in range(3):
                time.sleep(0.01)
                yield i

        @staticmethod
        def consume(items):
            time.sleep(0.02)
            return sum(items)

        @staticmethod
        def outer():
            time.sleep(0.01)
            return Layer.consume(Layer.produce())

    tracer = Tracer("t")
    originals = dict(vars(Layer))
    tracer.wrap_lazy(Layer, "produce", "a")
    tracer.wrap(Layer, "consume", "b")
    tracer.wrap(Layer, "outer", "c")
    assert Layer.outer() == 3
    tracer.restore()
    assert all(vars(Layer)[k] is v for k, v in originals.items())

    rows = tracer.by_name()
    assert rows["a.produce"]["calls"] == 3  # items yielded
    assert 0.02 <= rows["b.consume"]["self_s"] < rows["b.consume"]["total_s"]
    assert abs(rows["b.consume"]["total_s"] - rows["b.consume"]["self_s"]
               - rows["a.produce"]["total_s"]) < 1e-6
    total = rows["c.outer"]["total_s"]
    assert abs(sum(r["self_s"] for r in rows.values()) - total) < 1e-6
    parents = {s[1]: s[3] for s in tracer.spans}
    ids = {s[1]: s[0] for s in tracer.spans}
    assert parents["b.consume"] == ids["c.outer"] and parents["c.outer"] is None
