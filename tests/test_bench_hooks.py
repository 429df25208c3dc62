"""The benchmark's tracer (`perfbench/layers.py`) patches functions by name in
`backmap.pipeline`, `reports`, `disruption`, `footprint`, `fusion` and
`ingest`; a renamed or removed one would only fail in a `--trace 1` run."""

from pathlib import Path

from backmap import disruption, footprint, fusion, ingest, pipeline, reports

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = (disruption, footprint, fusion, ingest, pipeline, reports)


def test_every_name_the_benchmark_tracer_wraps_exists_and_is_restored(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from layers import Manifest, instrument
    from tracer import Tracer

    before = [dict(vars(m)) for m in MODULES]
    before_classes = {cls: dict(vars(cls)) for cls in (footprint.PrefixTable,
                                                       disruption.BlocklistIndex)}
    tracer = Tracer(job_id="hooks")
    instrument(tracer, Manifest(tmp_path / "catalog.yaml"))
    assert any(vars(m) != b for m, b in zip(MODULES, before))
    tracer.restore()
    for module, names in zip(MODULES, before):
        assert dict(vars(module)) == names, module.__name__
    for cls, names in before_classes.items():
        assert dict(vars(cls)) == names, cls.__name__
