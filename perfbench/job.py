"""Child-process entry points: a timed job, a set-up probe, input generation.

    python3 perfbench/job.py run WORKLOAD INPUT_DIR OUT_DIR RESULT_JSON [--trace]
    python3 perfbench/job.py setup CATALOG
    python3 perfbench/job.py generate WORKLOAD SEED INPUT_DIR

`run` times the job a user waits for: `run_pipeline` over every stage, then,
for workloads that include them, the blocklist and routing cross-checks. The
result file holds `run_s` and the process's peak RSS; with `--trace` it also
holds the per-layer metrics, and the spans go next to it. `setup` times a
fresh import of `backmap.pipeline` plus loading and compiling a catalog.
`generate` writes a workload's inputs and oracle expectations for a seed.
Module-level imports are stdlib only, so `setup` times the program's import.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter


def setup(catalog: Path) -> None:
    started = perf_counter()
    from backmap import pipeline

    pipeline.compile_catalog(pipeline.load_catalog(catalog))
    print(json.dumps({"setup_s": perf_counter() - started}))


def _disruption(config, input_dir: Path) -> None:
    """Blocklist check against the generated lists and routing-event overlap;
    both results go to bench_disruption.json in the output directory."""
    from backmap import disruption, pipeline
    from backmap.timeutil import parse_iso

    from workloads import BLOCKLISTS

    meta = json.loads((input_dir / "meta.json").read_text())
    servers = pipeline.read_servers(config.out_dir / "servers.jsonl")
    entries = []
    for list_id in BLOCKLISTS:
        entries.extend(disruption.read_blocklist(input_dir / f"{list_id}.netset"))
    report = disruption.blocklist_check(servers, disruption.BlocklistIndex(entries),
                                        exclude_lists=[meta["excluded_blocklist"]])
    blocklist: dict[str, list[str]] = {}
    for match in report.matches:
        blocklist.setdefault(match.provider_id, []).append(match.ip)

    events = []
    for doc in json.loads((input_dir / "events.json").read_text()):
        events.append(disruption.RoutingEvent(
            kind=doc["kind"], window=tuple(parse_iso(t) for t in doc["window"]),
            prefix=doc.get("prefix"), asn=doc.get("asn")))
    position = {id(event): i for i, event in enumerate(events)}
    overlaps = disruption.routing_event_overlap(servers, events, config.window)
    routing = [{"event": position[id(o.event)], "servers": list(o.affected_servers),
                "providers": list(o.affected_providers)} for o in overlaps]
    with open(config.out_dir / "bench_disruption.json", "w", encoding="utf-8") as fh:
        json.dump({"blocklist": {pid: sorted(ips) for pid, ips in blocklist.items()},
                   "routing": routing}, fh)


def _probes(config) -> dict[str, float]:
    """Layer throughput measured after the job, with tracing removed."""
    from backmap import catalog, footprint, ingest, pipeline
    from backmap.flows import read_flows

    patterns = catalog.compile_catalog(catalog.load_catalog(config.catalog))
    names = set()
    for record in ingest.read_cert_scan_export(config.certs):
        names.update(getattr(record, "names", ()))
    names.update(r.rrname for r in ingest.read_pdns_export(config.pdns)
                 if hasattr(r, "rrname"))
    names.update(r.fqdn for r in ingest.read_resolutions(config.resolutions))
    started = perf_counter()
    for name in names:
        catalog.match_all(patterns, name)
    names_per_s = len(names) / (perf_counter() - started)

    table = footprint.load_prefix_table(config.prefix2as)
    ips = [s.ip for s in pipeline.read_servers(config.out_dir / "servers.jsonl")]
    lookups = 0
    started = perf_counter()
    while perf_counter() - started < 0.1:
        for ip in ips:
            table.lookup(ip)
        lookups += len(ips)
    lookups_per_s = lookups / (perf_counter() - started)

    started = perf_counter()
    file_records = sum(1 for _ in read_flows(config.flows))
    read_s = perf_counter() - started
    return {"names_per_s": names_per_s, "prefix_lookups_per_s": lookups_per_s,
            "file_records": file_records, "read_records_per_s": file_records / read_s}


def run(workload_name: str, input_dir: Path, out_dir: Path, result: Path,
        traced: bool) -> None:
    from backmap import pipeline

    from workloads import WORKLOADS, run_config

    workload = WORKLOADS[workload_name]
    config = run_config(workload, input_dir, out_dir)
    doc: dict = {}
    if not traced:
        started = perf_counter()
        pipeline.run_pipeline(config)
        if workload.disruption:
            _disruption(config, input_dir)
        doc["run_s"] = perf_counter() - started
    else:
        from layers import Manifest, instrument, layer_metrics
        from tracer import Tracer

        tracer = Tracer(job_id=result.stem)
        manifest = Manifest(config.catalog)
        instrument(tracer, manifest)
        try:
            # one call per stage through the public `stages` argument; every
            # call hashes a manifest, and only the last one's counts toward
            # run_s, as a single full run hashes one
            stage_s, manifest_s = {}, []
            started = perf_counter()
            for stage in pipeline.STAGES:
                manifest.reset()
                call_started = perf_counter()
                with tracer.span(f"pipeline.{stage}", "pipeline"):
                    pipeline.run_pipeline(config, stages=[stage])
                ended = perf_counter()
                split = manifest.started or ended
                stage_s[stage] = split - call_started
                manifest_s.append(ended - split)
            if workload.disruption:
                _disruption(config, input_dir)
            doc["run_s"] = perf_counter() - started - sum(manifest_s[:-1])
        finally:
            tracer.restore()
        tracer.dump(result.with_suffix(".spans.json"))
        doc["layers"] = layer_metrics(tracer, stage_s, manifest_s[-1], manifest.bytes,
                                      _probes(config))
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result.write_text(json.dumps(doc) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="mode", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("workload")
    p_run.add_argument("input_dir", type=Path)
    p_run.add_argument("out_dir", type=Path)
    p_run.add_argument("result", type=Path)
    p_run.add_argument("--trace", action="store_true")
    p_setup = sub.add_parser("setup")
    p_setup.add_argument("catalog", type=Path)
    p_gen = sub.add_parser("generate")
    p_gen.add_argument("workload")
    p_gen.add_argument("seed", type=int)
    p_gen.add_argument("input_dir", type=Path)
    args = parser.parse_args()
    if args.mode == "setup":
        setup(args.catalog)
    elif args.mode == "generate":
        from workloads import WORKLOADS, generate_inputs

        generate_inputs(WORKLOADS[args.workload], args.seed, args.input_dir)
    else:
        run(args.workload, args.input_dir, args.out_dir, args.result, args.trace)


if __name__ == "__main__":
    sys.exit(main())
