"""Where the benchmark's tracer wraps the program, and the per-layer metrics.

Functions are wrapped at the names `backmap.pipeline` binds, `match_fqdn`
where `ingest`, `fusion` and `footprint` bind it, the flow metric functions
where `reports` binds them, and the `disruption` functions the job calls.
Nothing in the program is edited; `Tracer.restore` undoes every patch.
"""

from __future__ import annotations

from pathlib import Path
from time import perf_counter

from tracer import Tracer

# flow metric functions that reports.emit_flow_reports calls
ROLLUPS = ("visibility_per_provider", "source_ablation", "activity_series",
           "suppress_low_counts", "traffic_series_and_ratio", "port_mix",
           "line_day_profiles", "per_line_distribution", "continent_attribution")
INGESTERS = ("ingest_cert_scan", "ingest_passive_dns", "observations_from_resolutions")

# name -> unit, in the order the traced run reports them
METRICS = {
    "pipeline.discover_s": "s", "pipeline.fuse_s": "s", "pipeline.classify_s": "s",
    "pipeline.footprint_s": "s", "pipeline.flows_s": "s", "pipeline.report_s": "s",
    "pipeline.manifest_s": "s", "pipeline.digest_bytes": "B",
    "catalog.compile_s": "s", "catalog.match_calls": "count", "catalog.match_hits": "count",
    "catalog.match_hit_ratio": "ratio", "catalog.names_per_s": "1/s",
    "ingest.records_in": "count", "ingest.observations_out": "count",
    "ingest.kept_ratio": "ratio", "ingest.busy_s": "s", "ingest.records_per_s": "1/s",
    "fusion.observations_in": "count", "fusion.fuse_busy_s": "s",
    "fusion.classify_ips": "count", "fusion.classify_busy_s": "s",
    "fusion.classify_ips_per_s": "1/s", "fusion.candidates_read": "count",
    "footprint.prefix_lookups": "count", "footprint.prefix_lookups_per_s": "1/s",
    "footprint.enrich_busy_s": "s", "footprint.diff_busy_s": "s",
    "flows.file_records": "count", "flows.records_read": "count", "flows.read_passes": "ratio",
    "flows.read_records_per_s": "1/s", "flows.scanner_busy_s": "s",
    "flows.aggregate_busy_s": "s", "flows.aggregate_records_per_s": "1/s",
    "flows.attributed_ratio": "ratio", "flows.rollup_busy_s": "s",
    "disruption.series": "count", "disruption.series_points": "count",
    "disruption.outage_busy_s": "s", "disruption.blocklist_lookups": "count",
    "disruption.blocklist_lookups_per_s": "1/s", "disruption.routing_events": "count",
    "disruption.routing_server_checks": "count", "disruption.routing_busy_s": "s",
    "reports.files_written": "count", "reports.bytes_written": "B", "reports.busy_s": "s",
}


class Manifest:
    """Splits each run_pipeline call into its stage and its manifest: the
    manifest starts with the digest of the catalog, which no stage hashes."""

    def __init__(self, catalog: Path) -> None:
        self.catalog = catalog
        self.started: float | None = None
        self.bytes = 0

    def reset(self) -> None:
        self.started, self.bytes = None, 0

    def before_digest(self, args, kwargs):
        if self.started is None and Path(args[0]) == self.catalog:
            self.started = perf_counter()
        if self.started is not None:
            self.bytes += Path(args[0]).stat().st_size
        return args, kwargs


def instrument(tracer: Tracer, manifest: Manifest) -> None:
    from backmap import disruption, footprint, fusion, ingest, pipeline, reports

    counts = tracer.counts

    def add(counter: str, value: float) -> None:
        counts[counter] += value

    def counting(counter: str):
        """A `before` hook counting the records the call consumes."""
        def before(args, kwargs):
            def counted(records):
                for record in records:
                    counts[counter] += 1
                    yield record
            return (counted(args[0]),) + args[1:], kwargs
        return before

    tracer.wrap(pipeline, "file_digest", "pipeline", before=manifest.before_digest)

    tracer.wrap(pipeline, "load_catalog", "catalog")
    tracer.wrap(pipeline, "compile_catalog", "catalog")
    for module in (ingest, fusion, footprint):
        tracer.wrap_hot(module, "match_fqdn", "catalog",
                        after=lambda a, k, r: r.matched and add("catalog.match_hits", 1))

    for attr in ("read_cert_scan_export", "read_pdns_export", "read_resolutions",
                 "read_observations"):
        tracer.wrap_lazy(pipeline, attr, "ingest")
    for attr in INGESTERS:
        tracer.wrap(pipeline, attr, "ingest", before=counting("ingest.records_in"),
                    after=lambda a, k, r: add("ingest.observations_out", len(r.observations)))
    tracer.wrap(pipeline, "write_observations", "ingest")

    def fuse_before(args, kwargs):
        observations = list(args[0])
        add("fusion.observations_in", len(observations))
        return (observations,) + args[1:], kwargs

    tracer.wrap(pipeline, "fuse", "fusion", before=fuse_before)
    tracer.wrap(pipeline, "read_candidates", "fusion",
                after=lambda a, k, r: add("fusion.candidates_read", len(r)))
    for attr in ("write_candidates", "build_reverse_index", "classify_sharing"):
        tracer.wrap(pipeline, attr, "fusion")

    for attr in ("load_prefix_table", "enrich_candidates", "diversity_report",
                 "diff_snapshots"):
        tracer.wrap(pipeline, attr, "footprint")
    tracer.wrap_count(footprint.PrefixTable, "lookup", "footprint.prefix_lookups")

    tracer.wrap_lazy(pipeline, "read_flows", "flows")
    tracer.wrap_lazy(pipeline, "exclude_scanner_lines", "flows")
    for attr in ("detect_scanners", "threshold_sweep", "scanner_line_ids",
                 "regional_down_series"):
        tracer.wrap(pipeline, attr, "flows")

    def aggregate_after(args, kwargs, agg):
        add("flows.attributed", agg.attributed_records)
        add("flows.unattributed", agg.unattributed_records)

    tracer.wrap(pipeline, "aggregate_flows", "flows",
                before=counting("flows.aggregate_records_in"), after=aggregate_after)
    for attr in ROLLUPS:
        tracer.wrap(reports, attr, "flows")

    def outage_after(args, kwargs, result):
        add("disruption.series", len(args[0]))
        add("disruption.series_points", sum(len(points) for points in args[0].values()))

    tracer.wrap(pipeline, "outage_scan", "disruption", after=outage_after)
    tracer.wrap_count(disruption.BlocklistIndex, "matches", "disruption.blocklist_lookups")
    for attr in ("read_blocklist", "BlocklistIndex", "blocklist_check"):
        tracer.wrap(disruption, attr, "disruption")

    def routing_before(args, kwargs):
        servers, events = list(args[0]), list(args[1])
        add("disruption.routing_events", len(events))
        return (servers, events) + args[2:], kwargs

    tracer.wrap(disruption, "routing_event_overlap", "disruption", before=routing_before,
                after=lambda a, k, r: add("disruption.routing_server_checks",
                                          len(r) * len(a[0])))

    tracer.wrap(reports, "write_table", "reports",
                after=lambda a, k, r: (add("reports.files_written", 1),
                                       add("reports.bytes_written", Path(a[0]).stat().st_size)))
    for attr in ("write_sources", "write_diversity", "write_confidence_histogram",
                 "write_stability", "write_sweep", "emit_flow_reports", "write_outage"):
        tracer.wrap(reports, attr, "reports")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, stage_s: dict[str, float], manifest_s: float,
                  digest_bytes: int, probes: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced job; `probes` holds the throughput
    measurements taken after the job (names/s, lookups/s, read records/s)."""
    rows = tracer.by_name()
    busy = tracer.layer_busy()
    c = tracer.counts

    def calls(*names: str) -> int:
        return sum(rows[n]["calls"] for n in names if n in rows)

    def self_s(*names: str) -> float:
        return sum(rows[n]["self_s"] for n in names if n in rows)

    def total_s(*names: str) -> float:
        return sum(rows[n]["total_s"] for n in names if n in rows)

    records_in = c["ingest.records_in"]
    records_read = calls("flows.read_flows")
    aggregate_busy = self_s("flows.aggregate_flows")
    m = {f"pipeline.{stage}_s": seconds for stage, seconds in stage_s.items()}
    m.update({
        "pipeline.manifest_s": manifest_s,
        "pipeline.digest_bytes": digest_bytes,
        "catalog.compile_s": _ratio(total_s("catalog.compile_catalog"),
                                    calls("catalog.compile_catalog")),
        "catalog.match_calls": calls("catalog.match_fqdn"),
        "catalog.match_hits": c["catalog.match_hits"],
        "catalog.match_hit_ratio": _ratio(c["catalog.match_hits"], calls("catalog.match_fqdn")),
        "catalog.names_per_s": probes["names_per_s"],
        "ingest.records_in": records_in,
        "ingest.observations_out": c["ingest.observations_out"],
        "ingest.kept_ratio": _ratio(c["ingest.observations_out"], records_in),
        "ingest.busy_s": busy.get("ingest", 0.0),
        "ingest.records_per_s": _ratio(records_in,
                                       total_s(*(f"ingest.{a}" for a in INGESTERS))),
        "fusion.observations_in": c["fusion.observations_in"],
        "fusion.fuse_busy_s": self_s("fusion.fuse"),
        "fusion.classify_ips": calls("fusion.classify_sharing"),
        "fusion.classify_busy_s": self_s("fusion.classify_sharing"),
        "fusion.classify_ips_per_s": _ratio(calls("fusion.classify_sharing"),
                                            total_s("fusion.classify_sharing")),
        "fusion.candidates_read": c["fusion.candidates_read"],
        "footprint.prefix_lookups": c["footprint.prefix_lookups"],
        "footprint.prefix_lookups_per_s": probes["prefix_lookups_per_s"],
        "footprint.enrich_busy_s": self_s("footprint.enrich_candidates"),
        "footprint.diff_busy_s": self_s("footprint.diff_snapshots"),
        "flows.file_records": probes["file_records"],
        "flows.records_read": records_read,
        "flows.read_passes": _ratio(records_read, probes["file_records"]),
        "flows.read_records_per_s": probes["read_records_per_s"],
        "flows.scanner_busy_s": self_s("flows.detect_scanners", "flows.threshold_sweep"),
        "flows.aggregate_busy_s": aggregate_busy,
        "flows.aggregate_records_per_s": _ratio(c["flows.aggregate_records_in"],
                                                aggregate_busy),
        "flows.attributed_ratio": _ratio(c["flows.attributed"],
                                         c["flows.attributed"] + c["flows.unattributed"]),
        "flows.rollup_busy_s": self_s("flows.regional_down_series",
                                      *(f"flows.{a}" for a in ROLLUPS)),
        "disruption.series": c["disruption.series"],
        "disruption.series_points": c["disruption.series_points"],
        "disruption.outage_busy_s": self_s("disruption.outage_scan"),
        "disruption.blocklist_lookups": c["disruption.blocklist_lookups"],
        "disruption.blocklist_lookups_per_s": _ratio(c["disruption.blocklist_lookups"],
                                                     total_s("disruption.blocklist_check")),
        "disruption.routing_events": c["disruption.routing_events"],
        "disruption.routing_server_checks": c["disruption.routing_server_checks"],
        "disruption.routing_busy_s": self_s("disruption.routing_event_overlap"),
        "reports.files_written": c["reports.files_written"],
        "reports.bytes_written": c["reports.bytes_written"],
        "reports.busy_s": busy.get("reports", 0.0),
    })
    return {name: m[name] for name in METRICS}
