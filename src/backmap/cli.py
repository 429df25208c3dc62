"""Command-line surface.

Exit codes: 0 success, 1 validation failure, 2 I/O failure, 3 missing
upstream artifact (the error names the stage to run first).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Callable

import click

from . import reports
from .catalog import CatalogError, compile_catalog, load_catalog
from .disruption import (BlocklistIndex, RoutingEvent, blocklist_check, read_blocklist,
                         routing_event_overlap)
from .fusion import read_candidates
from .ingest import StudyWindow, write_cert_scan_export, write_resolutions
from .pipeline import (RunConfig, UpstreamMissingError, load_run_config, outage_findings,
                       read_servers, run_pipeline)
from .jsonl import naming_fields, optional_text, port, read_jsonl, write_jsonl
from .netutil import canonical_ip
from .timeutil import parse_iso

EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_UPSTREAM = 3


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _parse_window(text: str) -> StudyWindow:
    try:
        start_s, end_s = text.split("..", 1)
        return StudyWindow(parse_iso(start_s), parse_iso(end_s))
    except ValueError as exc:
        _fail(EXIT_VALIDATION, f"bad window {text!r} (want START..END ISO-8601): {exc}")


def _read_config(load: Callable, config_path: str, *args):
    """`load(config_path, *args)`: exit 2 if the file cannot be read, exit 1
    on the loader's ValueError, which names the file."""
    try:
        return load(config_path, *args)
    except OSError as exc:
        _fail(EXIT_IO, f"{config_path}: {exc.strerror or exc}")
    except ValueError as exc:
        _fail(EXIT_VALIDATION, str(exc))


def _load_config(config_path: str, out_dir: str | None = None) -> RunConfig:
    return _read_config(load_run_config, config_path,
                        {"out_dir": Path(out_dir)} if out_dir else {})


def _run_stages(config_path: str, out_dir: str | None,
                stages: list[str] | None) -> tuple[RunConfig, dict]:
    """Load a run config and run `stages` of it, mapping errors to exit codes."""
    config = _load_config(config_path, out_dir)
    return config, _pipeline_call(run_pipeline, config, stages)


def _pipeline_call(func: Callable, *args):
    """`func(*args)`, mapping the pipeline's errors to exit codes."""
    try:
        return func(*args)
    except UpstreamMissingError as exc:
        _fail(EXIT_UPSTREAM, str(exc))
    except ValueError as exc:  # CatalogError included
        _fail(EXIT_VALIDATION, str(exc))
    except OSError as exc:
        _fail(EXIT_IO, str(exc))


@click.group()
def main() -> None:
    """Map IoT backend server footprints and attribute ISP flow data."""


# --- catalog -----------------------------------------------------------------


@main.group()
def catalog() -> None:
    """Provider catalog tools."""


@catalog.command("validate")
@click.option("--catalog", "catalog_path", required=True, type=click.Path())
def catalog_validate(catalog_path: str) -> None:
    """Validate a catalog file; prints violations and exits 1 on any."""
    try:
        profiles = load_catalog(catalog_path)
        compile_catalog(profiles)
    except CatalogError as exc:
        click.echo(f"invalid: {exc}")
        sys.exit(EXIT_VALIDATION)
    except OSError as exc:
        _fail(EXIT_IO, str(exc))
    click.echo(f"ok: {len(profiles)} providers")


# --- discover ----------------------------------------------------------------


@main.group()
def discover() -> None:
    """Turn raw sources into provider-attributed observations."""


@discover.command("ingest")
@click.option("--out-dir", "out_dir", required=True, type=click.Path())
@click.option("--config", "config_path", required=True, type=click.Path())
def discover_ingest(out_dir, config_path):
    """Certificate-scan, passive-DNS and resolution exports -> observations."""
    _run_stages(config_path, out_dir, ["discover"])
    click.echo("observations written")


@discover.command("resolve")
@click.option("--fqdns", "fqdn_file", required=True, type=click.Path())
@click.option("--vantage", "vantages", multiple=True, required=True,
              help="id=host[:port], repeatable")
@click.option("--pacing", default=10.0, show_default=True)
@click.option("--unsafe-fast", is_flag=True, default=False,
              help="allow pacing under the 10s floor (test fixtures only)")
@click.option("--timeout", default=3.0, show_default=True)
@click.option("--qtypes", default="A", show_default=True, help="comma-separated: A,AAAA")
@click.option("--out", "out_path", required=True, type=click.Path())
def discover_resolve(fqdn_file, vantages, pacing, unsafe_fast, timeout, qtypes, out_path):
    """Resolve FQDNs against every vantage, pacing queries per resolver."""
    from .active import ResolverEndpoint, resolve_active

    if not Path(fqdn_file).exists():
        _fail(EXIT_IO, f"no such file: {fqdn_file}")
    endpoints = []
    for spec in vantages:
        try:
            vantage_id, host = spec.split("=", 1)
            number = 53
            if ":" in host:
                host, port_s = host.rsplit(":", 1)
                number = port(int(port_s))
            endpoints.append(ResolverEndpoint(vantage_id, host, number))
        except ValueError:
            _fail(EXIT_VALIDATION, f"bad vantage {spec!r} (want id=host[:port], port in 1..65535)")
    names = [ln.strip() for ln in Path(fqdn_file).read_text().splitlines() if ln.strip()]
    try:
        results = resolve_active(names, endpoints, pacing,
                                 qtypes=tuple(qtypes.split(",")),
                                 timeout=timeout, unsafe_fast=unsafe_fast)
    except ValueError as exc:
        _fail(EXIT_VALIDATION, str(exc))
    write_resolutions(out_path, results)
    ok = sum(1 for r in results if r.status == "ok")
    click.echo(f"{len(results)} results, {ok} ok")


@discover.command("tls")
@click.option("--targets", "targets_file", required=True, type=click.Path(),
              help="JSONL rows: {ip, port, sni?}")
@click.option("--timeout", default=5.0, show_default=True)
@click.option("--max-inflight", default=8, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
def discover_tls(targets_file, timeout, max_inflight, out_path):
    """Collect TLS certificates from supplied targets (one try per target)."""
    from .active import TlsTarget, collect_tls

    if not Path(targets_file).exists():
        _fail(EXIT_IO, f"no such file: {targets_file}")
    try:
        targets = list(read_jsonl(targets_file, naming_fields(
            lambda doc: TlsTarget(canonical_ip(doc["ip"]), port(doc["port"]),
                                  optional_text(doc.get("sni"))),
            {"ip": canonical_ip, "port": port, "sni": optional_text})))
    except ValueError as exc:
        _fail(EXIT_VALIDATION, str(exc))
    results = collect_tls(targets, timeout=timeout, max_inflight=max_inflight)
    write_cert_scan_export(out_path, [r.record for r in results if r.record])
    failures = [r for r in results if r.failure]
    for r in failures:
        click.echo(f"fail {r.target.ip}:{r.target.port} {r.failure}", err=True)
    click.echo(f"{len(results) - len(failures)} certificates, {len(failures)} failures")


# --- fuse / classify / footprint ------------------------------------------------


@main.command("fuse")
@click.option("--out-dir", "out_dir", required=True, type=click.Path())
@click.option("--config", "config_path", required=True, type=click.Path())
def fuse_cmd(out_dir, config_path):
    """Fuse observations into the candidate set and its dated snapshots."""
    _run_stages(config_path, out_dir, ["fuse"])
    click.echo("candidates written")


@main.command("classify")
@click.option("--out-dir", "out_dir", required=True, type=click.Path())
@click.option("--config", "config_path", required=True, type=click.Path())
def classify_cmd(out_dir, config_path):
    """Shared-vs-dedicated verdicts from reverse DNS evidence."""
    _run_stages(config_path, out_dir, ["classify"])
    click.echo("sharing verdicts written")


@main.command("footprint")
@click.option("--out-dir", "out_dir", required=True, type=click.Path())
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--diff", nargs=2, default=None, help="two snapshot dates to diff")
def footprint_cmd(out_dir, config_path, diff):
    """Enrich candidates into located, routed server records."""
    from .footprint import diff_snapshots

    _run_stages(config_path, out_dir, ["footprint"])
    if diff:
        date_a, date_b = diff
        snap_dir = Path(out_dir) / "snapshots"
        try:
            a = read_candidates(snap_dir / f"candidates-{date_a}")
            b = read_candidates(snap_dir / f"candidates-{date_b}")
        except OSError as exc:
            _fail(EXIT_UPSTREAM, f"snapshot missing: {exc}; run 'fuse' first")
        for pid, d in diff_snapshots(a, b, date_a, date_b).items():
            click.echo(f"{pid}: both={len(d.in_both)} removed={len(d.only_a)} "
                       f"new={len(d.only_b)}")
    click.echo("footprint done")


# --- flows ----------------------------------------------------------------------


@main.group()
def flows() -> None:
    """Flow attribution and traffic metrics."""


@flows.command("analyze")
@click.option("--out-dir", "out_dir", required=True, type=click.Path())
@click.option("--config", "config_path", required=True, type=click.Path())
def flows_analyze(out_dir, config_path):
    """Scanner exclusion plus every flow-derived figure table."""
    _run_stages(config_path, out_dir, ["flows"])
    click.echo("flow reports written")


# --- disrupt ----------------------------------------------------------------------


@main.group()
def disrupt() -> None:
    """Outage, blocklist and routing-event checks."""


@disrupt.command("outage")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path())
def disrupt_outage(config_path, out_path):
    """Flag sustained regional drops below the previous-week minimum, as the
    flows stage does, from the config's trace and its out_dir's servers and
    candidates."""
    findings = _pipeline_call(outage_findings, _load_config(config_path))
    write_jsonl(out_path, ({
        "provider_id": f.provider_id, "region": f.region,
        "start": reports.fmt_hour(f.window[0]), "end": reports.fmt_hour(f.window[1]),
        "min_baseline": f.min_baseline,
        "max_drop_fraction": f.max_drop_fraction,
    } for f in findings))
    click.echo(f"{len(findings)} findings")


@disrupt.command("blocklist")
@click.option("--servers", "servers_path", required=True, type=click.Path())
@click.option("--list", "list_paths", multiple=True, required=True, type=click.Path())
@click.option("--exclude-list", "exclude", multiple=True)
@click.option("--out", "out_path", required=True, type=click.Path())
def disrupt_blocklist(servers_path, list_paths, exclude, out_path):
    """Match server IPs against address blocklists."""
    if not Path(servers_path).exists():
        _fail(EXIT_UPSTREAM, f"missing servers {servers_path}; run 'footprint' first")
    entries = []
    for path in list_paths:
        if not Path(path).exists():
            _fail(EXIT_IO, f"no such blocklist: {path}")
        try:
            entries.extend(read_blocklist(path))
        except ValueError as exc:
            _fail(EXIT_VALIDATION, str(exc))
    report = blocklist_check(read_servers(Path(servers_path)),
                             BlocklistIndex(entries), exclude)
    write_jsonl(out_path, ({"provider_id": m.provider_id, "ip": m.ip,
                            "lists": sorted(m.list_ids)} for m in report.matches))
    click.echo(f"{len(report.distinct_ips())} matched IPs "
               f"({len(report.excluded_matches)} only on excluded lists)")


@disrupt.command("routing")
@click.option("--servers", "servers_path", required=True, type=click.Path())
@click.option("--events", "events_path", required=True, type=click.Path(),
              help="JSONL rows: {kind, prefix?, asn?, start, end}")
@click.option("--window", "window_text", required=True)
@click.option("--out", "out_path", required=True, type=click.Path())
def disrupt_routing(servers_path, events_path, window_text, out_path):
    """Overlap of leaks/hijacks/AS outages with the identified footprint."""
    if not Path(servers_path).exists():
        _fail(EXIT_UPSTREAM, f"missing servers {servers_path}; run 'footprint' first")
    window = _parse_window(window_text)
    try:
        events = list(read_jsonl(events_path, lambda doc: RoutingEvent(
            kind=doc["kind"],
            window=(parse_iso(doc["start"]), parse_iso(doc["end"])),
            prefix=doc.get("prefix"), asn=doc.get("asn"),
        )))
    except ValueError as exc:
        _fail(EXIT_VALIDATION, str(exc))
    except OSError as exc:
        _fail(EXIT_IO, str(exc))
    overlaps = routing_event_overlap(read_servers(Path(servers_path)), events, window)
    write_jsonl(out_path, ({
        "kind": o.event.kind, "prefix": o.event.prefix, "asn": o.event.asn,
        "affected_servers": list(o.affected_servers),
        "affected_providers": list(o.affected_providers),
    } for o in overlaps))
    affected = sum(1 for o in overlaps if o.affected_servers)
    click.echo(f"{len(overlaps)} events in window, {affected} with overlap")


# --- synth ------------------------------------------------------------------------


@main.group()
def synth() -> None:
    """Synthetic universes and oracle reference metrics."""


@synth.command("generate")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out-dir", "out_dir", required=True, type=click.Path())
def synth_generate(config_path, out_dir):
    """Generate a seeded universe into a directory."""
    from .synth import generate, load_universe_config

    config = _read_config(load_universe_config, config_path)
    try:
        universe = generate(config)
    except ValueError as exc:
        _fail(EXIT_VALIDATION, f"{config_path}: {exc}")
    paths = universe.write_to(out_dir)
    click.echo("\n".join(f"{name}: {path}" for name, path in sorted(paths.items())))


@synth.command("oracle")
@click.option("--truth", "truth_path", required=True, type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path())
def synth_oracle(truth_path, out_path):
    """Recompute reference metrics from a truth log."""
    from . import oracle as orc
    from .synth import read_truth

    if not Path(truth_path).exists():
        _fail(EXIT_UPSTREAM, f"missing truth log {truth_path}; run 'synth generate' first")
    log = read_truth(truth_path)
    try:
        metrics = orc.oracle_metrics(log)
    except ValueError as exc:
        _fail(EXIT_VALIDATION, str(exc))
    doc = {
        "candidates": sorted([pid, ip] for pid, ip in metrics.candidates),
        "visibility": {f"{pid}/{fam}": frac
                       for (pid, fam), frac in sorted(metrics.visibility.items())},
        "ratios": {pid: (None if v == float("inf") else v)
                   for pid, v in sorted(metrics.ratios.items())},
        "ablation": dict(sorted(metrics.ablation.items())),
        "line_categories": dict(metrics.line_categories),
        "traffic_share": dict(metrics.traffic_share),
        "server_share": dict(metrics.server_share),
        "true_down": dict(sorted(metrics.true_down.items())),
        "est_down": dict(sorted(metrics.est_down.items())),
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")
    click.echo("oracle metrics written")


# --- report / run --------------------------------------------------------------------


@main.command("report")
@click.argument("figure_id")
@click.option("--from", "out_dir", required=True, type=click.Path())
@click.option("--anonymize", is_flag=True, default=False)
@click.option("--salt", default="")
@click.option("--catalog", "catalog_path", default=None, type=click.Path(),
              help="needed with --anonymize for provider groups")
@click.option("--out", "out_path", default=None, type=click.Path())
def report_cmd(figure_id, out_dir, anonymize, salt, catalog_path, out_path):
    """Emit one figure-equivalent table (optionally pseudonymized)."""
    filename = reports.FIGURE_FILES.get(figure_id)
    if filename is None:
        _fail(EXIT_VALIDATION,
              f"unknown figure id {figure_id!r}; known: {sorted(reports.FIGURE_FILES)}")
    src = Path(out_dir) / filename
    if not src.exists():
        _fail(EXIT_UPSTREAM, f"missing {src}; run the pipeline stages first")
    text = src.read_text(encoding="utf-8")
    if anonymize:
        if not catalog_path:
            _fail(EXIT_VALIDATION, "--anonymize needs --catalog for provider groups")
        profiles = _pipeline_call(load_catalog, catalog_path)
        mapping = reports.pseudonymize([p.provider_id for p in profiles], salt,
                                       {p.provider_id: p.group for p in profiles})
        text = reports.anonymize_table(text, mapping)
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        click.echo(text, nl=False)


@main.command("run")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--stages", default=None, help="comma-separated subset")
@click.option("--out-dir", "out_dir", default=None, type=click.Path())
def run_cmd(config_path, stages, out_dir):
    """Run the whole pipeline (or a stage subset) from a config file."""
    config, manifest = _run_stages(config_path, out_dir,
                                   stages.split(",") if stages else None)
    click.echo(f"manifest: {config.out_dir / 'manifest.json'} "
               f"(config {manifest['config_hash'][:12]})")


if __name__ == "__main__":
    main()
