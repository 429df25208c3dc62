"""Pipeline orchestration: stage wiring, run manifest, snapshot store.

A run reads its inputs from a RunConfig, executes the requested stages in
dependency order and leaves every artifact in the output directory plus a
manifest recording the config hash and the digest of every input and
output. Reruns over identical inputs produce byte-identical artifacts and
manifests: nothing time- or environment-dependent is ever written.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence
from zoneinfo import ZoneInfo, ZoneInfoNotFoundError

import yaml

from . import reports
from .catalog import YAML_LOADER, compile_catalog, load_catalog
from .disruption import OutageFinding, outage_scan
from .flows import (FlowAggregate, ScannerVerdict, ServerIndex, SweepPoint, aggregate_flows,
                    detect_scanners, read_flows, regional_down_series, scanner_line_ids,
                    threshold_sweep)
from .flows import exclude_scanner_lines  # noqa: F401  (the benchmark tracer wraps this name)
from .footprint import (BackendServer, diff_snapshots, diversity_report, enrich_candidates,
                        load_prefix_table)
from .fusion import (CandidateAddress, CandidateLines, build_reverse_index, classify_sharing,
                     fuse, read_candidates, snapshot_filename, write_candidates, write_snapshot)
from .geo import Location
from .ingest import (NameMatches, Observation, StudyWindow, ingest_cert_scan,
                     ingest_passive_dns, observations_from_resolutions,
                     read_cert_scan_export, read_observations, read_pdns_export,
                     read_resolutions, write_observations)
from .jsonl import (Memo, flag, integer, naming_fields, optional_text, quote, quote_optional,
                    quote_sorted, read_jsonl, text, texts, write_jsonl, write_lines)
from .netutil import prefix_contains
from .records import Checked
from .timeutil import LocalDays, fmt_iso, parse_iso

STAGES = ("discover", "fuse", "classify", "footprint", "flows", "report")

STAGE_VERSIONS = {stage: 1 for stage in STAGES}

DEFAULT_SWEEP_THRESHOLDS = (10, 20, 50, 100, 200, 500, 1000)


class UpstreamMissingError(RuntimeError):
    """A requested stage is missing an upstream artifact."""

    def __init__(self, missing: str, run_first: str) -> None:
        super().__init__(f"missing upstream artifact {missing}; run the "
                         f"'{run_first}' stage first")
        self.missing = missing
        self.run_first = run_first


class _RunConfig(NamedTuple):
    catalog: Path
    window: StudyWindow
    out_dir: Path
    certs: Path | None = None
    pdns: Path | None = None
    resolutions: Path | None = None
    flows: Path | None = None
    prefix2as: Path | None = None
    scanner_threshold: int = 100
    sharing_threshold: int = 2
    vantages: tuple[str, ...] = ()
    timezone: str = "UTC"
    include_shared: bool = False
    baseline_days: int = 7
    sustain_hours: int = 2
    anonymize: bool = False
    salt: str = ""


class RunConfig(Checked, _RunConfig):
    __slots__ = ()

    def _checked(self) -> RunConfig:
        for name, least in (("scanner_threshold", 0), ("sharing_threshold", 0),
                            ("baseline_days", 1), ("sustain_hours", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"field {name!r}: must be >= {least}")
        return self

    def to_manifest_dict(self) -> dict:
        return {
            "catalog": str(self.catalog),
            "window": {"start": fmt_iso(self.window.start), "end": fmt_iso(self.window.end)},
            "inputs": {
                "certs": str(self.certs) if self.certs else None,
                "pdns": str(self.pdns) if self.pdns else None,
                "resolutions": str(self.resolutions) if self.resolutions else None,
                "flows": str(self.flows) if self.flows else None,
                "prefix2as": str(self.prefix2as) if self.prefix2as else None,
            },
            "scanner_threshold": self.scanner_threshold,
            "sharing_threshold": self.sharing_threshold,
            "vantages": list(self.vantages),
            "timezone": self.timezone,
            "include_shared": self.include_shared,
            "baseline_days": self.baseline_days,
            "sustain_hours": self.sustain_hours,
            "anonymize": self.anonymize,
            "salt": self.salt,
        }


def _zone(value: object) -> str:
    name = text(value)
    try:
        ZoneInfo(name)
    except ZoneInfoNotFoundError:
        raise ValueError(f"unknown time zone {name!r}") from None
    return name


def _window(value: object) -> StudyWindow:
    """A mapping of ISO-8601 `start` and `end` times, each with its zone."""
    if not isinstance(value, dict) or not {"start", "end"} <= value.keys():
        raise TypeError(f"expected a mapping with start and end, not {value!r}")
    bounds = []
    for key in ("start", "end"):
        try:
            bounds.append(parse_iso(str(value[key])))
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None
    return StudyWindow(*bounds)


def load_run_config(path: str | Path, overrides: Mapping[str, object] | None = None) -> RunConfig:
    """Config file plus CLI overrides; explicit flags win over file values.
    A value of the wrong type or shape raises
    ValueError("<path>: field '<name>': <reason>")."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = yaml.load(fh, Loader=YAML_LOADER) or {}
        except yaml.YAMLError as exc:
            raise ValueError(f"{path}: parse error: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: top level must be a mapping")
    base = Path(path).parent

    def get(name: str, convert: Callable[[Any], Any], default: Any = None) -> Any:
        value = doc.get(name)
        if value is None:
            return default
        try:
            return convert(value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: field '{name}': {exc}") from None

    def resolve(value: object) -> Path | None:
        return (base / text(value)).resolve() if value else None

    values: dict[str, object] = {
        "catalog": get("catalog", resolve),
        "out_dir": get("out_dir", resolve) or (base / "out"),
        "certs": get("certs", resolve),
        "pdns": get("pdns", resolve),
        "resolutions": get("resolutions", resolve),
        "flows": get("flows", resolve),
        "prefix2as": get("prefix2as", resolve),
        "scanner_threshold": get("scanner_threshold", integer, 100),
        "sharing_threshold": get("sharing_threshold", integer, 2),
        "vantages": tuple(get("vantages", texts, ())),
        "timezone": get("timezone", _zone, "UTC"),
        "include_shared": get("include_shared", flag, False),
        "baseline_days": get("baseline_days", integer, 7),
        "sustain_hours": get("sustain_hours", integer, 2),
        "anonymize": get("anonymize", flag, False),
        "salt": get("salt", str, ""),
    }
    if "window" in doc:
        values["window"] = get("window", _window)
    for key, value in (overrides or {}).items():
        if value is not None:
            values[key] = value
    if values.get("catalog") is None:
        raise ValueError(f"{path}: run config needs a catalog path")
    if values.get("window") is None:
        raise ValueError(f"{path}: run config needs a study window")
    try:
        return RunConfig(**values)  # type: ignore[arg-type]
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def config_hash(config: RunConfig) -> str:
    blob = json.dumps(config.to_manifest_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _require_artifact(path: Path, run_first: str) -> Path:
    if not path.exists():
        raise UpstreamMissingError(str(path), run_first)
    return path


class RunState:
    """Artifacts shared between stages of one run.

    Each stage artifact is parsed at most once per run. The stage that
    writes one puts it in `held`, as the file's reader would return it
    (same order, timestamps to the second), and later stages take it from
    the accessor. A run that starts at a later stage reads each file
    once; a missing file raises UpstreamMissingError. `matches` memoizes
    the catalog matches of every name the run's stages look up, so each
    distinct name is matched once per run.
    """

    __slots__ = ("config", "profiles", "held", "matches")

    def __init__(self, config: RunConfig, profiles: list | None = None,
                 patterns: list | None = None) -> None:
        self.config = config
        self.profiles = [] if profiles is None else profiles
        self.held: dict[str, Any] = {}
        self.matches = NameMatches([] if patterns is None else patterns)

    def profiles_by_id(self) -> dict:
        return {p.provider_id: p for p in self.profiles}

    def _artifact(self, name: str, run_first: str) -> Path:
        return _require_artifact(self.config.out_dir / name, run_first)

    def _held_or(self, name: str, load: Callable[[], Any]) -> Any:
        if name not in self.held:
            self.held[name] = load()
        return self.held[name]

    def observations(self) -> list[Observation]:
        """Fuse is their only reader, so the state lets them go."""
        if "observations" in self.held:
            return self.held.pop("observations")
        return list(read_observations(self._artifact("observations.jsonl", "discover")))

    def candidates(self) -> dict[tuple[str, str], CandidateAddress]:
        return self._held_or("candidates", lambda: read_candidates(
            self._artifact("candidates.jsonl", "fuse")))

    def snapshots(self) -> list[tuple[str, frozenset[tuple[str, str]]]]:
        """(date, (provider, ip) keys) of every dated snapshot, by date; the
        stability diff needs nothing else. Those fuse wrote in this run, or
        else every snapshot file, which fuse left for its own dates only.
        Footprint is their only reader, so the state lets them go."""
        if "snapshots" in self.held:
            return sorted(self.held.pop("snapshots").items())
        snap_dir = self.config.out_dir / "snapshots"
        return [(path.name.split("candidates-")[1], frozenset(read_candidates(path)))
                for path in sorted(snap_dir.glob("candidates-*"))]

    def sharing(self) -> dict[tuple[str, str], str]:
        return self._held_or("sharing", lambda: _read_sharing(
            self._artifact("sharing.jsonl", "classify")))

    def servers(self) -> list[BackendServer]:
        return self._held_or("servers", lambda: read_servers(
            self._artifact("servers.jsonl", "footprint")))

    def reverse_index(self) -> dict[str, set[str]]:
        """rdata -> rrnames of the passive-DNS export (`build_reverse_index`):
        the one discover built from the records it parsed, or else one read
        from the export, or none without one. Classify is its only reader,
        so the state lets it go."""
        if "reverse_index" in self.held:
            return self.held.pop("reverse_index")
        if not self.config.pdns:
            return {}
        return build_reverse_index(read_pdns_export(self.config.pdns))


def _stage_discover(state: RunState) -> None:
    cfg = state.config
    observations = []
    if cfg.certs:
        result = ingest_cert_scan(read_cert_scan_export(_require_artifact(cfg.certs, "inputs")),
                                  state.matches, cfg.window)
        observations.extend(result.observations)
    if cfg.pdns:
        # the records go once to ingest and once to classify's reverse index
        records = list(read_pdns_export(_require_artifact(cfg.pdns, "inputs")))
        result = ingest_passive_dns(records, state.matches, cfg.window)
        observations.extend(result.observations)
        state.held["reverse_index"] = build_reverse_index(records)
        del records
    if cfg.resolutions:
        result = observations_from_resolutions(
            read_resolutions(_require_artifact(cfg.resolutions, "inputs")),
            state.matches, cfg.window)
        observations.extend(result.observations)
    if not observations and not (cfg.certs or cfg.pdns or cfg.resolutions):
        raise UpstreamMissingError("certs/pdns/resolutions inputs", "discover")
    observations.sort()  # by fields; an ingested wildcard flag follows from the fqdn
    write_observations(cfg.out_dir / "observations.jsonl", observations)
    state.held["observations"] = observations


def _stage_fuse(state: RunState) -> None:
    cfg = state.config
    # one pass fuses the run and its local days; the observations share a
    # few distinct seconds, and each is dated once
    candidates, days = fuse(state.observations(),
                            Memo(LocalDays(cfg.timezone).date).__getitem__)
    line = CandidateLines()  # the candidate file and snapshots share its memos
    write_candidates(cfg.out_dir / "candidates.jsonl", candidates, line)
    state.held["candidates"] = candidates
    reports.write_sources(cfg.out_dir / "fig3_sources.csv", candidates.values())

    # dated per-day snapshots for stability diffing, of this run's days only
    snap_dir = cfg.out_dir / "snapshots"
    snap_dir.mkdir(parents=True, exist_ok=True)
    for path in snap_dir.glob("candidates-*"):
        if path.name.split("candidates-")[1] not in days:
            path.unlink()
    index = {}
    for date, slots in days.items():
        path = snap_dir / snapshot_filename(date)
        write_snapshot(path, slots, line)
        index[date] = file_digest(path)
    state.held["snapshots"] = {date: frozenset(slots) for date, slots in days.items()}
    with open(snap_dir / "index.json", "w", encoding="utf-8") as fh:
        json.dump(index, fh, sort_keys=True, indent=1)
        fh.write("\n")


def write_sharing(
    path: Path,
    candidates: Mapping[tuple[str, str], CandidateAddress],
    reverse: Mapping[str, set[str]],
    matches: NameMatches,
    threshold: int,
) -> dict[tuple[str, str], str]:
    """One sharing row per candidate in (provider, ip) order. An IP with no
    reverse evidence at all stays dedicated but is marked `reverse_data:
    false`, so reports can tell it from a measured zero. Returns the rows'
    verdicts as `_read_sharing` reads them back."""
    verdicts: dict[tuple[str, str], str] = {}
    lines = []
    for pid, ip in sorted(candidates):
        non_matching, matching, verdict, reverse_data = 0, 0, "dedicated", "false"
        if ip in reverse:
            v = classify_sharing(ip, pid, reverse, matches, threshold)
            non_matching, matching, verdict, reverse_data = (
                v.non_matching_domain_count, v.matching_domain_count, v.verdict, "true")
        verdicts[pid, ip] = verdict
        lines.append(
            f'{{"provider_id": {quote(pid)}, "ip": {quote(ip)}, '
            f'"non_matching_domain_count": {non_matching}, '
            f'"matching_domain_count": {matching}, '
            f'"verdict": {quote(verdict)}, "threshold_used": {threshold}, '
            f'"reverse_data": {reverse_data}}}\n')
    write_lines(path, lines)
    return verdicts


def _stage_classify(state: RunState) -> None:
    cfg = state.config
    candidates = state.candidates()
    state.held["sharing"] = write_sharing(cfg.out_dir / "sharing.jsonl", candidates,
                                          state.reverse_index(), state.matches,
                                          cfg.sharing_threshold)


SHARING_CLASSES = ("dedicated", "shared")


def _sharing_row(doc: dict) -> tuple[tuple[str, str], str]:
    key, verdict = (text(doc["provider_id"]), text(doc["ip"])), doc["verdict"]
    if verdict not in SHARING_CLASSES:
        raise ValueError(f"bad sharing class {verdict!r}")
    return key, verdict


def _read_sharing(path: Path) -> dict[tuple[str, str], str]:
    return dict(read_jsonl(path, naming_fields(_sharing_row, {
        "provider_id": text, "ip": text, "verdict": text})))


def write_servers(path: Path, servers: Iterable[BackendServer]) -> list[BackendServer]:
    """One row per server in (provider, ip) order; returns the servers in
    that order, as `read_servers` reads them back."""
    rows = sorted(servers, key=lambda s: (s.provider_id, s.ip))
    sources = Memo(quote_sorted)  # the servers share a few distinct source sets
    write_lines(path, (
        f'{{"ip": {quote(s.ip)}, "provider_id": {quote(s.provider_id)}, '
        f'"country": {quote(s.location.country)}, "city": {quote_optional(s.location.city)}, '
        f'"continent": {quote(s.location.continent)}, '
        f'"location_confidence": {quote(s.location_confidence)}, '
        f'"prefix": {quote(s.prefix)}, "asn": {s.asn}, "sharing": {quote(s.sharing)}, '
        f'"sources": {sources[s.sources]}, '
        f'"region_token": {quote_optional(s.region_token)}}}\n'
        for s in rows))
    return rows


def _server(doc: dict, locations: Memo) -> BackendServer:
    ip, prefix, asn, sharing = doc["ip"], doc["prefix"], doc["asn"], doc["sharing"]
    server = BackendServer(
        ip=ip, provider_id=text(doc["provider_id"]),
        location=locations[doc["country"], optional_text(doc.get("city")), doc["continent"]],
        location_confidence=text(doc["location_confidence"]),
        prefix=prefix, asn=asn, sharing=sharing,
        sources=frozenset(texts(doc["sources"])),
        region_token=optional_text(doc.get("region_token")),
    )
    if asn <= 0:
        raise ValueError("asn must be positive")
    if not prefix_contains(prefix, ip):
        raise ValueError(f"prefix {prefix} does not contain {ip}")
    if sharing not in SHARING_CLASSES:
        raise ValueError(f"bad sharing class {sharing!r}")
    return server


_SERVER_CHECKS = {
    "ip": text, "provider_id": text, "country": text, "city": optional_text,
    "continent": text, "location_confidence": text, "prefix": text, "asn": integer,
    "sharing": text, "sources": texts, "region_token": optional_text,
}


def read_servers(path: Path) -> list[BackendServer]:
    # the servers share a few distinct locations; each is built once
    locations = Memo(lambda fields: Location(*fields))
    return list(read_jsonl(path, naming_fields(lambda doc: _server(doc, locations),
                                               _SERVER_CHECKS)))


def _stage_footprint(state: RunState) -> None:
    cfg = state.config
    candidates = state.candidates()
    sharing = state.sharing()
    if not cfg.prefix2as:
        raise UpstreamMissingError("prefix2as table", "inputs")
    table = load_prefix_table(_require_artifact(cfg.prefix2as, "inputs"))
    servers, skipped = enrich_candidates(
        candidates, state.profiles_by_id(), state.matches, table, sharing)
    state.matches.clear()  # no later stage matches names
    servers = state.held["servers"] = write_servers(cfg.out_dir / "servers.jsonl", servers)
    if skipped:
        write_jsonl(cfg.out_dir / "footprint_skipped.jsonl",
                    ({"provider_id": pid, "ip": ip, "reason": reason}
                     for pid, ip, reason in skipped))

    diversity = diversity_report(servers)
    reports.write_diversity(cfg.out_dir / "diversity.csv", diversity)
    reports.write_confidence_histogram(cfg.out_dir / "location_confidence.csv", servers)

    # stability: consecutive-day diffs over the dated snapshots
    snapshots = state.snapshots()
    diffs = []
    for (a, keys_a), (b, keys_b) in zip(snapshots, snapshots[1:]):
        diffs.extend(diff_snapshots(keys_a, keys_b, a, b).values())
    reports.write_stability(cfg.out_dir / "fig4_stability.csv", diffs)


class FlowAnalysis(NamedTuple):
    verdicts: list[ScannerVerdict]
    sweep: list[SweepPoint]
    agg: FlowAggregate


def analyze_flows(
    path: Path,
    index: ServerIndex,
    scanner_threshold: int,
    tz_name: str = "UTC",
    cert_ips: set[str] | None = None,
) -> FlowAnalysis:
    """Scanner verdicts, the threshold sweep over DEFAULT_SWEEP_THRESHOLDS
    and the aggregate of the flows left once scanner lines are removed.

    One `aggregate_flows` call reads the trace and builds the contact sets
    in the same pass. The verdicts and the sweep come from those, and the
    scanner lines' rows are then subtracted from the aggregate. Only when
    some line is a scanner is the trace read a second time, through
    `read_flows`, for those lines' rows.
    """
    backend_ips = index.all_server_ips
    found: list = []

    def scanners(contacts: dict) -> tuple[set[str], Iterable]:
        verdicts = detect_scanners(contacts, scanner_threshold)
        found[:] = verdicts, threshold_sweep(contacts, backend_ips, DEFAULT_SWEEP_THRESHOLDS)
        lines = scanner_line_ids(verdicts)
        return lines, read_flows(path) if lines else ()

    agg = aggregate_flows(read_flows(path), index, tz_name, cert_ips, scanners)
    return FlowAnalysis(*found, agg)


def run_flow_analysis(state: RunState) -> tuple[ServerIndex, FlowAnalysis]:
    """The run's server index and `analyze_flows` over its trace. The index
    takes the catalog's profiles (so each provider's dedicated-port filter)
    and the config's `include_shared`; the analysis takes its scanner
    threshold and timezone, and marks the servers certificate scans found.
    The flows stage and `backmap disrupt outage` both start here."""
    cfg = state.config
    if not cfg.flows:
        raise UpstreamMissingError("flow trace input", "inputs")
    flows_path = _require_artifact(cfg.flows, "inputs")
    index = ServerIndex(state.servers(), state.profiles_by_id(),
                        include_shared=cfg.include_shared)
    cert_ips = {ip for (pid, ip), cand in state.candidates().items()
                if "tls-cert" in cand.sources}
    return index, analyze_flows(flows_path, index, cfg.scanner_threshold, cfg.timezone,
                                cert_ips)


def scan_outages(config: RunConfig, series: Mapping) -> list[OutageFinding]:
    """`outage_scan` over the regional series whose baseline week is fully
    covered; any other series is skipped (the scan itself refuses partial
    baselines)."""
    start, _end = config.window.epoch_bounds()
    baseline_start = start - config.baseline_days * 86400
    eligible = {}
    for key, points in series.items():
        covered = sum(1 for hour, _ in points if baseline_start <= hour * 3600 < start)
        if covered >= config.baseline_days * 24:
            eligible[key] = points
    return outage_scan(eligible, config.window, config.baseline_days,
                       config.sustain_hours) if eligible else []


def outage_findings(config: RunConfig) -> list[OutageFinding]:
    """The findings the flows stage flags in fig13_outage.csv, from the
    config's trace and the servers and candidates in its out_dir. Writes
    nothing."""
    state = RunState(config=config, profiles=load_catalog(config.catalog))
    _index, analysis = run_flow_analysis(state)
    return scan_outages(config, regional_down_series(analysis.agg))


def _stage_flows(state: RunState) -> None:
    cfg = state.config
    index, analysis = run_flow_analysis(state)
    write_jsonl(cfg.out_dir / "scanners.jsonl", ({
        "line_id": v.line_id, "date": v.date,
        "distinct_backend_ips": v.distinct_backend_ips,
        "threshold_used": v.threshold_used,
    } for v in analysis.verdicts if v.is_scanner))
    reports.write_sweep(cfg.out_dir / "fig5_sweep.csv", analysis.sweep)
    reports.emit_flow_reports(cfg.out_dir, analysis.agg, index, state.profiles_by_id())
    series = regional_down_series(analysis.agg)
    reports.write_outage(cfg.out_dir / "fig13_outage.csv", series,
                         scan_outages(cfg, series), cfg.window)


def _stage_report(state: RunState) -> None:
    cfg = state.config
    if cfg.anonymize:
        groups = {p.provider_id: p.group for p in state.profiles}
        mapping = reports.pseudonymize(sorted(groups), cfg.salt, groups)
        reports.anonymize_reports(cfg.out_dir, mapping)
        with open(cfg.out_dir / "pseudonyms.json", "w", encoding="utf-8") as fh:
            json.dump(mapping, fh, sort_keys=True, indent=1)
            fh.write("\n")


_STAGE_FUNCS = {
    "discover": _stage_discover,
    "fuse": _stage_fuse,
    "classify": _stage_classify,
    "footprint": _stage_footprint,
    "flows": _stage_flows,
    "report": _stage_report,
}


def run_pipeline(config: RunConfig, stages: Sequence[str] | None = None) -> dict:
    """Execute stages in order and write the run manifest. Returns it."""
    stages = list(stages) if stages else list(STAGES)
    unknown = [s for s in stages if s not in STAGES]
    if unknown:
        raise ValueError(f"unknown stages: {unknown}")
    stages.sort(key=STAGES.index)

    config.out_dir.mkdir(parents=True, exist_ok=True)
    profiles = load_catalog(config.catalog)
    state = RunState(config=config, profiles=profiles,
                     patterns=compile_catalog(profiles))
    for stage in stages:
        _STAGE_FUNCS[stage](state)

    inputs = {}
    for name, path in (("catalog", config.catalog), ("certs", config.certs),
                       ("pdns", config.pdns), ("resolutions", config.resolutions),
                       ("flows", config.flows), ("prefix2as", config.prefix2as)):
        if path and Path(path).exists():
            inputs[name] = file_digest(Path(path))

    outputs = {}
    for path in sorted(config.out_dir.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            outputs[str(path.relative_to(config.out_dir))] = file_digest(path)

    manifest = {
        "config": config.to_manifest_dict(),
        "config_hash": config_hash(config),
        "stages_run": stages,
        "stage_versions": {s: STAGE_VERSIONS[s] for s in stages},
        "inputs": inputs,
        "outputs": outputs,
    }
    with open(config.out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return manifest
