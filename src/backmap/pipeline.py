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
from dataclasses import dataclass, field, replace
from datetime import timedelta
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

import yaml

from . import reports
from .catalog import DomainPattern, compile_catalog, load_catalog
from .disruption import outage_scan
from .flows import (FlowAggregate, ScannerVerdict, ServerIndex, SweepPoint, aggregate_flows,
                    detect_scanners, exclude_scanner_lines, line_contact_sets, read_flows,
                    regional_down_series, scanner_line_ids, threshold_sweep)
from .footprint import (BackendServer, diff_snapshots, diversity_report, enrich_candidates,
                        load_prefix_table)
from .fusion import (CandidateAddress, build_reverse_index, classify_sharing, fuse,
                     read_candidates, snapshot_filename, write_candidates)
from .geo import Location
from .ingest import (NameMatches, Observation, StudyWindow, ingest_cert_scan,
                     ingest_passive_dns, name_matches, observations_from_resolutions,
                     read_cert_scan_export, read_observations, read_pdns_export,
                     read_resolutions, write_observations)
from .jsonl import (integer, naming_fields, optional_text, read_jsonl, text, texts,
                    write_jsonl)
from .timeutil import fmt_iso, local_date_memo, parse_iso

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


@dataclass(frozen=True)
class RunConfig:
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

    def __post_init__(self) -> None:
        if self.scanner_threshold < 0 or self.sharing_threshold < 0:
            raise ValueError("thresholds must be >= 0")

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


def load_run_config(path: str | Path, overrides: Mapping[str, object] | None = None) -> RunConfig:
    """Config file plus CLI overrides; explicit flags win over file values."""
    with open(path, encoding="utf-8") as fh:
        doc = yaml.safe_load(fh) or {}
    base = Path(path).parent

    def resolve(key: str) -> Path | None:
        value = doc.get(key)
        return (base / value).resolve() if value else None

    values: dict[str, object] = {
        "catalog": resolve("catalog"),
        "out_dir": resolve("out_dir") or (base / "out"),
        "certs": resolve("certs"),
        "pdns": resolve("pdns"),
        "resolutions": resolve("resolutions"),
        "flows": resolve("flows"),
        "prefix2as": resolve("prefix2as"),
        "scanner_threshold": doc.get("scanner_threshold", 100),
        "sharing_threshold": doc.get("sharing_threshold", 2),
        "vantages": tuple(doc.get("vantages", [])),
        "timezone": doc.get("timezone", "UTC"),
        "include_shared": bool(doc.get("include_shared", False)),
        "baseline_days": int(doc.get("baseline_days", 7)),
        "sustain_hours": int(doc.get("sustain_hours", 2)),
        "anonymize": bool(doc.get("anonymize", False)),
        "salt": str(doc.get("salt", "")),
    }
    window = doc.get("window") or {}
    if "start" in window and "end" in window:
        values["window"] = StudyWindow(parse_iso(str(window["start"])),
                                       parse_iso(str(window["end"])))
    for key, value in (overrides or {}).items():
        if value is not None:
            values[key] = value
    if values.get("catalog") is None:
        raise ValueError("run config needs a catalog path")
    if "window" not in values:
        raise ValueError("run config needs a study window")
    return RunConfig(**values)  # type: ignore[arg-type]


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


@dataclass
class RunState:
    """Artifacts shared between stages of one run.

    Each stage artifact is parsed at most once per run. The stage that
    writes one hands it over in `held`, as the file's reader would return
    it (same order, timestamps to the second), and later stages take it
    from the accessor. A run that starts at a later stage reads each file
    once; a missing file raises UpstreamMissingError. `matches` memoizes
    the catalog matches of every name the run's stages look up, so each
    distinct name is matched once per run.
    """

    config: RunConfig
    profiles: list = field(default_factory=list)
    patterns: list = field(default_factory=list)
    held: dict[str, Any] = field(default_factory=dict)
    matches: NameMatches = field(init=False)

    def __post_init__(self) -> None:
        self.matches = NameMatches(self.patterns)

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


def _as_read_back(obs: Observation) -> Observation:
    """`obs` as its line in observations.jsonl reads back: to the second."""
    if obs.seen_at.microsecond:
        return replace(obs, seen_at=obs.seen_at.replace(microsecond=0))
    return obs


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
    observations.sort(key=Observation.sort_key)
    write_observations(cfg.out_dir / "observations.jsonl", observations)
    state.held["observations"] = [_as_read_back(obs) for obs in observations]


def _stage_fuse(state: RunState) -> None:
    cfg = state.config
    observations = state.observations()
    # in file order, as read_candidates returns them
    candidates = dict(sorted(fuse(observations).items()))
    write_candidates(cfg.out_dir / "candidates.jsonl", candidates)
    state.held["candidates"] = candidates
    reports.write_sources(cfg.out_dir / "fig3_sources.csv", candidates.values())

    # dated per-day snapshots for stability diffing, of this run's days only
    snap_dir = cfg.out_dir / "snapshots"
    snap_dir.mkdir(parents=True, exist_ok=True)
    by_day: dict[str, list] = {}
    day_of = local_date_memo(cfg.timezone)  # a few distinct instants
    for obs in observations:
        by_day.setdefault(day_of(obs.seen_at), []).append(obs)
    for path in snap_dir.glob("candidates-*"):
        if path.name.split("candidates-")[1] not in by_day:
            path.unlink()
    index, snapshots = {}, {}
    for date in sorted(by_day):
        day_candidates = fuse(by_day[date])
        path = snap_dir / snapshot_filename(date)
        write_candidates(path, day_candidates)
        index[date] = file_digest(path)
        snapshots[date] = frozenset(day_candidates)
    state.held["snapshots"] = snapshots
    with open(snap_dir / "index.json", "w", encoding="utf-8") as fh:
        json.dump(index, fh, sort_keys=True, indent=1)
        fh.write("\n")


def write_sharing(
    path: Path,
    candidates: Mapping[tuple[str, str], CandidateAddress],
    reverse: Mapping[str, set[str]],
    patterns: Sequence[DomainPattern] | NameMatches,
    threshold: int,
) -> dict[tuple[str, str], str]:
    """One sharing row per candidate in (provider, ip) order. An IP with no
    reverse evidence at all stays dedicated but is marked `reverse_data:
    false`, so reports can tell it from a measured zero. Returns the rows'
    verdicts as `_read_sharing` reads them back."""
    matches = name_matches(patterns)  # one memo across the candidates

    def row(pid: str, ip: str) -> dict:
        non_matching, matching, verdict = 0, 0, "dedicated"
        if ip in reverse:
            v = classify_sharing(ip, pid, reverse, matches, threshold)
            non_matching, matching, verdict = (v.non_matching_domain_count,
                                               v.matching_domain_count, v.verdict)
        return {
            "provider_id": pid, "ip": ip,
            "non_matching_domain_count": non_matching,
            "matching_domain_count": matching,
            "verdict": verdict, "threshold_used": threshold,
            "reverse_data": ip in reverse,
        }

    rows = [row(pid, ip) for pid, ip in sorted(candidates)]
    write_jsonl(path, rows)
    return {(r["provider_id"], r["ip"]): r["verdict"] for r in rows}


def _stage_classify(state: RunState) -> None:
    cfg = state.config
    candidates = state.candidates()
    state.held["sharing"] = write_sharing(cfg.out_dir / "sharing.jsonl", candidates,
                                          state.reverse_index(), state.matches,
                                          cfg.sharing_threshold)


def _sharing_row(doc: dict) -> tuple[tuple[str, str], str]:
    return (text(doc["provider_id"]), text(doc["ip"])), text(doc["verdict"])


def _read_sharing(path: Path) -> dict[tuple[str, str], str]:
    return dict(read_jsonl(path, naming_fields(_sharing_row, {
        "provider_id": text, "ip": text, "verdict": text})))


def write_servers(path: Path, servers: Iterable[BackendServer]) -> list[BackendServer]:
    """One row per server in (provider, ip) order; returns the servers in
    that order, as `read_servers` reads them back."""
    rows = sorted(servers, key=lambda s: (s.provider_id, s.ip))
    write_jsonl(path, ({
        "ip": s.ip, "provider_id": s.provider_id,
        "country": s.location.country, "city": s.location.city,
        "continent": s.location.continent,
        "location_confidence": s.location_confidence,
        "prefix": s.prefix, "asn": s.asn, "sharing": s.sharing,
        "sources": sorted(s.sources), "region_token": s.region_token,
    } for s in rows))
    return rows


def _server(doc: dict) -> BackendServer:
    # BackendServer checks the ip, prefix, asn and sharing values; the other
    # text fields are checked here
    return BackendServer(
        ip=doc["ip"], provider_id=text(doc["provider_id"]),
        location=Location(doc["country"], optional_text(doc.get("city")), doc["continent"]),
        location_confidence=text(doc["location_confidence"]),
        prefix=doc["prefix"], asn=doc["asn"], sharing=doc["sharing"],
        sources=frozenset(texts(doc["sources"])),
        region_token=optional_text(doc.get("region_token")),
    )


_SERVER_CHECKS = {
    "ip": text, "provider_id": text, "country": text, "city": optional_text,
    "continent": text, "location_confidence": text, "prefix": text, "asn": integer,
    "sharing": text, "sources": texts, "region_token": optional_text,
}


def read_servers(path: Path) -> list[BackendServer]:
    return list(read_jsonl(path, naming_fields(_server, _SERVER_CHECKS)))


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


@dataclass(frozen=True)
class FlowAnalysis:
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

    The trace is read twice: scanner verdicts must exist before aggregation
    can drop a scanner line's flows, and holding the records in memory
    between the reads would cost far more than reading again. The contact
    sets are freed before the second read for the same reason.
    """
    backend_ips = index.all_server_ips
    contacts = line_contact_sets(read_flows(path), backend_ips, tz_name)
    verdicts = detect_scanners(contacts, scanner_threshold)
    sweep = threshold_sweep(contacts, backend_ips, DEFAULT_SWEEP_THRESHOLDS)
    del contacts
    agg = aggregate_flows(exclude_scanner_lines(read_flows(path), scanner_line_ids(verdicts)),
                          index, tz_name, cert_ips)
    return FlowAnalysis(verdicts, sweep, agg)


def _stage_flows(state: RunState) -> None:
    cfg = state.config
    if not cfg.flows:
        raise UpstreamMissingError("flow trace input", "inputs")
    flows_path = _require_artifact(cfg.flows, "inputs")
    servers = state.servers()
    candidates = state.candidates()
    profiles_by_id = state.profiles_by_id()
    index = ServerIndex(servers, profiles_by_id, include_shared=cfg.include_shared)
    cert_ips = {ip for (pid, ip), cand in candidates.items() if "tls-cert" in cand.sources}

    analysis = analyze_flows(flows_path, index, cfg.scanner_threshold, cfg.timezone, cert_ips)
    write_jsonl(cfg.out_dir / "scanners.jsonl", ({
        "line_id": v.line_id, "date": v.date,
        "distinct_backend_ips": v.distinct_backend_ips,
        "threshold_used": v.threshold_used,
    } for v in analysis.verdicts if v.is_scanner))
    reports.write_sweep(cfg.out_dir / "fig5_sweep.csv", analysis.sweep)
    reports.emit_flow_reports(cfg.out_dir, analysis.agg, index, profiles_by_id)

    # outage scan over regional series; series without a complete baseline
    # week are skipped (the scan itself refuses partial baselines)
    series = regional_down_series(analysis.agg)
    baseline_start = cfg.window.start - timedelta(days=cfg.baseline_days)
    eligible = {}
    for key, points in series.items():
        covered = sum(1 for ts, _ in points if baseline_start <= ts < cfg.window.start)
        if covered >= cfg.baseline_days * 24:
            eligible[key] = points
    findings = outage_scan(eligible, cfg.window, cfg.baseline_days,
                           cfg.sustain_hours) if eligible else []
    reports.write_outage(cfg.out_dir / "fig13_outage.csv", series, findings, cfg.window)


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
