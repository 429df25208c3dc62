"""Turn raw discovery sources into provider-attributed (FQDN, IP) observations.

Three exports feed the pipeline: certificate scans, passive DNS and active-DNS
resolutions (`active` holds the live probes). Each ingest operation restricts
its output to a study window and tags every observation with its source.

Records hold every instant as an int of epoch seconds. The readers turn each
epoch value into the second it falls in (`timeutil.epoch_second`) and each
ISO-8601 text into its second; the ingesters compare those ints with the
window's bounds in seconds; the writers format each distinct second once.

File formats (all line-delimited JSON, one record per line):

  cert export:   {"ip", "port", "names": [..], "validity": {"start", "end"},
                  "observed_at"}                        (epoch seconds)
  pdns export:   {"rrname", "rrtype", "rdata", "time_first", "time_last"}
  resolutions:   {"fqdn", "vantage_id", "answers": [..], "resolved_at",
                  "status"}
  observations:  {"provider_id", "fqdn", "ip", "source", "seen_at",
                  "wildcard"}                           (seen_at ISO-8601)
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .catalog import DomainPattern, MatchResult, match_fqdn, normalize_fqdn
from .jsonl import Memo, naming_fields, quote, read_jsonl, text, texts, write_jsonl, write_lines
from .netutil import canonical_ip, ip_family
from .timeutil import ensure_utc, epoch_second, fmt_epoch, parse_iso, to_epoch

SOURCES = ("tls-cert", "passive-dns", "active-dns")


@dataclass(frozen=True)
class StudyWindow:
    start: datetime
    end: datetime

    def __post_init__(self) -> None:
        object.__setattr__(self, "start", ensure_utc(self.start))
        object.__setattr__(self, "end", ensure_utc(self.end))
        if not self.start < self.end:
            raise ValueError("window start must precede end")

    def overlaps(self, start: datetime, end: datetime) -> bool:
        """Closed interval [start, end] vs half-open window [start, end)."""
        return ensure_utc(start) < self.end and ensure_utc(end) >= self.start

    def epoch_bounds(self) -> tuple[int, int]:
        """(start, end) in epoch seconds: a second ts lies in the window iff
        start <= ts < end, so a bound inside a second counts from the next."""
        return tuple(to_epoch(bound) + (bound.microsecond > 0)
                     for bound in (self.start, self.end))


@dataclass(frozen=True)
class CertScanRecord:
    ip: str
    port: int
    names: tuple[str, ...]
    not_before: int
    not_after: int
    observed_at: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "ip", canonical_ip(self.ip))
        object.__setattr__(self, "names", tuple(normalize_fqdn(n) for n in self.names))
        if not 1 <= self.port <= 65535:
            raise ValueError(f"port out of range: {self.port}")
        if self.not_before > self.not_after:
            raise ValueError("certificate validity interval is inverted")


@dataclass(frozen=True)
class PassiveDnsRecord:
    rrname: str
    rrtype: str
    rdata: str
    first_seen: int
    last_seen: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "rrname", normalize_fqdn(self.rrname))
        object.__setattr__(self, "rrtype", self.rrtype.upper())
        if self.rrtype in ("A", "AAAA"):
            rdata = canonical_ip(self.rdata)
            object.__setattr__(self, "rdata", rdata)
            want = 4 if self.rrtype == "A" else 6
            if ip_family(rdata) != want:
                raise ValueError(f"rdata {rdata} inconsistent with rrtype {self.rrtype}")
        if self.first_seen > self.last_seen:
            raise ValueError("first_seen after last_seen")


@dataclass(frozen=True)
class ResolutionResult:
    fqdn: str
    vantage_id: str
    answers: tuple[str, ...]
    resolved_at: int
    status: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "fqdn", normalize_fqdn(self.fqdn))
        object.__setattr__(self, "answers", tuple(canonical_ip(a) for a in self.answers))
        if self.status not in ("ok", "nxdomain", "timeout", "servfail"):
            raise ValueError(f"bad status {self.status!r}")
        if (self.status == "ok") != bool(self.answers):
            raise ValueError("answers must be non-empty exactly when status=ok")


@dataclass(frozen=True)
class Observation:
    provider_id: str
    fqdn: str
    ip: str
    source: str
    seen_at: int
    wildcard: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "ip", canonical_ip(self.ip))
        if self.source not in SOURCES:
            raise ValueError(f"bad source {self.source!r}")

    def sort_key(self) -> tuple:
        return (self.provider_id, self.fqdn, self.ip, self.source, self.seen_at)


@dataclass(frozen=True)
class MalformedRecord:
    """Placeholder a reader yields for an unparseable line."""

    line_no: int
    reason: str


@dataclass
class IngestStats:
    emitted: int = 0
    malformed: int = 0
    skipped_window: int = 0
    skipped_rrtype: int = 0
    unmatched_names: int = 0


@dataclass(frozen=True)
class IngestResult:
    observations: tuple[Observation, ...]
    stats: IngestStats

    def __iter__(self) -> Iterator[Observation]:
        return iter(self.observations)


class NameMatches(dict):
    """The matches of each name against one list of patterns, worked out on
    first lookup: `matches[name]` is the tuple of matched MatchResults of
    `match_fqdn(pattern, name)`, in pattern order. One memo serves a call
    or a whole run; it stays bound to its own patterns.
    """

    def __init__(self, patterns: Sequence[DomainPattern]) -> None:
        super().__init__()
        self.patterns = patterns

    def __missing__(self, name: str) -> tuple[MatchResult, ...]:
        # match_fqdn matches only names that end with a pattern's tails, and
        # rejects an empty one, so only those patterns need asking
        normalized = normalize_fqdn(name)
        found = self[name] = tuple(
            result for pattern in self.patterns
            if not name or normalized.endswith(pattern.tails)
            if (result := match_fqdn(pattern, name)).matched)
        return found


def name_matches(patterns: Sequence[DomainPattern] | NameMatches) -> NameMatches:
    """`patterns` as a NameMatches: itself if it is one, so that callers can
    share one memo, or else a new one over them."""
    return patterns if isinstance(patterns, NameMatches) else NameMatches(patterns)


def _match_name(patterns: Sequence[DomainPattern] | NameMatches, name: str):
    """All pattern matches for a (possibly wildcard) certificate/DNS name.

    A leading ``*.`` is treated as a single-label wildcard: the star is
    replaced with a probe label and resulting matches are flagged.
    """
    wildcard = name.startswith("*.")
    probe = "wildcardprobe" + name[1:] if wildcard else name
    return [(result, wildcard) for result in name_matches(patterns)[probe]]


def ingest_cert_scan(
    stream: Iterable[CertScanRecord | MalformedRecord],
    patterns: Sequence[DomainPattern] | NameMatches,
    window: StudyWindow,
) -> IngestResult:
    """One observation per matching name of every certificate whose validity
    overlaps the window and whose scan observation falls inside it.

    `patterns` may be a NameMatches over the catalog's patterns, so that the
    ingesters of one run match each distinct name once between them."""
    memo = name_matches(patterns)
    start, end = window.epoch_bounds()
    stats = IngestStats()
    observations: list[Observation] = []
    for record in stream:
        if isinstance(record, MalformedRecord):
            stats.malformed += 1
            continue
        if not (record.not_before < end and record.not_after >= start
                and start <= record.observed_at < end):
            stats.skipped_window += 1
            continue
        for name in record.names:
            matches = _match_name(memo, name)
            if not matches:
                stats.unmatched_names += 1
                continue
            for result, wildcard in matches:
                observations.append(Observation(
                    provider_id=result.provider_id,
                    fqdn=normalize_fqdn(name),
                    ip=record.ip,
                    source="tls-cert",
                    seen_at=record.observed_at,
                    wildcard=wildcard,
                ))
                stats.emitted += 1
    return IngestResult(tuple(observations), stats)


def ingest_passive_dns(
    stream: Iterable[PassiveDnsRecord | MalformedRecord],
    patterns: Sequence[DomainPattern] | NameMatches,
    window: StudyWindow,
) -> IngestResult:
    """Observations from A/AAAA rows whose [first_seen, last_seen] range
    overlaps the window. seen_at is the first in-window second."""
    memo = name_matches(patterns)
    start, end = window.epoch_bounds()
    stats = IngestStats()
    observations: list[Observation] = []
    for record in stream:
        if isinstance(record, MalformedRecord):
            stats.malformed += 1
            continue
        if record.rrtype not in ("A", "AAAA"):
            stats.skipped_rrtype += 1
            continue
        if not (record.first_seen < end and record.last_seen >= start):
            stats.skipped_window += 1
            continue
        matches = _match_name(memo, record.rrname)
        if not matches:
            stats.unmatched_names += 1
            continue
        seen_at = max(record.first_seen, start)
        for result, wildcard in matches:
            observations.append(Observation(
                provider_id=result.provider_id,
                fqdn=record.rrname,
                ip=record.rdata,
                source="passive-dns",
                seen_at=seen_at,
                wildcard=wildcard,
            ))
            stats.emitted += 1
    return IngestResult(tuple(observations), stats)


def observations_from_resolutions(
    results: Iterable[ResolutionResult],
    patterns: Sequence[DomainPattern] | NameMatches,
    window: StudyWindow,
) -> IngestResult:
    """Active-DNS observations from resolver answers inside the window."""
    memo = name_matches(patterns)
    start, end = window.epoch_bounds()
    stats = IngestStats()
    observations: list[Observation] = []
    for res in results:
        if res.status != "ok":
            continue
        if not start <= res.resolved_at < end:
            stats.skipped_window += 1
            continue
        matches = _match_name(memo, res.fqdn)
        if not matches:
            stats.unmatched_names += 1
            continue
        for result, wildcard in matches:
            for ip in res.answers:
                observations.append(Observation(
                    provider_id=result.provider_id,
                    fqdn=res.fqdn,
                    ip=ip,
                    source="active-dns",
                    seen_at=res.resolved_at,
                    wildcard=wildcard,
                ))
                stats.emitted += 1
    return IngestResult(tuple(observations), stats)


# --- file formats -------------------------------------------------------------


def _cert_record(doc: dict) -> CertScanRecord:
    return CertScanRecord(
        ip=doc["ip"],
        port=int(doc["port"]),
        names=tuple(doc["names"]),
        not_before=epoch_second(doc["validity"]["start"]),
        not_after=epoch_second(doc["validity"]["end"]),
        observed_at=epoch_second(doc["observed_at"]),
    )


def read_cert_scan_export(path: str | Path) -> Iterator[CertScanRecord | MalformedRecord]:
    return read_jsonl(path, _cert_record, MalformedRecord)


def write_cert_scan_export(path: str | Path, records: Iterable[CertScanRecord]) -> None:
    write_jsonl(path, ({
        "ip": r.ip, "port": r.port, "names": list(r.names),
        "validity": {"start": r.not_before, "end": r.not_after},
        "observed_at": r.observed_at,
    } for r in records))


def _pdns_record(doc: dict) -> PassiveDnsRecord:
    return PassiveDnsRecord(
        rrname=doc["rrname"],
        rrtype=doc["rrtype"],
        rdata=doc["rdata"],
        first_seen=epoch_second(doc["time_first"]),
        last_seen=epoch_second(doc["time_last"]),
    )


def read_pdns_export(path: str | Path) -> Iterator[PassiveDnsRecord | MalformedRecord]:
    return read_jsonl(path, _pdns_record, MalformedRecord)


def write_pdns_export(path: str | Path, records: Iterable[PassiveDnsRecord]) -> None:
    write_jsonl(path, ({
        "rrname": r.rrname, "rrtype": r.rrtype, "rdata": r.rdata,
        "time_first": r.first_seen, "time_last": r.last_seen,
    } for r in records))


def _resolution(doc: dict) -> ResolutionResult:
    return ResolutionResult(
        fqdn=doc["fqdn"],
        vantage_id=doc["vantage_id"],
        answers=tuple(doc["answers"]),
        resolved_at=epoch_second(doc["resolved_at"]),
        status=doc["status"],
    )


_RESOLUTION_CHECKS = {
    "fqdn": text, "vantage_id": text,
    "answers": lambda v: [canonical_ip(a) for a in texts(v)],
    "resolved_at": epoch_second, "status": text,
}


def read_resolutions(path: str | Path) -> Iterator[ResolutionResult]:
    return read_jsonl(path, naming_fields(_resolution, _RESOLUTION_CHECKS))


def write_resolutions(path: str | Path, results: Iterable[ResolutionResult]) -> None:
    write_jsonl(path, ({
        "fqdn": r.fqdn, "vantage_id": r.vantage_id, "answers": list(r.answers),
        "resolved_at": r.resolved_at, "status": r.status,
    } for r in results))


def _observation(doc: dict) -> Observation:
    # Observation checks no text types, so provider_id and fqdn are checked here
    return Observation(
        provider_id=text(doc["provider_id"]),
        fqdn=text(doc["fqdn"]),
        ip=doc["ip"],
        source=doc["source"],
        seen_at=to_epoch(parse_iso(doc["seen_at"])),
        wildcard=bool(doc.get("wildcard", False)),
    )


_OBSERVATION_CHECKS = {
    "provider_id": text, "fqdn": text, "ip": canonical_ip, "source": text,
    "seen_at": lambda v: parse_iso(text(v)),
}


def read_observations(path: str | Path) -> Iterator[Observation]:
    return read_jsonl(path, naming_fields(_observation, _OBSERVATION_CHECKS))


def write_observations(path: str | Path, observations: Iterable[Observation]) -> None:
    iso = Memo(fmt_epoch)
    write_lines(path, (
        f'{{"provider_id": {quote(o.provider_id)}, "fqdn": {quote(o.fqdn)}, '
        f'"ip": {quote(o.ip)}, "source": {quote(o.source)}, '
        f'"seen_at": {quote(iso[o.seen_at])}, '
        f'"wildcard": {"true" if o.wildcard else "false"}}}\n'
        for o in observations))
