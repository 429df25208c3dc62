"""Turn raw discovery sources into provider-attributed (FQDN, IP) observations.

Three exports feed the pipeline: certificate scans, passive DNS and active-DNS
resolutions (`active` holds the live probes). Each ingest operation restricts
its output to a study window and tags every observation with its source.

Records are plain tuples (`typing.NamedTuple`) that check nothing. Each
reader checks and canonicalises every field of a line: addresses in their
canonical text (`canonical_ip`), names normalized and non-empty, ports and
intervals in range. It does so once per distinct raw address, name and
ISO-8601 instant of the file, through a `jsonl.Memo` local to the read, and
names the field of a value it rejects. Code inside the process builds records
from values that are already canonical and trusts them: the ingesters copy a
record's address and names into its observations as they are.

Records hold every instant as an int of epoch seconds. The readers turn each
epoch value into the second it falls in (`timeutil.epoch_second`) and each
ISO-8601 text into its second (`timeutil.iso_second`); the ingesters compare
those ints with the window's bounds in seconds; the writers format each
distinct second once.

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

from datetime import datetime
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .catalog import DomainPattern, MatchResult, match_fqdn, normalize_fqdn
from .jsonl import (Memo, flag, integer, naming_fields, quote, read_jsonl, text, texts,
                    write_jsonl, write_lines)
from .netutil import canonical_ip
from .records import Checked
from .timeutil import ensure_utc, epoch_second, fmt_epoch, iso_second, parse_iso, to_epoch

SOURCES = ("tls-cert", "passive-dns", "active-dns")

# builds a record from a tuple of its fields, without the Python-level
# __new__ of its NamedTuple: the hot readers and ingesters build thousands
_new = tuple.__new__


class _StudyWindow(NamedTuple):
    start: datetime
    end: datetime


class StudyWindow(Checked, _StudyWindow):
    __slots__ = ()

    def _checked(self) -> StudyWindow:
        start, end = ensure_utc(self.start), ensure_utc(self.end)
        if not start < end:
            raise ValueError("window start must precede end")
        return _new(type(self), (start, end))

    def overlaps(self, start: datetime, end: datetime) -> bool:
        """Closed interval [start, end] vs half-open window [start, end)."""
        return ensure_utc(start) < self.end and ensure_utc(end) >= self.start

    def epoch_bounds(self) -> tuple[int, int]:
        """(start, end) in epoch seconds: a second ts lies in the window iff
        start <= ts < end, so a bound inside a second counts from the next."""
        return tuple(to_epoch(bound) + (bound.microsecond > 0)
                     for bound in (self.start, self.end))


class CertScanRecord(NamedTuple):
    ip: str
    port: int
    names: tuple[str, ...]
    not_before: int
    not_after: int
    observed_at: int


class PassiveDnsRecord(NamedTuple):
    rrname: str
    rrtype: str
    rdata: str
    first_seen: int
    last_seen: int


class ResolutionResult(NamedTuple):
    fqdn: str
    vantage_id: str
    answers: tuple[str, ...]
    resolved_at: int
    status: str


class Observation(NamedTuple):
    provider_id: str
    fqdn: str
    ip: str
    source: str
    seen_at: int
    wildcard: bool = False  # the ingesters set it when fqdn starts with "*."


class MalformedRecord(NamedTuple):
    """Placeholder a reader yields for an unparseable line."""

    line_no: int
    reason: str


class IngestStats:
    """What one ingest call kept and why it dropped the rest."""

    __slots__ = ("emitted", "malformed", "skipped_window", "skipped_rrtype", "unmatched_names")

    def __init__(self, emitted: int = 0, malformed: int = 0, skipped_window: int = 0,
                 skipped_rrtype: int = 0, unmatched_names: int = 0) -> None:
        self.emitted = emitted
        self.malformed = malformed
        self.skipped_window = skipped_window
        self.skipped_rrtype = skipped_rrtype
        self.unmatched_names = unmatched_names


class IngestResult(NamedTuple):
    observations: tuple[Observation, ...]
    stats: IngestStats


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
                observations.append(_new(Observation, (
                    result.provider_id, name, record.ip, "tls-cert", record.observed_at,
                    wildcard)))
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
            observations.append(_new(Observation, (
                result.provider_id, record.rrname, record.rdata, "passive-dns", seen_at,
                wildcard)))
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
                observations.append(_new(Observation, (
                    result.provider_id, res.fqdn, ip, "active-dns", res.resolved_at,
                    wildcard)))
                stats.emitted += 1
    return IngestResult(tuple(observations), stats)


# --- file formats -------------------------------------------------------------


def _name(value: object) -> str:
    """A name as records hold it: text, normalized and, as `match_fqdn`
    requires, non-empty."""
    name = normalize_fqdn(text(value))
    if not name:
        raise ValueError("fqdn must be non-empty")
    return name


def _validity(value: object) -> tuple[int, int]:
    """A certificate's validity object as (not_before, not_after) seconds."""
    if not isinstance(value, dict):
        raise TypeError(f"expected an object, not {type(value).__name__}")
    return epoch_second(value["start"]), epoch_second(value["end"])


def _cert_record(addresses: Memo, names: Memo) -> Callable[[dict], CertScanRecord]:
    def build(doc: dict) -> CertScanRecord:
        ip, port, listed = doc["ip"], integer(doc["port"]), texts(doc["names"])
        not_before, not_after = _validity(doc["validity"])
        observed_at = epoch_second(doc["observed_at"])
        ip = addresses(ip)
        if not 1 <= port <= 65535:
            raise ValueError(f"port out of range: {port}")
        if not_before > not_after:
            raise ValueError("certificate validity interval is inverted")
        return _new(CertScanRecord, (ip, port, tuple(map(names, listed)),
                                     not_before, not_after, observed_at))
    return build


_CERT_CHECKS = {
    "ip": canonical_ip, "port": integer, "names": lambda v: [_name(n) for n in texts(v)],
    "validity": _validity, "observed_at": epoch_second,
}


def read_cert_scan_export(path: str | Path) -> Iterator[CertScanRecord | MalformedRecord]:
    build = _cert_record(Memo(canonical_ip), Memo(_name))
    return read_jsonl(path, naming_fields(build, _CERT_CHECKS), MalformedRecord)


def write_cert_scan_export(path: str | Path, records: Iterable[CertScanRecord]) -> None:
    write_jsonl(path, ({
        "ip": r.ip, "port": r.port, "names": list(r.names),
        "validity": {"start": r.not_before, "end": r.not_after},
        "observed_at": r.observed_at,
    } for r in records))


def _pdns_record(addresses: Memo, names: Memo) -> Callable[[dict], PassiveDnsRecord]:
    def build(doc: dict) -> PassiveDnsRecord:
        rrname, rrtype, rdata = doc["rrname"], doc["rrtype"], doc["rdata"]
        first_seen, last_seen = epoch_second(doc["time_first"]), epoch_second(doc["time_last"])
        rrname, rrtype = names(rrname), rrtype.upper()
        if rrtype == "A" or rrtype == "AAAA":
            try:
                rdata = addresses(rdata)
            except ValueError as exc:
                raise ValueError(f"field 'rdata': {exc}") from None
            # canonical text holds a colon exactly when it is IPv6
            if (":" in rdata) != (rrtype == "AAAA"):
                raise ValueError(f"rdata {rdata} inconsistent with rrtype {rrtype}")
        if first_seen > last_seen:
            raise ValueError("first_seen after last_seen")
        return _new(PassiveDnsRecord, (rrname, rrtype, rdata, first_seen, last_seen))
    return build


_PDNS_CHECKS = {
    "rrname": _name, "rrtype": text, "time_first": epoch_second, "time_last": epoch_second,
}


def read_pdns_export(path: str | Path) -> Iterator[PassiveDnsRecord | MalformedRecord]:
    build = _pdns_record(Memo(canonical_ip), Memo(_name))
    return read_jsonl(path, naming_fields(build, _PDNS_CHECKS), MalformedRecord)


def write_pdns_export(path: str | Path, records: Iterable[PassiveDnsRecord]) -> None:
    write_jsonl(path, ({
        "rrname": r.rrname, "rrtype": r.rrtype, "rdata": r.rdata,
        "time_first": r.first_seen, "time_last": r.last_seen,
    } for r in records))


STATUSES = ("ok", "nxdomain", "timeout", "servfail")


def _resolution(addresses: Memo, names: Memo) -> Callable[[dict], ResolutionResult]:
    def build(doc: dict) -> ResolutionResult:
        fqdn, vantage_id, answers = doc["fqdn"], text(doc["vantage_id"]), doc["answers"]
        resolved_at, status = epoch_second(doc["resolved_at"]), doc["status"]
        fqdn, answers = names(fqdn), tuple(map(addresses, answers))
        if status not in STATUSES:
            raise ValueError(f"bad status {status!r}")
        if (status == "ok") != bool(answers):
            raise ValueError("answers must be non-empty exactly when status=ok")
        return _new(ResolutionResult, (fqdn, vantage_id, answers, resolved_at, status))
    return build


_RESOLUTION_CHECKS = {
    "fqdn": _name, "vantage_id": text,
    "answers": lambda v: [canonical_ip(a) for a in texts(v)],
    "resolved_at": epoch_second, "status": text,
}


def read_resolutions(path: str | Path) -> Iterator[ResolutionResult]:
    build = _resolution(Memo(canonical_ip), Memo(_name))
    return read_jsonl(path, naming_fields(build, _RESOLUTION_CHECKS))


def write_resolutions(path: str | Path, results: Iterable[ResolutionResult]) -> None:
    write_jsonl(path, ({
        "fqdn": r.fqdn, "vantage_id": r.vantage_id, "answers": list(r.answers),
        "resolved_at": r.resolved_at, "status": r.status,
    } for r in results))


def _observation(addresses: Memo, instants: Memo) -> Callable[[dict], Observation]:
    def build(doc: dict) -> Observation:
        provider_id, fqdn = text(doc["provider_id"]), text(doc["fqdn"])
        ip, source = addresses(doc["ip"]), doc["source"]
        seen_at, wildcard = instants(doc["seen_at"]), flag(doc.get("wildcard", False))
        if source not in SOURCES:
            raise ValueError(f"bad source {source!r}")
        return _new(Observation, (provider_id, fqdn, ip, source, seen_at, wildcard))
    return build


_OBSERVATION_CHECKS = {
    "provider_id": text, "fqdn": text, "ip": canonical_ip, "source": text,
    "seen_at": lambda v: parse_iso(text(v)), "wildcard": flag,
}


def read_observations(path: str | Path) -> Iterator[Observation]:
    build = _observation(Memo(canonical_ip), Memo(iso_second))
    return read_jsonl(path, naming_fields(build, _OBSERVATION_CHECKS))


def write_observations(path: str | Path, observations: Iterable[Observation]) -> None:
    iso = Memo(fmt_epoch)
    write_lines(path, (
        f'{{"provider_id": {quote(o.provider_id)}, "fqdn": {quote(o.fqdn)}, '
        f'"ip": {quote(o.ip)}, "source": {quote(o.source)}, '
        f'"seen_at": {quote(iso[o.seen_at])}, '
        f'"wildcard": {"true" if o.wildcard else "false"}}}\n'
        for o in observations))
