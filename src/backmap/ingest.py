"""Turn raw discovery sources into provider-attributed (FQDN, IP) observations.

Four sources feed the pipeline: certificate-scan exports, passive-DNS
exports, live DNS resolution against configured vantage points, and live
TLS collection from supplied targets. Each ingest operation restricts its
output to a study window and tags every observation with its source.

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

import socket
import ssl
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .catalog import DomainPattern, MatchResult, match_fqdn, normalize_fqdn
from .jsonl import naming_fields, read_jsonl, text, texts, write_jsonl
from .netutil import canonical_ip, ip_family
from .timeutil import (UTC, ensure_utc, fmt_iso_memo, from_epoch, from_epoch_memo, parse_iso,
                       to_epoch)

SOURCES = ("tls-cert", "passive-dns", "active-dns")

# Ethics floor: live resolvers are never queried faster than this unless the
# caller passes the explicit unsafe override (test fixtures only).
MIN_RESOLVER_PACING = 10.0


class IngestError(ValueError):
    """Malformed input encountered in strict mode."""


@dataclass(frozen=True)
class StudyWindow:
    start: datetime
    end: datetime

    def __post_init__(self) -> None:
        object.__setattr__(self, "start", ensure_utc(self.start))
        object.__setattr__(self, "end", ensure_utc(self.end))
        if not self.start < self.end:
            raise ValueError("window start must precede end")

    def contains(self, dt: datetime) -> bool:
        return self.start <= ensure_utc(dt) < self.end

    def overlaps(self, start: datetime, end: datetime) -> bool:
        """Closed interval [start, end] vs half-open window [start, end)."""
        return ensure_utc(start) < self.end and ensure_utc(end) >= self.start


@dataclass(frozen=True)
class CertScanRecord:
    ip: str
    port: int
    names: tuple[str, ...]
    not_before: datetime
    not_after: datetime
    observed_at: datetime

    def __post_init__(self) -> None:
        object.__setattr__(self, "ip", canonical_ip(self.ip))
        object.__setattr__(self, "names", tuple(normalize_fqdn(n) for n in self.names))
        for attr in ("not_before", "not_after", "observed_at"):
            object.__setattr__(self, attr, ensure_utc(getattr(self, attr)))
        if not 1 <= self.port <= 65535:
            raise ValueError(f"port out of range: {self.port}")
        if self.not_before > self.not_after:
            raise ValueError("certificate validity interval is inverted")


@dataclass(frozen=True)
class PassiveDnsRecord:
    rrname: str
    rrtype: str
    rdata: str
    first_seen: datetime
    last_seen: datetime

    def __post_init__(self) -> None:
        object.__setattr__(self, "rrname", normalize_fqdn(self.rrname))
        object.__setattr__(self, "rrtype", self.rrtype.upper())
        if self.rrtype in ("A", "AAAA"):
            rdata = canonical_ip(self.rdata)
            object.__setattr__(self, "rdata", rdata)
            want = 4 if self.rrtype == "A" else 6
            if ip_family(rdata) != want:
                raise ValueError(f"rdata {rdata} inconsistent with rrtype {self.rrtype}")
        for attr in ("first_seen", "last_seen"):
            object.__setattr__(self, attr, ensure_utc(getattr(self, attr)))
        if self.first_seen > self.last_seen:
            raise ValueError("first_seen after last_seen")


@dataclass(frozen=True)
class ResolutionResult:
    fqdn: str
    vantage_id: str
    answers: tuple[str, ...]
    resolved_at: datetime
    status: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "fqdn", normalize_fqdn(self.fqdn))
        object.__setattr__(self, "answers", tuple(canonical_ip(a) for a in self.answers))
        object.__setattr__(self, "resolved_at", ensure_utc(self.resolved_at))
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
    seen_at: datetime
    wildcard: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "ip", canonical_ip(self.ip))
        object.__setattr__(self, "seen_at", ensure_utc(self.seen_at))
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
    strict: bool = False,
) -> IngestResult:
    """One observation per matching name of every certificate whose validity
    overlaps the window and whose scan observation falls inside it.

    `patterns` may be a NameMatches over the catalog's patterns, so that the
    ingesters of one run match each distinct name once between them."""
    memo = name_matches(patterns)
    stats = IngestStats()
    observations: list[Observation] = []
    for record in stream:
        if isinstance(record, MalformedRecord):
            if strict:
                raise IngestError(f"line {record.line_no}: {record.reason}")
            stats.malformed += 1
            continue
        if not (window.overlaps(record.not_before, record.not_after)
                and window.contains(record.observed_at)):
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
    strict: bool = False,
) -> IngestResult:
    """Observations from A/AAAA rows whose [first_seen, last_seen] range
    overlaps the window. seen_at is the first in-window instant."""
    memo = name_matches(patterns)
    stats = IngestStats()
    observations: list[Observation] = []
    for record in stream:
        if isinstance(record, MalformedRecord):
            if strict:
                raise IngestError(f"line {record.line_no}: {record.reason}")
            stats.malformed += 1
            continue
        if record.rrtype not in ("A", "AAAA"):
            stats.skipped_rrtype += 1
            continue
        if not window.overlaps(record.first_seen, record.last_seen):
            stats.skipped_window += 1
            continue
        matches = _match_name(memo, record.rrname)
        if not matches:
            stats.unmatched_names += 1
            continue
        seen_at = max(record.first_seen, window.start)
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
    stats = IngestStats()
    observations: list[Observation] = []
    for res in results:
        if res.status != "ok":
            continue
        if not window.contains(res.resolved_at):
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


# --- active DNS resolution ---------------------------------------------------


@dataclass(frozen=True)
class ResolverEndpoint:
    vantage_id: str
    host: str
    port: int = 53


_DNS_TYPE = {"A": 1, "AAAA": 28}


def _build_query(qid: int, qname: str, qtype: str) -> bytes:
    header = struct.pack(">HHHHHH", qid, 0x0100, 1, 0, 0, 0)
    body = b"".join(
        bytes([len(label)]) + label.encode("ascii")
        for label in normalize_fqdn(qname).split(".")
    ) + b"\x00"
    return header + body + struct.pack(">HH", _DNS_TYPE[qtype], 1)


def _skip_name(data: bytes, offset: int) -> int:
    while True:
        length = data[offset]
        if length == 0:
            return offset + 1
        if length & 0xC0 == 0xC0:  # compression pointer ends the name
            return offset + 2
        offset += 1 + length


def _parse_response(data: bytes, qid: int) -> tuple[int, list[str]]:
    """Return (rcode, answer addresses) for A/AAAA answers."""
    rid, flags, qd, an, _, _ = struct.unpack(">HHHHHH", data[:12])
    if rid != qid:
        raise ValueError("response id mismatch")
    rcode = flags & 0x000F
    offset = 12
    for _ in range(qd):
        offset = _skip_name(data, offset) + 4
    answers: list[str] = []
    for _ in range(an):
        offset = _skip_name(data, offset)
        rtype, _, _, rdlen = struct.unpack(">HHIH", data[offset:offset + 10])
        offset += 10
        rdata = data[offset:offset + rdlen]
        offset += rdlen
        if rtype == 1 and rdlen == 4:
            answers.append(canonical_ip(socket.inet_ntop(socket.AF_INET, rdata)))
        elif rtype == 28 and rdlen == 16:
            answers.append(canonical_ip(socket.inet_ntop(socket.AF_INET6, rdata)))
    return rcode, answers


def _query_udp(endpoint: ResolverEndpoint, qname: str, qtype: str,
               timeout: float) -> tuple[str, list[str]]:
    """One UDP query. Returns (status, answers)."""
    qid = (hash((qname, qtype, endpoint.vantage_id)) & 0x7FFF) or 1
    packet = _build_query(qid, qname, qtype)
    try:
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            sock.settimeout(timeout)
            sock.sendto(packet, (endpoint.host, endpoint.port))
            deadline = time.monotonic() + timeout
            while True:
                data, _ = sock.recvfrom(4096)
                try:
                    rcode, answers = _parse_response(data, qid)
                except (ValueError, IndexError, struct.error):
                    if time.monotonic() > deadline:
                        return "timeout", []
                    continue
                break
    except (socket.timeout, TimeoutError):
        return "timeout", []
    except OSError:
        return "timeout", []
    if rcode == 0:
        return ("ok", answers) if answers else ("nxdomain", [])
    if rcode == 3:
        return "nxdomain", []
    return "servfail", []


def resolve_active(
    fqdns: Iterable[str],
    vantages: Sequence[ResolverEndpoint],
    pacing: float = MIN_RESOLVER_PACING,
    *,
    qtypes: Sequence[str] = ("A",),
    timeout: float = 3.0,
    unsafe_fast: bool = False,
    now: datetime | None = None,
) -> list[ResolutionResult]:
    """Resolve every FQDN against every vantage, one result per pair.

    Queries to one resolver are serialized with at least `pacing` seconds
    between them; vantages run concurrently. Lowering the pacing under the
    configured floor requires the explicit `unsafe_fast` override and is
    meant for local test fixtures only.
    """
    if not vantages:
        raise ValueError("at least one vantage is required")
    if pacing < MIN_RESOLVER_PACING and not unsafe_fast:
        raise ValueError(
            f"pacing below {MIN_RESOLVER_PACING}s requires unsafe_fast=True")
    bad = [q for q in qtypes if q not in _DNS_TYPE]
    if bad:
        raise ValueError(f"unsupported qtypes: {bad}")
    names = sorted({normalize_fqdn(f) for f in fqdns})
    results: list[ResolutionResult] = []
    lock = threading.Lock()

    def run_vantage(endpoint: ResolverEndpoint) -> None:
        last_query = 0.0
        for name in names:
            answers: list[str] = []
            statuses: list[str] = []
            for qtype in qtypes:
                wait = last_query + pacing - time.monotonic()
                if wait > 0:
                    time.sleep(wait)
                last_query = time.monotonic()
                status, got = _query_udp(endpoint, name, qtype, timeout)
                statuses.append(status)
                answers.extend(got)
            if answers:
                status = "ok"
            elif "servfail" in statuses:
                status = "servfail"
            elif "timeout" in statuses:
                status = "timeout"
            else:
                status = "nxdomain"
            result = ResolutionResult(
                fqdn=name,
                vantage_id=endpoint.vantage_id,
                answers=tuple(dict.fromkeys(answers)),
                resolved_at=now or datetime.now(tz=UTC),
                status=status,
            )
            with lock:
                results.append(result)

    with ThreadPoolExecutor(max_workers=len(vantages)) as pool:
        futures = [pool.submit(run_vantage, v) for v in vantages]
        for fut in futures:
            fut.result()
    results.sort(key=lambda r: (r.vantage_id, r.fqdn))
    return results


# --- live TLS collection ------------------------------------------------------


@dataclass(frozen=True)
class TlsTarget:
    ip: str
    port: int
    sni: str | None = None


@dataclass(frozen=True)
class TlsProbeResult:
    target: TlsTarget
    record: CertScanRecord | None = None
    failure: str | None = None  # refused | timeout | handshake-failure | unreachable


def _extract_names(der: bytes) -> tuple[tuple[str, ...], datetime, datetime]:
    from cryptography import x509
    from cryptography.x509.oid import ExtensionOID, NameOID

    cert = x509.load_der_x509_certificate(der)
    names: list[str] = []
    for attr in cert.subject.get_attributes_for_oid(NameOID.COMMON_NAME):
        names.append(str(attr.value))
    try:
        san = cert.extensions.get_extension_for_oid(
            ExtensionOID.SUBJECT_ALTERNATIVE_NAME).value
        names.extend(san.get_values_for_type(x509.DNSName))
    except x509.ExtensionNotFound:
        pass
    deduped = tuple(dict.fromkeys(normalize_fqdn(n) for n in names))
    return deduped, ensure_utc(cert.not_valid_before_utc), ensure_utc(cert.not_valid_after_utc)


def _probe_tls(target: TlsTarget, timeout: float, now: datetime) -> TlsProbeResult:
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_CLIENT)
    context.check_hostname = False
    context.verify_mode = ssl.CERT_NONE
    try:
        with socket.create_connection((target.ip, target.port), timeout=timeout) as raw:
            with context.wrap_socket(raw, server_hostname=target.sni) as tls:
                der = tls.getpeercert(binary_form=True)
    except ConnectionRefusedError:
        return TlsProbeResult(target, failure="refused")
    except (socket.timeout, TimeoutError):
        return TlsProbeResult(target, failure="timeout")
    except ssl.SSLError:
        return TlsProbeResult(target, failure="handshake-failure")
    except OSError:
        return TlsProbeResult(target, failure="unreachable")
    if not der:
        return TlsProbeResult(target, failure="handshake-failure")
    names, not_before, not_after = _extract_names(der)
    record = CertScanRecord(
        ip=target.ip, port=target.port, names=names,
        not_before=not_before, not_after=not_after, observed_at=now,
    )
    return TlsProbeResult(target, record=record)


def collect_tls(
    targets: Sequence[TlsTarget],
    timeout: float = 5.0,
    max_inflight: int = 8,
    now: datetime | None = None,
) -> list[TlsProbeResult]:
    """One TLS handshake per target; failures are per-target results.

    SNI is sent when the target carries one. Total in-flight connections
    are bounded by `max_inflight`.
    """
    when = now or datetime.now(tz=UTC)
    if not targets:
        return []
    with ThreadPoolExecutor(max_workers=max(1, min(max_inflight, len(targets)))) as pool:
        return list(pool.map(lambda t: _probe_tls(t, timeout, when), targets))


# --- file formats -------------------------------------------------------------


def _cert_record(doc: dict, epoch: Callable) -> CertScanRecord:
    return CertScanRecord(
        ip=doc["ip"],
        port=int(doc["port"]),
        names=tuple(doc["names"]),
        not_before=epoch(doc["validity"]["start"]),
        not_after=epoch(doc["validity"]["end"]),
        observed_at=epoch(doc["observed_at"]),
    )


def read_cert_scan_export(path: str | Path) -> Iterator[CertScanRecord | MalformedRecord]:
    # an export repeats a few distinct epochs, so each is converted once
    return read_jsonl(path, partial(_cert_record, epoch=from_epoch_memo()), MalformedRecord)


def write_cert_scan_export(path: str | Path, records: Iterable[CertScanRecord]) -> None:
    write_jsonl(path, ({
        "ip": r.ip, "port": r.port, "names": list(r.names),
        "validity": {"start": to_epoch(r.not_before), "end": to_epoch(r.not_after)},
        "observed_at": to_epoch(r.observed_at),
    } for r in records))


def _pdns_record(doc: dict, epoch: Callable) -> PassiveDnsRecord:
    return PassiveDnsRecord(
        rrname=doc["rrname"],
        rrtype=doc["rrtype"],
        rdata=doc["rdata"],
        first_seen=epoch(doc["time_first"]),
        last_seen=epoch(doc["time_last"]),
    )


def read_pdns_export(path: str | Path) -> Iterator[PassiveDnsRecord | MalformedRecord]:
    return read_jsonl(path, partial(_pdns_record, epoch=from_epoch_memo()), MalformedRecord)


def write_pdns_export(path: str | Path, records: Iterable[PassiveDnsRecord]) -> None:
    write_jsonl(path, ({
        "rrname": r.rrname, "rrtype": r.rrtype, "rdata": r.rdata,
        "time_first": to_epoch(r.first_seen), "time_last": to_epoch(r.last_seen),
    } for r in records))


def _resolution(doc: dict, epoch: Callable) -> ResolutionResult:
    return ResolutionResult(
        fqdn=doc["fqdn"],
        vantage_id=doc["vantage_id"],
        answers=tuple(doc["answers"]),
        resolved_at=epoch(doc["resolved_at"]),
        status=doc["status"],
    )


_RESOLUTION_CHECKS = {
    "fqdn": text, "vantage_id": text,
    "answers": lambda v: [canonical_ip(a) for a in texts(v)],
    "resolved_at": from_epoch, "status": text,
}


def read_resolutions(path: str | Path) -> Iterator[ResolutionResult]:
    return read_jsonl(path, naming_fields(partial(_resolution, epoch=from_epoch_memo()),
                                          _RESOLUTION_CHECKS))


def write_resolutions(path: str | Path, results: Iterable[ResolutionResult]) -> None:
    write_jsonl(path, ({
        "fqdn": r.fqdn, "vantage_id": r.vantage_id, "answers": list(r.answers),
        "resolved_at": to_epoch(r.resolved_at), "status": r.status,
    } for r in results))


def _observation(doc: dict) -> Observation:
    return Observation(
        provider_id=doc["provider_id"],
        fqdn=doc["fqdn"],
        ip=doc["ip"],
        source=doc["source"],
        seen_at=parse_iso(doc["seen_at"]),
        wildcard=bool(doc.get("wildcard", False)),
    )


_OBSERVATION_CHECKS = {
    "provider_id": text, "fqdn": text, "ip": canonical_ip, "source": text,
    "seen_at": lambda v: parse_iso(text(v)),
}


def read_observations(path: str | Path) -> Iterator[Observation]:
    return read_jsonl(path, naming_fields(_observation, _OBSERVATION_CHECKS))


def write_observations(path: str | Path, observations: Iterable[Observation],
                       sort: bool = False) -> None:
    rows = list(observations)
    if sort:
        rows.sort(key=Observation.sort_key)
    iso = fmt_iso_memo()  # the rows share a few distinct seen_at instants
    write_jsonl(path, ({
        "provider_id": o.provider_id, "fqdn": o.fqdn, "ip": o.ip,
        "source": o.source, "seen_at": iso(o.seen_at),
        "wildcard": o.wildcard,
    } for o in rows))
