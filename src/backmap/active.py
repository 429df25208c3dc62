"""Live probes: UDP DNS resolution against vantage resolvers and TLS
certificate collection from supplied targets. Only the `discover resolve`
and `discover tls` commands import this module, so a pipeline run loads
neither `ssl` nor a thread pool."""

from __future__ import annotations

import socket
import ssl
import struct
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime
from typing import Iterable, Sequence

from .catalog import normalize_fqdn
from .ingest import CertScanRecord, ResolutionResult
from .netutil import canonical_ip
from .timeutil import UTC, to_epoch

# Ethics floor: live resolvers are never queried faster than this unless the
# caller passes the explicit unsafe override (test fixtures only).
MIN_RESOLVER_PACING = 10.0

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
    except OSError:  # TimeoutError included
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

    def run_vantage(endpoint: ResolverEndpoint) -> list[ResolutionResult]:
        results, last_query = [], 0.0
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
            # with no answer, the worst status any qtype got
            status = "ok" if answers else next(
                (s for s in ("servfail", "timeout") if s in statuses), "nxdomain")
            results.append(ResolutionResult(
                fqdn=name,
                vantage_id=endpoint.vantage_id,
                answers=tuple(dict.fromkeys(answers)),
                resolved_at=to_epoch(now or datetime.now(tz=UTC)),
                status=status,
            ))
        return results

    with ThreadPoolExecutor(max_workers=len(vantages)) as pool:
        per_vantage = list(pool.map(run_vantage, vantages))
    return sorted((r for rs in per_vantage for r in rs), key=lambda r: (r.vantage_id, r.fqdn))


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


def _extract_names(der: bytes) -> tuple[tuple[str, ...], int, int]:
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
    return deduped, to_epoch(cert.not_valid_before_utc), to_epoch(cert.not_valid_after_utc)


def _probe_tls(target: TlsTarget, timeout: float, now: int) -> TlsProbeResult:
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_CLIENT)
    context.check_hostname = False
    context.verify_mode = ssl.CERT_NONE
    try:
        with socket.create_connection((target.ip, target.port), timeout=timeout) as raw:
            with context.wrap_socket(raw, server_hostname=target.sni) as tls:
                der = tls.getpeercert(binary_form=True)
    except ConnectionRefusedError:
        return TlsProbeResult(target, failure="refused")
    except TimeoutError:
        return TlsProbeResult(target, failure="timeout")
    except ssl.SSLError:
        return TlsProbeResult(target, failure="handshake-failure")
    except OSError:
        return TlsProbeResult(target, failure="unreachable")
    if not der:
        return TlsProbeResult(target, failure="handshake-failure")
    names, not_before, not_after = _extract_names(der)
    record = CertScanRecord(
        ip=canonical_ip(target.ip), port=target.port, names=names,
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
    when = to_epoch(now or datetime.now(tz=UTC))
    if not targets:
        return []
    with ThreadPoolExecutor(max_workers=max(1, min(max_inflight, len(targets)))) as pool:
        return list(pool.map(lambda t: _probe_tls(t, timeout, when), targets))
