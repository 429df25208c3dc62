"""Attribute sampled flow records to backend servers and compute traffic metrics.

Estimated volumes scale sampled bytes by the sampling rate. Attribution is
to dedicated servers only (shared ones are excluded by default), with an
optional per-provider port filter for providers whose gateways are
protocol-split. Scanner lines are detected per day by the number of
distinct backend IPs they contact and excluded by the caller before
computing population metrics.

Flow file formats:

  JSONL: {"ts": epoch, "line_id", "server_ip", "port", "transport",
          "direction": "downstream"|"upstream", "sampled_bytes",
          "sampled_packets", "sampling_rate"}

  Binary (``.bmf``): 8-byte header (magic ``BMFL``, u8 version=1, 3 reserved
  bytes), then fixed 64-byte little-endian records:
  u64 ts_epoch | 16s line_id (NUL-padded ASCII) | u8 family (4|6) |
  16s ip (network byte order, IPv4 in the first 4 bytes) | u16 port |
  u8 transport (6=tcp, 17=udp) | u8 direction (0=down, 1=up) |
  u64 sampled_bytes | u32 sampled_packets | u32 sampling_rate | 3 pad bytes.
"""

from __future__ import annotations

import bisect
import json
import math
import socket
import struct
from collections import defaultdict
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

from .catalog import ProviderProfile
from .footprint import BackendServer
from .geo import region_class
from .netutil import canonical_ip, ip_family
from .timeutil import from_epoch, local_date, to_epoch

DOWN = "downstream"
UP = "upstream"

DEFAULT_SCANNER_THRESHOLD = 100
ACTIVITY_SUPPRESSION_FLOOR = 15

_MAGIC = b"BMFL"
_REC = struct.Struct("<Q16sB16sHBBQII3x")


@dataclass(slots=True)
class FlowRecord:
    timestamp: datetime
    line_id: str
    server_ip: str
    server_port: int
    transport: str
    direction: str
    sampled_bytes: int
    sampled_packets: int
    sampling_rate: int

    def __post_init__(self) -> None:
        if self.sampling_rate < 1:
            raise ValueError("sampling_rate must be >= 1")
        if self.sampled_bytes < 0 or self.sampled_packets < 0:
            raise ValueError("sampled counters must be >= 0")
        if self.direction not in (DOWN, UP):
            raise ValueError(f"bad direction {self.direction!r}")
        if self.transport not in ("tcp", "udp"):
            raise ValueError(f"bad transport {self.transport!r}")


class ServerIndex:
    """Immutable attribution index from BackendServer records.

    Shared servers are excluded unless `include_shared` is set (the flagged
    alternative for visibility denominators). Providers with a dedicated
    port filter only attribute flows on those ports.
    """

    def __init__(
        self,
        servers: Iterable[BackendServer],
        profiles_by_id: Mapping[str, ProviderProfile] | None = None,
        include_shared: bool = False,
    ) -> None:
        profiles_by_id = profiles_by_id or {}
        self._by_ip: dict[str, tuple[str, frozenset | None]] = {}
        self.server_region: dict[str, str] = {}
        self.server_token: dict[str, str] = {}
        self.provider_servers: dict[str, set[str]] = defaultdict(set)
        self.provider_family_servers: dict[tuple[str, int], set[str]] = defaultdict(set)
        for s in servers:
            if s.sharing == "shared" and not include_shared:
                continue
            profile = profiles_by_id.get(s.provider_id)
            ports = profile.dedicated_ports() if profile is not None else None
            self._by_ip[s.ip] = (s.provider_id, ports)
            self.server_region[s.ip] = region_class(s.location)
            self.server_token[s.ip] = s.region_token or region_class(s.location)
            self.provider_servers[s.provider_id].add(s.ip)
            self.provider_family_servers[(s.provider_id, ip_family(s.ip))].add(s.ip)

    def attribute(self, ip: str, port: int, transport: str) -> str | None:
        entry = self._by_ip.get(ip)
        if entry is None:
            return None
        provider_id, ports = entry
        if ports is not None and (port, transport) not in ports:
            return None
        return provider_id

    @property
    def all_server_ips(self) -> set[str]:
        return set(self._by_ip)

    def __len__(self) -> int:
        return len(self._by_ip)


# --- scanner handling -------------------------------------------------------------


@dataclass(frozen=True)
class ScannerVerdict:
    line_id: str
    date: str
    distinct_backend_ips: int
    is_scanner: bool
    threshold_used: int


def line_contact_sets(
    flows: Iterable[FlowRecord],
    backend_ips: set[str],
    tz_name: str = "UTC",
) -> dict[tuple[str, str], set[str]]:
    """(line, local date) -> distinct backend server IPs contacted."""
    date_cache: dict[int, str] = {}
    out: dict[tuple[str, str], set[str]] = defaultdict(set)
    for f in flows:
        if f.server_ip not in backend_ips:
            continue
        epoch_hour = to_epoch(f.timestamp) // 3600
        date = date_cache.get(epoch_hour)
        if date is None:
            date = date_cache[epoch_hour] = local_date(f.timestamp, tz_name)
        out[(f.line_id, date)].add(f.server_ip)
    return out


def detect_scanners(
    contacts: Mapping[tuple[str, str], set[str]],
    threshold: int = DEFAULT_SCANNER_THRESHOLD,
) -> list[ScannerVerdict]:
    """A line hosts a scanner on a day iff it contacts strictly more than
    `threshold` distinct backend server IPs that day. `contacts` comes from
    `line_contact_sets`."""
    return [
        ScannerVerdict(
            line_id=line, date=date, distinct_backend_ips=len(ips),
            is_scanner=len(ips) > threshold, threshold_used=threshold,
        )
        for (line, date), ips in sorted(contacts.items())
    ]


def scanner_line_ids(verdicts: Iterable[ScannerVerdict]) -> set[str]:
    return {v.line_id for v in verdicts if v.is_scanner}


def exclude_scanner_lines(
    flows: Iterable[FlowRecord], scanners: set[str],
) -> Iterator[FlowRecord]:
    return (f for f in flows if f.line_id not in scanners)


@dataclass(frozen=True)
class SweepPoint:
    threshold: int
    visible_server_fraction: float
    scanner_line_count: int


def threshold_sweep(
    contacts: Mapping[tuple[str, str], set[str]],
    backend_ips: set[str],
    thresholds: Sequence[int],
) -> list[SweepPoint]:
    """Visibility and scanner count per candidate threshold over one day.

    `contacts` comes from `line_contact_sets` over the same `backend_ips`.
    Visibility at threshold t = |union of server IPs contacted by lines
    with per-day breadth <= t| / |backend_ips|. Lines are folded in breadth
    order so the whole sweep costs one pass over the contact sets.
    """
    if not backend_ips:
        raise ValueError("backend_ips must be non-empty")
    per_line: dict[str, set[str]] = defaultdict(set)
    breadth: dict[str, int] = {}
    for (line, _date), ips in contacts.items():
        per_line[line] |= ips
    for (line, _date), ips in contacts.items():
        breadth[line] = max(breadth.get(line, 0), len(ips))
    order = sorted(per_line, key=lambda ln: breadth[ln])
    points: list[SweepPoint] = []
    visible: set[str] = set()
    idx = 0
    for t in sorted(thresholds):
        while idx < len(order) and breadth[order[idx]] <= t:
            visible |= per_line[order[idx]]
            idx += 1
        scanners = len(order) - idx
        points.append(SweepPoint(
            threshold=t,
            visible_server_fraction=len(visible) / len(backend_ips),
            scanner_line_count=scanners,
        ))
    return points


# --- single-pass aggregation --------------------------------------------------------


@dataclass
class FlowAggregate:
    """Aggregates of one pass over attributed flows.

    Hour keys are epoch hours (ints); conversion to datetimes happens at
    report emission.
    """

    tz_name: str = "UTC"
    provider_hour_down: dict = field(default_factory=lambda: defaultdict(int))
    provider_hour_up: dict = field(default_factory=lambda: defaultdict(int))
    provider_hour_lines: dict = field(default_factory=lambda: defaultdict(set))
    provider_region_hour_down: dict = field(default_factory=lambda: defaultdict(int))
    provider_down: dict = field(default_factory=lambda: defaultdict(int))
    provider_up: dict = field(default_factory=lambda: defaultdict(int))
    provider_port_bytes: dict = field(default_factory=lambda: defaultdict(int))
    provider_contacted: dict = field(default_factory=lambda: defaultdict(set))
    provider_lines_full: dict = field(default_factory=lambda: defaultdict(set))
    provider_lines_cert: dict = field(default_factory=lambda: defaultdict(set))
    line_regions: dict = field(default_factory=lambda: defaultdict(set))
    region_bytes: dict = field(default_factory=lambda: defaultdict(int))
    line_day: dict = field(default_factory=dict)
    attributed_records: int = 0
    unattributed_records: int = 0


def aggregate_flows(
    flows: Iterable[FlowRecord],
    index: ServerIndex,
    tz_name: str = "UTC",
    cert_ips: set[str] | None = None,
) -> FlowAggregate:
    """One pass over (already scanner-filtered) flows.

    `cert_ips` marks servers discoverable from certificate scans alone and
    feeds the source-ablation numbers.
    """
    agg = FlowAggregate(tz_name=tz_name)
    cert_ips = cert_ips or set()
    date_cache: dict[int, str] = {}
    for f in flows:
        pid = index.attribute(f.server_ip, f.server_port, f.transport)
        if pid is None:
            agg.unattributed_records += 1
            continue
        agg.attributed_records += 1
        est = f.sampled_bytes * f.sampling_rate
        epoch = to_epoch(f.timestamp)
        hour = epoch // 3600
        date = date_cache.get(hour)
        if date is None:
            date = date_cache[hour] = local_date(f.timestamp, tz_name)
        down = f.direction == DOWN

        if down:
            agg.provider_hour_down[(pid, hour)] += est
            agg.provider_down[pid] += est
            agg.provider_region_hour_down[
                (pid, index.server_token[f.server_ip], hour)] += est
        else:
            agg.provider_hour_up[(pid, hour)] += est
            agg.provider_up[pid] += est
        agg.provider_hour_lines[(pid, hour)].add(f.line_id)
        agg.provider_port_bytes[(pid, f.server_port, f.transport)] += est
        agg.provider_contacted[(pid, ip_family(f.server_ip))].add(f.server_ip)
        agg.provider_lines_full[pid].add(f.line_id)
        if f.server_ip in cert_ips:
            agg.provider_lines_cert[pid].add(f.line_id)
        region = index.server_region[f.server_ip]
        agg.line_regions[f.line_id].add(region)
        agg.region_bytes[region] += est

        slot = agg.line_day.get((f.line_id, date))
        if slot is None:
            slot = agg.line_day[(f.line_id, date)] = [set(), {}, {}]
        slot[0].add(f.server_ip)
        d, u = slot[1].get(pid, (0, 0))
        slot[1][pid] = (d + est, u) if down else (d, u + est)
        pkey = (f.server_port, f.transport)
        d, u = slot[2].get(pkey, (0, 0))
        slot[2][pkey] = (d + est, u) if down else (d, u + est)
    return agg


# --- derived metrics ------------------------------------------------------------------


@dataclass(frozen=True)
class LineDayProfile:
    line_id: str
    date: str
    distinct_backend_ips: int
    per_provider: Mapping[str, tuple[int, int]]  # pid -> (down, up) estimated bytes
    per_port: Mapping[tuple[int, str], tuple[int, int]]


def line_day_profiles(agg: FlowAggregate) -> list[LineDayProfile]:
    return [
        LineDayProfile(
            line_id=line, date=date, distinct_backend_ips=len(slot[0]),
            per_provider=dict(slot[1]), per_port=dict(slot[2]),
        )
        for (line, date), slot in sorted(agg.line_day.items())
    ]


def visibility_per_provider(
    agg: FlowAggregate, index: ServerIndex,
) -> dict[tuple[str, int], float]:
    """Contacted fraction of each provider's servers, per address family."""
    out = {}
    for (pid, family), servers in sorted(index.provider_family_servers.items()):
        contacted = agg.provider_contacted.get((pid, family), set())
        out[(pid, family)] = len(contacted & servers) / len(servers) if servers else 0.0
    return out


def source_ablation(agg: FlowAggregate) -> dict[str, float]:
    """Percent decrease in active lines per provider when only
    certificate-discovered servers are considered."""
    out = {}
    for pid in sorted(agg.provider_lines_full):
        full = len(agg.provider_lines_full[pid])
        restricted = len(agg.provider_lines_cert.get(pid, set()))
        out[pid] = 100.0 * (1.0 - restricted / full) if full else 0.0
    return out


def activity_series(agg: FlowAggregate) -> dict[str, list[tuple[datetime, int]]]:
    """Hourly distinct active line counts per provider (unsuppressed)."""
    series: dict[str, list[tuple[datetime, int]]] = defaultdict(list)
    for (pid, hour), lines in sorted(agg.provider_hour_lines.items()):
        series[pid].append((from_epoch(hour * 3600), len(lines)))
    return dict(series)


def suppress_low_counts(
    series: list[tuple[datetime, int]], floor: int = ACTIVITY_SUPPRESSION_FLOOR,
) -> list[tuple[datetime, int]]:
    """Drop emitted buckets with positive counts under the privacy floor."""
    return [(ts, n) for ts, n in series if n == 0 or n >= floor]


@dataclass(frozen=True)
class RatioResult:
    value: float
    undefined: bool = False  # upstream total was zero


@dataclass(frozen=True)
class TrafficSummary:
    raw_down_series: Mapping[str, list[tuple[datetime, int]]]
    normalized_down_series: Mapping[str, list[tuple[datetime, float]]]
    down_up_ratio: Mapping[str, RatioResult]


def traffic_series_and_ratio(agg: FlowAggregate) -> TrafficSummary:
    """Per-provider downstream series normalized by each provider's peak,
    plus the window-level downstream/upstream ratio."""
    raw: dict[str, list[tuple[datetime, int]]] = defaultdict(list)
    for (pid, hour), est in sorted(agg.provider_hour_down.items()):
        raw[pid].append((from_epoch(hour * 3600), est))
    normalized = {}
    for pid, series in raw.items():
        peak = max((v for _, v in series), default=0)
        normalized[pid] = [(ts, v / peak if peak else 0.0) for ts, v in series]
    ratios = {}
    providers = set(agg.provider_down) | set(agg.provider_up)
    for pid in sorted(providers):
        down = agg.provider_down.get(pid, 0)
        up = agg.provider_up.get(pid, 0)
        if up == 0:
            ratios[pid] = RatioResult(value=math.inf, undefined=True)
        else:
            ratios[pid] = RatioResult(value=down / up)
    return TrafficSummary(raw_down_series=dict(raw),
                          normalized_down_series=normalized,
                          down_up_ratio=ratios)


def regional_down_series(
    agg: FlowAggregate, normalize: bool = True,
) -> dict[tuple[str, str], list[tuple[datetime, float]]]:
    """Per (provider, region-token) hourly downstream series for outage
    scanning, optionally peak-normalized per series."""
    raw: dict[tuple[str, str], list[tuple[datetime, float]]] = defaultdict(list)
    for (pid, token, hour), est in sorted(agg.provider_region_hour_down.items()):
        raw[(pid, token)].append((from_epoch(hour * 3600), float(est)))
    if not normalize:
        return dict(raw)
    out = {}
    for key, series in raw.items():
        peak = max((v for _, v in series), default=0.0)
        out[key] = [(ts, v / peak if peak else 0.0) for ts, v in series]
    return out


_DEFAULT_PORT_LABELS = {
    (1883, "tcp"): "mqtt",
    (8883, "tcp"): "mqtt-tls",
    (80, "tcp"): "http",
    (443, "tcp"): "https",
    (8443, "tcp"): "https-alt",
    (8943, "tcp"): "https-alt",
    (5671, "tcp"): "amqps",
    (61616, "tcp"): "activemq",
}
_COAP_PORTS = range(5682, 5687)


def port_label(port: int, transport: str,
               profile: ProviderProfile | None = None) -> str:
    if profile is not None:
        for name, doc_port, doc_transport in profile.documented_protocols:
            if doc_port == port and doc_transport == transport:
                return name.lower()
    if (port, transport) in _DEFAULT_PORT_LABELS:
        return _DEFAULT_PORT_LABELS[(port, transport)]
    if port in _COAP_PORTS:
        return "coap"
    if transport == "udp" and port > 10000:
        return "udp-high"
    return f"{transport}/{port}"


@dataclass(frozen=True)
class PortShare:
    port: int | None  # None for the bucketed udp-high entry
    transport: str
    label: str
    share: float


def port_mix(
    agg: FlowAggregate,
    profiles_by_id: Mapping[str, ProviderProfile] | None = None,
) -> dict[str, list[PortShare]]:
    """Estimated-byte share per (port, transport) per provider; unlabeled
    high UDP ports collapse into one 'udp-high' bucket."""
    profiles_by_id = profiles_by_id or {}
    per_provider: dict[str, dict[tuple, int]] = defaultdict(lambda: defaultdict(int))
    for (pid, port, transport), est in agg.provider_port_bytes.items():
        label = port_label(port, transport, profiles_by_id.get(pid))
        key = (None, "udp", "udp-high") if label == "udp-high" else (port, transport, label)
        per_provider[pid][key] += est
    out: dict[str, list[PortShare]] = {}
    for pid, buckets in sorted(per_provider.items()):
        total = sum(buckets.values())
        rows = [
            PortShare(port=port, transport=transport, label=label,
                      share=est / total if total else 0.0)
            for (port, transport, label), est in buckets.items()
        ]
        rows.sort(key=lambda r: (-r.share, r.label, r.port or 0))
        out[pid] = rows
    return out


# --- per-line daily distributions -------------------------------------------------------


@dataclass(frozen=True)
class Ecdf:
    """Empirical CDF over per-line daily byte estimates."""

    values: tuple[int, ...]  # sorted ascending

    @property
    def is_empty(self) -> bool:
        return not self.values

    def quantile(self, q: float) -> int:
        if not 0 < q <= 1:
            raise ValueError("q must be in (0, 1]")
        if self.is_empty:
            raise ValueError("quantile of empty distribution")
        idx = max(0, math.ceil(q * len(self.values)) - 1)
        return self.values[idx]

    def fraction_at_most(self, x: float) -> float:
        if self.is_empty:
            return 0.0
        return bisect.bisect_right(self.values, x) / len(self.values)

    def points(self) -> list[tuple[int, float]]:
        n = len(self.values)
        return [(v, (i + 1) / n) for i, v in enumerate(self.values)]


def per_line_distribution(
    profiles: Iterable[LineDayProfile],
    group_by: str = "all",
    direction: str = "down",
) -> dict[Hashable, Ecdf]:
    """ECDFs of estimated daily bytes per subscriber line.

    group_by: 'all' (one distribution), 'provider' or 'port'. Direction
    'down', 'up' or 'both'. Groups that attracted no bytes at all come back
    as empty ECDFs (explicit marker) rather than being dropped.
    """
    if group_by not in ("all", "provider", "port"):
        raise ValueError(f"bad group_by {group_by!r}")
    if direction not in ("down", "up", "both"):
        raise ValueError(f"bad direction {direction!r}")

    def pick(pair: tuple[int, int]) -> int:
        if direction == "down":
            return pair[0]
        if direction == "up":
            return pair[1]
        return pair[0] + pair[1]

    groups: dict[Hashable, list[int]] = defaultdict(list)
    for prof in profiles:
        if group_by == "all":
            groups["all"].append(sum(pick(v) for v in prof.per_provider.values()))
        elif group_by == "provider":
            for pid, pair in prof.per_provider.items():
                groups[pid].append(pick(pair))
        else:
            for pkey, pair in prof.per_port.items():
                groups[pkey].append(pick(pair))
    return {k: Ecdf(values=tuple(sorted(v))) for k, v in groups.items()}


# --- cross-border attribution ---------------------------------------------------------------


LINE_CATEGORIES = ("EU-only", "US-only", "EU+US", "Asia-only", "Other", "Mixed")


@dataclass(frozen=True)
class ContinentReport:
    line_category_shares: Mapping[str, float]
    line_category_counts: Mapping[str, int]
    traffic_share: Mapping[str, float]
    server_share: Mapping[str, float]


def continent_attribution(agg: FlowAggregate, index: ServerIndex) -> ContinentReport:
    """Classify lines by the server regions they touch; share out estimated
    bytes and the server population by region."""
    counts = {cat: 0 for cat in LINE_CATEGORIES}
    for _line, regions in agg.line_regions.items():
        if regions == {"EU"}:
            cat = "EU-only"
        elif regions == {"US"}:
            cat = "US-only"
        elif regions == {"EU", "US"}:
            cat = "EU+US"
        elif regions == {"Asia"}:
            cat = "Asia-only"
        elif regions == {"Other"}:
            cat = "Other"
        else:
            cat = "Mixed"
        counts[cat] += 1
    total_lines = sum(counts.values())
    shares = {cat: (n / total_lines if total_lines else 0.0) for cat, n in counts.items()}

    total_bytes = sum(agg.region_bytes.values())
    traffic = {region: (v / total_bytes if total_bytes else 0.0)
               for region, v in sorted(agg.region_bytes.items())}

    region_servers: dict[str, int] = defaultdict(int)
    for _ip, region in index.server_region.items():
        region_servers[region] += 1
    total_servers = sum(region_servers.values())
    servers = {region: (n / total_servers if total_servers else 0.0)
               for region, n in sorted(region_servers.items())}
    return ContinentReport(
        line_category_shares=shares, line_category_counts=counts,
        traffic_share=traffic, server_share=servers,
    )


# --- flow file I/O ----------------------------------------------------------------------------


def read_flows_jsonl(path: str | Path) -> Iterator[FlowRecord]:
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            doc = json.loads(line)
            yield FlowRecord(
                timestamp=from_epoch(doc["ts"]),
                line_id=doc["line_id"],
                server_ip=canonical_ip(doc["server_ip"]),
                server_port=int(doc["port"]),
                transport=doc["transport"],
                direction=doc["direction"],
                sampled_bytes=int(doc["sampled_bytes"]),
                sampled_packets=int(doc["sampled_packets"]),
                sampling_rate=int(doc["sampling_rate"]),
            )


def write_flows_jsonl(path: str | Path, flows: Iterable[FlowRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for f in flows:
            fh.write(json.dumps({
                "ts": to_epoch(f.timestamp), "line_id": f.line_id,
                "server_ip": f.server_ip, "port": f.server_port,
                "transport": f.transport, "direction": f.direction,
                "sampled_bytes": f.sampled_bytes,
                "sampled_packets": f.sampled_packets,
                "sampling_rate": f.sampling_rate,
            }) + "\n")


def _pack_ip(ip: str) -> tuple[int, bytes]:
    if ":" in ip:
        return 6, socket.inet_pton(socket.AF_INET6, ip)
    return 4, socket.inet_pton(socket.AF_INET, ip).ljust(16, b"\x00")


def _unpack_ip(family: int, raw: bytes) -> str:
    if family == 6:
        return socket.inet_ntop(socket.AF_INET6, raw)
    return socket.inet_ntop(socket.AF_INET, raw[:4])


def write_flows_binary(path: str | Path, flows: Iterable[FlowRecord]) -> int:
    """Write the compact fixed-width format; returns the record count.

    Line ids are limited to 16 ASCII bytes; longer ids would truncate and
    could collide, so they are rejected.
    """
    count = 0
    with open(path, "wb") as fh:
        fh.write(_MAGIC + bytes([1, 0, 0, 0]))
        pack = _REC.pack
        for f in flows:
            line_raw = f.line_id.encode("ascii")
            if len(line_raw) > 16:
                raise ValueError(f"line_id too long for binary format: {f.line_id!r}")
            family, ip_raw = _pack_ip(f.server_ip)
            fh.write(pack(
                to_epoch(f.timestamp),
                line_raw.ljust(16, b"\x00"),
                family, ip_raw, f.server_port,
                6 if f.transport == "tcp" else 17,
                0 if f.direction == DOWN else 1,
                f.sampled_bytes, f.sampled_packets, f.sampling_rate,
            ))
            count += 1
    return count


def read_flows_binary(path: str | Path) -> Iterator[FlowRecord]:
    with open(path, "rb") as fh:
        header = fh.read(8)
        if header[:4] != _MAGIC:
            raise ValueError(f"{path}: not a binary flow file")
        if header[4] != 1:
            raise ValueError(f"{path}: unsupported version {header[4]}")
        unpack = _REC.unpack
        size = _REC.size
        while True:
            chunk = fh.read(size * 4096)
            if not chunk:
                break
            if len(chunk) % size:
                raise ValueError(f"{path}: truncated record")
            for off in range(0, len(chunk), size):
                (ts, line_raw, family, ip_raw, port, proto, direction,
                 sampled_bytes, sampled_packets, rate) = unpack(chunk[off:off + size])
                yield FlowRecord(
                    timestamp=from_epoch(ts),
                    line_id=line_raw.rstrip(b"\x00").decode("ascii"),
                    server_ip=_unpack_ip(family, ip_raw),
                    server_port=port,
                    transport="tcp" if proto == 6 else "udp",
                    direction=DOWN if direction == 0 else UP,
                    sampled_bytes=sampled_bytes,
                    sampled_packets=sampled_packets,
                    sampling_rate=rate,
                )


def read_flows(path: str | Path) -> Iterator[FlowRecord]:
    """Auto-detect the flow file format by magic bytes."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == _MAGIC:
        return read_flows_binary(path)
    return read_flows_jsonl(path)
