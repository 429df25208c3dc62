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

Both readers raise ValueError for a bad record, with a message that starts
``<path>:<line or record number>:`` and names the field.
"""

from __future__ import annotations

import bisect
import math
import socket
import struct
from collections import defaultdict
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import Callable, Hashable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .catalog import ProviderProfile
from .footprint import BackendServer
from .geo import region_class
from .jsonl import read_jsonl, write_jsonl
from .netutil import canonical_ip, ip_family
from .timeutil import LocalDays, from_epoch

DOWN = "downstream"
UP = "upstream"

DEFAULT_SCANNER_THRESHOLD = 100
ACTIVITY_SUPPRESSION_FLOOR = 15

_MAGIC = b"BMFL"
# the family byte and the address are read as one 17-byte field, so one dict
# lookup decodes both
_REC = struct.Struct("<Q16s17sHBBQII3x")
_TRANSPORT_CODES = {"tcp": 6, "udp": 17}
_TRANSPORTS = {code: name for name, code in _TRANSPORT_CODES.items()}
_DIRECTION_CODES = {DOWN: 0, UP: 1}
_DIRECTIONS = {code: name for name, code in _DIRECTION_CODES.items()}


class FlowRecord(NamedTuple):
    """One sampled flow record.

    A plain tuple: the readers validate each record before they build it
    (`_check` for JSONL, `_checked_keys` for `.bmf`), so building one runs
    no code. The flow passes read a `.bmf` file as rows and build none.
    """

    ts: int  # epoch seconds
    line_id: str
    server_ip: str
    server_port: int
    transport: str
    direction: str
    sampled_bytes: int
    sampled_packets: int
    sampling_rate: int


class ServerFacts(NamedTuple):
    """What aggregation needs to know about one attributable server."""

    provider_id: str
    ports: frozenset | None  # dedicated (port, transport) pairs; None = any
    token: str  # region token, or the region class when the server has none
    region: str  # region class
    family: int


class ServerIndex:
    """Immutable attribution index from BackendServer records.

    Shared servers are excluded unless `include_shared` is set (the flagged
    alternative for visibility denominators). Providers with a dedicated
    port filter only attribute flows on those ports. Each server's facts
    are computed once here, so aggregation does one lookup per record.
    """

    def __init__(
        self,
        servers: Iterable[BackendServer],
        profiles_by_id: Mapping[str, ProviderProfile] | None = None,
        include_shared: bool = False,
    ) -> None:
        profiles_by_id = profiles_by_id or {}
        self.facts: dict[str, ServerFacts] = {}
        self.provider_family_servers: dict[tuple[str, int], set[str]] = defaultdict(set)
        for s in servers:
            if s.sharing == "shared" and not include_shared:
                continue
            profile = profiles_by_id.get(s.provider_id)
            ports = profile.dedicated_ports() if profile is not None else None
            region = region_class(s.location)
            family = ip_family(s.ip)
            self.facts[s.ip] = ServerFacts(
                s.provider_id, ports, s.region_token or region, region, family)
            self.provider_family_servers[(s.provider_id, family)].add(s.ip)

    def attribute(self, ip: str, port: int, transport: str) -> str | None:
        facts = self.facts.get(ip)
        if facts is None:
            return None
        if facts.ports is not None and (port, transport) not in facts.ports:
            return None
        return facts.provider_id

    @property
    def all_server_ips(self) -> set[str]:
        return set(self.facts)

    def __len__(self) -> int:
        return len(self.facts)


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
    """(line, local date) -> distinct backend server IPs contacted.

    Every row is checked (see `_row_source`); a line or address key is
    decoded on its first sight only, and an address key is kept as its
    backend IP, or "" for any other address.
    """
    batches, line_of, addr_of, skip = _row_source(flows)
    days = LocalDays(tz_name)
    out: dict[tuple[str, str], set[str]] = defaultdict(set)
    lines: dict = {}
    backend: dict = {}
    lines_get, backend_get = lines.get, backend.get

    def first_sight(line_key, addr_key, proto: int, direction: int, rate: int) -> tuple:
        line, ip = _checked_keys(line_key, addr_key, proto, direction, rate, line_of, addr_of)
        line = lines[line_key] = _SKIP if line in skip else line
        ip = backend[addr_key] = ip if ip in backend_ips else ""
        return line, ip

    day, start, end = "", 0, 0
    today: dict = {}  # line key -> its contact set for `day`
    today_get = today.get
    try:
        for rows in batches:
            for ts, line_key, addr_key, _port, proto, direction, _bytes, _packets, rate in rows:
                line = lines_get(line_key)
                ip = backend_get(addr_key)
                if (line is None or ip is None or rate < 1 or direction not in _DIRECTIONS
                        or proto not in _TRANSPORTS):
                    line, ip = first_sight(line_key, addr_key, proto, direction, rate)
                if ip and line is not _SKIP:
                    if not start <= ts < end:
                        day, start, end = _day(days, ts)
                        today.clear()
                    ips = today_get(line_key)
                    if ips is None:
                        ips = today[line_key] = out[(line, day)]
                    ips.add(ip)
    except ValueError:
        _locate(flows)
        raise
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
) -> Iterable[FlowRecord]:
    """`flows` without the scanner lines' records. A FlowFile stays one, so
    the flow passes still read its rows; they skip those lines by line key."""
    if isinstance(flows, FlowFile):
        return flows.excluding(scanners)
    return (f for f in flows if f[1] not in scanners)


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

    Rows are checked as `line_contact_sets` checks them; the rows of lines
    a FlowFile excludes are checked and skipped. Attribution depends only
    on a row's (address, port, transport), so it is decided once per
    distinct key triple. A row then updates three accumulators: the
    downstream bytes per (provider, region token, hour) or the upstream
    bytes per (provider, hour), the lines per (provider, hour), and the
    [down, up] bytes per (line, local day, triple). Every other field is
    rolled up from those once at the end, in the same key order a
    record-by-record pass would give.
    """
    batches, line_of, addr_of, skip = _row_source(flows)
    cert_ips = cert_ips or set()
    days = LocalDays(tz_name)
    attribute, facts = index.attribute, index.facts
    # (provider, ip, (port, transport), family, region, cert) per attributed
    # triple, in first-row order; a triple's id is its position here
    attributions: list[tuple] = []
    triples: dict[tuple, tuple] = {}  # (address key, port, proto) -> decide()
    lines: dict = {}
    addrs: dict = {}
    lines_get, triples_get = lines.get, triples.get

    def decide(ip: str, port: int, transport: str) -> tuple:
        """(provider, region token, triple id), or () when unattributed."""
        pid = attribute(ip, port, transport)
        if pid is None:
            return ()
        _pid, _ports, token, region, family = facts[ip]
        attributions.append((pid, ip, (port, transport), family, region, ip in cert_ips))
        return (pid, token, len(attributions) - 1)

    def first_sight(line_key, addr_key, port: int, proto: int, direction: int,
                    rate: int) -> tuple:
        """(line, attribution) of a row the inline test let through; an
        excluded line's rows get no attribution, so they decide nothing."""
        line, ip = _checked_keys(line_key, addr_key, proto, direction, rate, line_of, addr_of)
        line = lines[line_key] = _SKIP if line in skip else line
        addrs[addr_key] = ip
        if line is _SKIP:
            return line, None
        attribution = triples_get((addr_key, port, proto))
        if attribution is None:
            attribution = triples[(addr_key, port, proto)] = decide(ip, port, _TRANSPORTS[proto])
        return line, attribution

    region_hour_down: dict[tuple[str, str, int], int] = defaultdict(int)
    hour_up: dict[tuple[str, int], int] = defaultdict(int)
    hour_lines: dict[tuple[str, int], set[str]] = defaultdict(set)
    line_days: dict[tuple[str, str], dict[int, list[int]]] = {}
    today: dict = {}  # line key -> its line_days slot for `day`
    today_get = today.get
    attributed = unattributed = 0
    day, start, end = "", 0, 0
    try:
        for rows in batches:
            for ts, line_key, addr_key, port, proto, direction, sampled_bytes, _packets, rate \
                    in rows:
                line = lines_get(line_key)
                if line is _SKIP:
                    if (addr_key not in addrs or rate < 1 or direction not in _DIRECTIONS
                            or proto not in _TRANSPORTS):
                        first_sight(line_key, addr_key, port, proto, direction, rate)
                    continue
                attribution = triples_get((addr_key, port, proto))
                if (line is None or attribution is None or rate < 1
                        or direction not in _DIRECTIONS):
                    line, attribution = first_sight(line_key, addr_key, port, proto,
                                                    direction, rate)
                    if line is _SKIP:
                        continue
                if not attribution:
                    unattributed += 1
                    continue
                pid, token, triple = attribution
                attributed += 1
                est = sampled_bytes * rate
                hour = ts // 3600
                if not start <= ts < end:
                    day, start, end = _day(days, ts)
                    today.clear()
                slot = today_get(line_key)
                if slot is None:
                    slot = today[line_key] = line_days.setdefault((line, day), {})
                pair = slot.get(triple)
                if pair is None:
                    pair = slot[triple] = [0, 0]
                pair[direction] += est
                if direction:
                    hour_up[(pid, hour)] += est
                else:
                    region_hour_down[(pid, token, hour)] += est
                hour_lines[(pid, hour)].add(line)
    except ValueError:
        _locate(flows)
        raise
    # the key caches go before the rollup, where the pass holds the most
    for cache in (lines, addrs, triples, today):
        cache.clear()

    agg = FlowAggregate(tz_name=tz_name, provider_hour_up=hour_up,
                        provider_hour_lines=hour_lines,
                        provider_region_hour_down=region_hour_down)
    agg.attributed_records = attributed
    agg.unattributed_records = unattributed
    _rollup(agg, attributions, line_days)
    return agg


def _rollup(agg: FlowAggregate, attributions: list[tuple],
            line_days: dict[tuple[str, str], dict[int, list[int]]]) -> None:
    """Fill the fields of `agg` that `aggregate_flows` does not keep per
    record. A key's first record is the first record of the earliest hour
    key, triple or (line, day) key that rolls up into it, and those are all
    stored in first-record order, so each dict gets its keys in the order
    a record-by-record pass would insert them."""
    for (pid, _token, hour), est in agg.provider_region_hour_down.items():
        agg.provider_hour_down[(pid, hour)] += est
        agg.provider_down[pid] += est
    for (pid, _hour), est in agg.provider_hour_up.items():
        agg.provider_up[pid] += est

    per_triple = [[0, 0, set()] for _ in attributions]  # down, up, lines
    for (line, day), slot in line_days.items():
        ips: set[str] = set()
        per_provider: dict[str, tuple[int, int]] = {}
        per_port: dict[tuple[int, str], tuple[int, int]] = {}
        regions = agg.line_regions[line]
        for triple, (down, up) in slot.items():
            pid, ip, pkey, _family, region, _cert = attributions[triple]
            ips.add(ip)
            d, u = per_provider.get(pid, (0, 0))
            per_provider[pid] = (d + down, u + up)
            d, u = per_port.get(pkey, (0, 0))
            per_port[pkey] = (d + down, u + up)
            regions.add(region)
            acc = per_triple[triple]
            acc[0] += down
            acc[1] += up
            acc[2].add(line)
        agg.line_day[(line, day)] = [ips, per_provider, per_port]
    for (pid, ip, (port, transport), family, region, cert), (down, up, lines) in zip(
            attributions, per_triple):
        agg.provider_port_bytes[(pid, port, transport)] += down + up
        agg.provider_contacted[(pid, family)].add(ip)
        agg.provider_lines_full[pid] |= lines
        if cert:
            agg.provider_lines_cert[pid] |= lines
        agg.region_bytes[region] += down + up


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
    for facts in index.facts.values():
        region_servers[facts.region] += 1
    total_servers = sum(region_servers.values())
    servers = {region: (n / total_servers if total_servers else 0.0)
               for region, n in sorted(region_servers.items())}
    return ContinentReport(
        line_category_shares=shares, line_category_counts=counts,
        traffic_share=traffic, server_share=servers,
    )


# --- flow file I/O ----------------------------------------------------------------------------


_JSON_FIELDS = (
    ("ts", int), ("line_id", str), ("server_ip", canonical_ip), ("port", int),
    ("transport", str), ("direction", str), ("sampled_bytes", int),
    ("sampled_packets", int), ("sampling_rate", int),
)


def _check_ts(ts: int) -> None:
    """Raise ValueError for epoch seconds that some timezone gives no local
    day (see LocalDays.MIN_TS)."""
    if not LocalDays.MIN_TS <= ts <= LocalDays.MAX_TS:
        raise ValueError(f"field 'ts': {ts} is out of range")


def _check(rec: FlowRecord) -> None:
    """Raise ValueError for a record whose values no flow can have."""
    ts, _line, _ip, _port, transport, direction, sampled_bytes, sampled_packets, rate = rec
    _check_ts(ts)
    if rate < 1:
        raise ValueError("sampling_rate must be >= 1")
    if sampled_bytes < 0 or sampled_packets < 0:
        raise ValueError("sampled_bytes and sampled_packets must be >= 0")
    if direction not in (DOWN, UP):
        raise ValueError(f"bad direction {direction!r}")
    if transport not in ("tcp", "udp"):
        raise ValueError(f"bad transport {transport!r}")


def _flow_from_json(doc: dict) -> FlowRecord:
    values = []
    for name, parse in _JSON_FIELDS:
        try:
            values.append(parse(doc[name]))
        except (AttributeError, TypeError, ValueError) as exc:
            raise ValueError(f"field {name!r}: {exc}") from None
    rec = tuple.__new__(FlowRecord, values)
    _check(rec)
    return rec


def read_flows_jsonl(path: str | Path) -> Iterator[FlowRecord]:
    return read_jsonl(path, _flow_from_json)


def write_flows_jsonl(path: str | Path, flows: Iterable[FlowRecord]) -> None:
    write_jsonl(path, ({
        "ts": f.ts, "line_id": f.line_id,
        "server_ip": f.server_ip, "port": f.server_port,
        "transport": f.transport, "direction": f.direction,
        "sampled_bytes": f.sampled_bytes,
        "sampled_packets": f.sampled_packets,
        "sampling_rate": f.sampling_rate,
    } for f in flows))


def _pack_ip(ip: str) -> bytes:
    """The family byte followed by the 16-byte address field."""
    if ":" in ip:
        return b"\x06" + socket.inet_pton(socket.AF_INET6, ip)
    return b"\x04" + socket.inet_pton(socket.AF_INET, ip).ljust(16, b"\x00")


def _unpack_line(raw: bytes) -> str:
    try:
        return raw.rstrip(b"\x00").decode("ascii")
    except UnicodeDecodeError as exc:
        raise ValueError(f"line_id: {exc}") from None


def _unpack_ip(raw: bytes) -> str:
    """Inverse of `_pack_ip`."""
    if raw[0] == 6:
        return socket.inet_ntop(socket.AF_INET6, raw[1:])
    if raw[0] == 4:
        return socket.inet_ntop(socket.AF_INET, raw[1:5])
    raise ValueError(f"server_ip: bad address family {raw[0]}")


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
            fh.write(pack(
                f.ts, line_raw.ljust(16, b"\x00"), _pack_ip(f.server_ip), f.server_port,
                _TRANSPORT_CODES[f.transport], _DIRECTION_CODES[f.direction],
                f.sampled_bytes, f.sampled_packets, f.sampling_rate,
            ))
            count += 1
    return count


def _bmf_chunks(path: str | Path) -> Iterator[bytes]:
    """The record bytes of a `.bmf` file, whole records at a time."""
    with open(path, "rb") as fh:
        header = fh.read(8)
        if header[:4] != _MAGIC:
            raise ValueError(f"{path}: not a binary flow file")
        if header[4] != 1:
            raise ValueError(f"{path}: unsupported version {header[4]}")
        size = _REC.size
        while chunk := fh.read(size * 4096):
            if len(chunk) % size:
                raise ValueError(f"{path}: truncated record")
            yield chunk


def _checked_keys(line_key, addr_key, proto, direction, rate: int,
                  line_of: Callable, addr_of: Callable) -> tuple[str, str]:
    """(line, ip) of a row, raising ValueError for its first bad field in the
    order the readers check them: line, address, rate, direction, transport.
    Bytes and packets are unsigned in `.bmf` and checked by `_check` in JSONL."""
    line = line_of(line_key)
    ip = addr_of(addr_key)
    if rate < 1:
        raise ValueError("sampling_rate must be >= 1")
    if direction not in _DIRECTIONS:
        raise ValueError(f"bad direction {direction!r}")
    if proto not in _TRANSPORTS:
        raise ValueError(f"bad transport {proto!r}")
    return line, ip


def read_flows_binary(path: str | Path) -> Iterator[FlowRecord]:
    """Records of a `.bmf` file. Line ids and addresses repeat across
    records, so each distinct raw value is decoded once."""
    lines: dict[bytes, str] = {}
    ips: dict[bytes, str] = {}
    transports, directions = _TRANSPORTS.get, _DIRECTIONS.get
    new = tuple.__new__
    max_ts = LocalDays.MAX_TS  # ts is unsigned, so never below LocalDays.MIN_TS
    number = 0
    for chunk in _bmf_chunks(path):
        for (ts, line_raw, ip_raw, port, proto, direction,
             sampled_bytes, sampled_packets, rate) in _REC.iter_unpack(chunk):
            number += 1
            line = lines.get(line_raw)
            ip = ips.get(ip_raw)
            transport = transports(proto)
            direction_name = directions(direction)
            if (line is None or ip is None or rate < 1 or direction_name is None
                    or transport is None or ts > max_ts):
                try:
                    _check_ts(ts)
                    line, ip = _checked_keys(line_raw, ip_raw, proto, direction, rate,
                                             _unpack_line, _unpack_ip)
                except ValueError as exc:
                    raise ValueError(f"{path}:{number}: {exc}") from None
                lines[line_raw], ips[ip_raw] = line, ip
            yield new(FlowRecord, (ts, line, ip, port, transport, direction_name,
                                   sampled_bytes, sampled_packets, rate))


class FlowFile:
    """A flow file, its format detected by its magic bytes.

    Iterating it gives its FlowRecords. `line_contact_sets` and
    `aggregate_flows` read a `.bmf` one as rows instead (`_row_source`).
    `excluding` gives the same file without some lines' records; those are
    still read and checked.
    """

    __slots__ = ("path", "binary", "skip_lines")

    def __init__(self, path: str | Path, binary: bool,
                 skip_lines: frozenset[str] = frozenset()) -> None:
        self.path = path
        self.binary = binary
        self.skip_lines = skip_lines

    def __iter__(self) -> Iterator[FlowRecord]:
        records = read_flows_binary(self.path) if self.binary else read_flows_jsonl(self.path)
        if self.skip_lines:
            return (f for f in records if f[1] not in self.skip_lines)
        return records

    def excluding(self, lines: Iterable[str]) -> FlowFile:
        return FlowFile(self.path, self.binary, self.skip_lines | frozenset(lines))


def read_flows(path: str | Path) -> FlowFile:
    """The flow file at `path`; iterate it for its FlowRecords."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    return FlowFile(path, magic == _MAGIC)


# --- rows: what the flow passes loop over ---------------------------------------------

# the line key of an excluded line
_SKIP = object()


def _as_is(key: str) -> str:
    return key


def _record_row(rec: FlowRecord) -> tuple:
    """A record as a row. A transport or direction with no code stays a
    name, so the row check names it as the JSONL reader does."""
    ts, line, ip, port, transport, direction, sampled_bytes, sampled_packets, rate = rec
    return (ts, line, ip, port, _TRANSPORT_CODES.get(transport, transport),
            _DIRECTION_CODES.get(direction, direction), sampled_bytes, sampled_packets, rate)


def _row_source(flows: Iterable[FlowRecord]) -> tuple:
    """(batches of rows, line key decoder, address key decoder, lines to
    skip) for one pass over `flows`.

    A row is a 9-tuple in `.bmf` field order, with transport and direction
    as codes. For a `.bmf` FlowFile the batches are `_REC.iter_unpack` over
    its chunks, and the line and address keys are the raw 16- and 17-byte
    fields, which the passes decode on first sight. Any other flows, JSONL
    files included, come as one batch of records turned into rows, keyed by
    their line and IP strings. The passes check every row with one inline
    test and `_checked_keys` behind it, so the first bad record raises what
    the record readers raise for it.
    """
    if isinstance(flows, FlowFile) and flows.binary:
        return (map(_REC.iter_unpack, _bmf_chunks(flows.path)), _unpack_line, _unpack_ip,
                flows.skip_lines)
    return (map(_record_row, flows),), _as_is, _as_is, frozenset()


def _day(days: LocalDays, ts: int) -> tuple[str, int, int]:
    """`days.day(ts)` for a ts the record readers accept; for any other, the
    ValueError they raise, which `_locate` gives its record."""
    _check_ts(ts)
    return days.day(ts)


def _locate(flows: Iterable[FlowRecord]) -> None:
    """After a pass over a FlowFile failed, read it record by record: the
    reader raises the same error for the same record, with its number."""
    if isinstance(flows, FlowFile):
        for _ in flows:
            pass
