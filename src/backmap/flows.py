"""Attribute sampled flow records to backend servers and compute traffic metrics.

Estimated volumes scale sampled bytes by the sampling rate. Attribution is
to dedicated servers only (shared ones are excluded by default), with an
optional per-provider port filter for providers whose gateways are
protocol-split. Scanner lines are detected per day by the number of
distinct backend IPs they contact. One read of a trace builds both those
contact sets and the aggregate (`aggregate_flows`); the scanner lines' rows
are then subtracted before any population metric is rolled up.

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

The flow passes read `.bmf` record bytes only: a `.bmf` file's own, or any
other records packed by `_record_chunks`, which `write_flows_binary` writes.
So the JSONL reader, the passes and the writer accept the same records.
"""

from __future__ import annotations

import math
import os
import socket
import struct
from collections import defaultdict
from pathlib import Path
from typing import (Callable, Hashable, Iterable, Iterator, Mapping,
                    NamedTuple, Sequence)

from .catalog import ProviderProfile
from .footprint import BackendServer
from .geo import region_class
from .jsonl import read_jsonl, write_jsonl
from .netutil import canonical_ip, ip_family
from .timeutil import LocalDays

DOWN = "downstream"
UP = "upstream"

DEFAULT_SCANNER_THRESHOLD = 100
ACTIVITY_SUPPRESSION_FLOOR = 15

_MAGIC = b"BMFL"
# the family byte and the address are read as one 17-byte field, so one dict
# lookup decodes both
_REC = struct.Struct("<Q16s17sHBBQII3x")
# the fields the flow pass reads of a record: ts, pair, direction,
# sampled_bytes and sampling_rate. The pair is the 16-byte line key and the
# 20-byte family, address, port and transport key.
_ROW = struct.Struct("<Q36sBQ4xI3x")
_CHUNK_RECORDS = 4096  # records per chunk of `.bmf` bytes the flow passes read
_TRANSPORT_CODES = {"tcp": 6, "udp": 17}
_TRANSPORTS = {code: name for name, code in _TRANSPORT_CODES.items()}
_DIRECTION_CODES = {DOWN: 0, UP: 1}
_DIRECTIONS = {code: name for name, code in _DIRECTION_CODES.items()}


class FlowRecord(NamedTuple):
    """One sampled flow record.

    A plain tuple: both readers validate each record with `_check` before
    they build it, so building one runs no code. The flow passes build none: they read `.bmf` rows, a file's
    own or records packed by `_record_chunks`.
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


# --- scanner handling -------------------------------------------------------------


class ScannerVerdict(NamedTuple):
    line_id: str
    date: str
    distinct_backend_ips: int
    is_scanner: bool
    threshold_used: int


def detect_scanners(
    contacts: Mapping[tuple[str, str], set[str]],
    threshold: int = DEFAULT_SCANNER_THRESHOLD,
) -> list[ScannerVerdict]:
    """A line hosts a scanner on a day iff it contacts strictly more than
    `threshold` distinct backend server IPs that day. `contacts` is what
    `aggregate_flows` hands its `scanners` callback."""
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
    """`flows` without the scanner lines' records."""
    return (f for f in flows if f[1] not in scanners)


class SweepPoint(NamedTuple):
    threshold: int
    visible_server_fraction: float
    scanner_line_count: int


def threshold_sweep(
    contacts: Mapping[tuple[str, str], set[str]],
    backend_ips: set[str],
    thresholds: Sequence[int],
) -> list[SweepPoint]:
    """Visibility and scanner count per candidate threshold over one day.

    `contacts` holds contact sets over the same `backend_ips` (see
    `detect_scanners`).
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


# --- the flow pass: aggregation and contact sets in one read -------------------------


class FlowAggregate:
    """Aggregates of the attributed flows of a trace.

    Hour keys are epoch hours (ints), as in every series rolled up from it.
    `aggregate_flows` builds every dict field with its keys in sorted order,
    so its consumers need not sort them. The per-provider and per-(port,
    transport) dicts of a `line_day` value hold their keys in the order of
    the line's first row to each that day. `FlowAggregate(tz_name)` starts
    every dict empty, for `_FlowPass.rollup` to fill.
    """

    __slots__ = ("tz_name", "provider_hour_down", "provider_hour_up", "provider_hour_lines",
                 "provider_region_hour_down", "provider_down", "provider_up",
                 "provider_port_bytes", "provider_contacted", "provider_lines_full",
                 "provider_lines_cert", "line_regions", "region_bytes", "line_day",
                 "attributed_records", "unattributed_records")

    def __init__(self, tz_name: str) -> None:
        self.tz_name = tz_name
        self.provider_hour_down = defaultdict(int)
        self.provider_hour_up = defaultdict(int)
        self.provider_hour_lines = defaultdict(set)
        self.provider_region_hour_down = defaultdict(int)
        self.provider_down = defaultdict(int)
        self.provider_up = defaultdict(int)
        self.provider_port_bytes = defaultdict(int)
        self.provider_contacted = defaultdict(set)
        self.provider_lines_full = defaultdict(set)
        self.provider_lines_cert = defaultdict(set)
        self.line_regions = defaultdict(set)
        self.region_bytes = defaultdict(int)
        self.line_day = {}
        self.attributed_records = 0
        self.unattributed_records = 0


def aggregate_flows(
    flows: Iterable[FlowRecord],
    index: ServerIndex,
    tz_name: str = "UTC",
    cert_ips: set[str] | None = None,
    scanners: Callable[[dict], tuple[set[str], Iterable[FlowRecord]]] | None = None,
) -> FlowAggregate:
    """The aggregate of `flows`, from one read of them (`_FlowPass`).

    `cert_ips` marks servers discoverable from certificate scans alone and
    feeds the source-ablation numbers.

    `scanners`, when given, is called once, after the read, with its contact
    sets: (line, local date) -> the backend IPs of `index` the line contacted
    that day. It returns the lines to take out, with a new read of `flows`
    that holds their rows (it is not read when there are none). The
    aggregate is then that of `flows` without those lines' records.
    """
    flow_pass = _FlowPass(flows, index, tz_name, cert_ips)
    if scanners is not None:
        drop, again = scanners(flow_pass.contacts)
        flow_pass.contacts = {}  # freed before the second read
        if drop:
            flow_pass.take_out(drop, again)
    return flow_pass.rollup()


class _FlowPass:
    """One read of the rows of a trace, and what it leaves for the rollup.

    Rows come from `_row_source`, already checked. Attribution and the
    backend IP depend only on a row's (address, port, transport) key, so
    each is decided once per distinct key, and what a row does once per
    (line, key) pair and local day. At a pair's first sight on a day its
    backend IP, an address `index` has facts for, joins the (line, day)
    contact set. An attributed row then updates two accumulators: the
    [down, up] bytes of its (line, local day, key), and its hourly cell,
    keyed by (provider and region token, hour, direction), which sums the
    row's bytes, counts it and adds its line to the set of lines of
    (provider, hour). `rollup` builds every FlowAggregate field from those;
    `take_out` first subtracts some lines.

    attributions: (provider, ip, (port, transport), family, region, cert)
        per attributed key, in first-row order; its position is the key's
        attribution id
    series: (provider, region token) -> series id
    keys: key -> (backend IP or "", (series id, attribution id) or ())
    lines: line key -> line
    line_days: (line, local day) -> attribution id -> [down, up]
    cells: (series id, hour, direction) -> [bytes, rows, lines of (provider, hour)]
    hour_lines: (provider, hour) -> lines
    contacts: (line, local day) -> backend IPs
    """

    __slots__ = ("tz_name", "attributions", "series", "keys", "lines", "line_days", "cells",
                 "hour_lines", "contacts", "unattributed")

    def __init__(self, flows: Iterable[FlowRecord], index: ServerIndex, tz_name: str,
                 cert_ips: set[str] | None) -> None:
        batches = _row_source(flows)
        cert_ips = cert_ips or set()
        days = LocalDays(tz_name)
        attribute, facts = index.attribute, index.facts
        self.tz_name = tz_name
        self.attributions = attributions = []
        self.series = series = {}
        self.keys = keys = {}
        self.lines = lines = {}
        self.line_days = line_days = {}
        self.contacts = contacts = defaultdict(set)
        self.hour_lines = hour_lines = defaultdict(set)
        self.cells = cells = {}

        def decide(key) -> tuple:
            """(backend IP or "", (series id, attribution id) or ()) of a key."""
            ip, port, transport = _unpack_key(key)
            contact = ip if ip in facts else ""
            pid = attribute(ip, port, transport)
            if pid is None:
                return contact, ()
            _pid, _ports, token, region, family = facts[ip]
            attributions.append((pid, ip, (port, transport), family, region, ip in cert_ips))
            return contact, (series.setdefault((pid, token), len(series)),
                             len(attributions) - 1)

        def first_sight(pair, day):
            """What a (line, key) pair's rows do on `day`: (line, [down, up] in
            `line_days`, series id, provider) when attributed, () when not. A
            pair back on a day it left keeps its [down, up]."""
            line_key, key = pair[:16], pair[16:]
            line = lines.get(line_key)
            if line is None:
                line = lines[line_key] = _unpack_line(line_key)
            decided = keys.get(key)
            if decided is None:
                decided = keys[key] = decide(key)
            contact, attribution = decided
            if contact:
                contacts[(line, day)].add(contact)
            if not attribution:
                return ()
            sid, triple = attribution
            down_up = line_days.setdefault((line, day), {}).setdefault(triple, [0, 0])
            return line, down_up, sid, attributions[triple][0]

        cells_get = cells.get
        today: dict = {}  # pair -> its `first_sight` for `day`
        today_get = today.get
        unattributed = 0
        day, start, end = "", 0, 0
        # the day the pass was on before `day`, with its bounds and entries:
        # rows that go back over a local midnight swap to it, without `days.day`
        other = ("", 0, 0, {})
        try:
            for rows in batches:
                for ts, pair, direction, sampled_bytes, rate in rows:
                    if not start <= ts < end:
                        if other[1] <= ts < other[2]:
                            (day, start, end, today), other = other, (day, start, end, today)
                        else:
                            stale = other[3]
                            other = (day, start, end, today)
                            day, start, end = days.day(ts)
                            today = stale
                            today.clear()
                        today_get = today.get
                    entry = today_get(pair)
                    if entry is None:
                        entry = today[pair] = first_sight(pair, day)
                    if not entry:
                        unattributed += 1
                        continue
                    line, down_up, sid, pid = entry
                    est = sampled_bytes * rate
                    down_up[direction] += est
                    hour = ts // 3600
                    cell = (sid, hour, direction)
                    hourly = cells_get(cell)
                    if hourly is None:
                        hourly = cells[cell] = [0, 0, hour_lines[(pid, hour)]]
                    hourly[0] += est
                    hourly[1] += 1
                    hourly[2].add(line)
        except ValueError:
            _locate(flows)
            raise
        self.unattributed = unattributed

    def take_out(self, drop: set[str], again: Iterable[FlowRecord]) -> None:
        """Subtract the rows of the lines in `drop` from what the read left,
        as if `flows` never held them. Their (line, day) slots go, and with
        them every key only they reached; they leave the (provider, hour)
        line sets. `again`, a new read of the trace, gives their rows, whose
        bytes and counts leave the hourly cells (`_rows_of_lines`), so a cell
        that only they made ends with no rows."""
        line_days = self.line_days
        for slot in [slot for slot in line_days if slot[0] in drop]:
            del line_days[slot]
        hour_lines = self.hour_lines
        for hour, lines in list(hour_lines.items()):
            lines -= drop
            if not lines:
                del hour_lines[hour]
        keys, cells = self.keys, self.cells
        wanted = {key for key, line in self.lines.items() if line in drop}
        for ts, pair, direction, sampled_bytes, rate in _rows_of_lines(again, wanted,
                                                                      self.lines):
            attribution = keys[pair[16:]][1]
            if attribution:
                hourly = cells[(attribution[0], ts // 3600, direction)]
                hourly[0] -= sampled_bytes * rate
                hourly[1] -= 1
            else:
                self.unattributed -= 1

    def rollup(self) -> FlowAggregate:
        """Every FlowAggregate field, each dict built in key order."""
        self.keys = self.lines = None  # the read's caches go first
        series = list(self.series)
        attributed = 0
        region_hour_down: dict[tuple[str, str, int], int] = defaultdict(int)
        hour_up: dict[tuple[str, int], int] = defaultdict(int)
        for (sid, hour, direction), (est, rows, _lines) in self.cells.items():
            if rows:
                attributed += rows
                pid, token = series[sid]
                if direction:
                    hour_up[(pid, hour)] += est
                else:
                    region_hour_down[(pid, token, hour)] = est
        self.cells = None
        hour_down: dict[tuple[str, int], int] = defaultdict(int)
        for (pid, _token, hour), est in region_hour_down.items():
            hour_down[(pid, hour)] += est
        agg = FlowAggregate(self.tz_name)
        agg.provider_hour_down = _in_key_order(hour_down)
        agg.provider_hour_up = _in_key_order(hour_up)
        agg.provider_hour_lines = _in_key_order(self.hour_lines)
        agg.provider_region_hour_down = _in_key_order(region_hour_down)
        agg.attributed_records, agg.unattributed_records = attributed, self.unattributed
        for (pid, _hour), est in agg.provider_hour_down.items():
            agg.provider_down[pid] += est
        for (pid, _hour), est in agg.provider_hour_up.items():
            agg.provider_up[pid] += est

        per_triple = [[0, 0, set()] for _ in self.attributions]  # down, up, lines
        line_days = self.line_days
        for line, day in sorted(line_days):
            slot = line_days[(line, day)]
            per_provider: dict[str, tuple[int, int]] = {}
            per_port: dict[tuple[int, str], tuple[int, int]] = {}
            regions = agg.line_regions[line]
            for triple, (down, up) in slot.items():
                pid, _ip, pkey, _family, region, _cert = self.attributions[triple]
                d, u = per_provider.get(pid, (0, 0))
                per_provider[pid] = (d + down, u + up)
                d, u = per_port.get(pkey, (0, 0))
                per_port[pkey] = (d + down, u + up)
                regions.add(region)
                acc = per_triple[triple]
                acc[0] += down
                acc[1] += up
                acc[2].add(line)
            agg.line_day[(line, day)] = [per_provider, per_port]
        for (pid, ip, (port, transport), family, region, cert), (down, up, lines) in zip(
                self.attributions, per_triple):
            if not lines:  # only lines taken out reached the key
                continue
            agg.provider_port_bytes[(pid, port, transport)] += down + up
            agg.provider_contacted[(pid, family)].add(ip)
            agg.provider_lines_full[pid] |= lines
            if cert:
                agg.provider_lines_cert[pid] |= lines
            agg.region_bytes[region] += down + up
        for field in ("provider_port_bytes", "provider_contacted", "provider_lines_full",
                      "provider_lines_cert", "region_bytes"):
            setattr(agg, field, _in_key_order(getattr(agg, field)))
        return agg


def _in_key_order(d: defaultdict) -> defaultdict:
    keys = sorted(d)
    return defaultdict(d.default_factory, zip(keys, map(d.__getitem__, keys)))


def _rows_of_lines(flows: Iterable[FlowRecord], wanted: set[bytes],
                   known: Iterable[bytes]) -> Iterator[tuple]:
    """The rows (`_ROW`) of the records of `flows` whose 16-byte line key is
    in `wanted`, in no set order; `known` holds the trace's other line keys.

    A pass has read and checked these records already, so the chunks are
    not checked again. A chunk's candidate records are found in bulk by one
    byte of their line field: the one at the offset where the fewest lines
    of `known` outside `wanted` share a value with a line in `wanted`. Only
    those records are unpacked, so a chunk without such a value costs one
    strided slice. Flows that are not a `.bmf` FlowFile are filtered by line
    before they are packed.
    """
    if isinstance(flows, FlowFile) and flows.binary:
        chunks = _bmf_chunks(flows.path)
    else:
        names = {_unpack_line(key) for key in wanted}
        chunks = _record_chunks(f for f in flows if f[1] in names)
    others = b"".join(key for key in known if key not in wanted)

    def values(at: int) -> bytes:
        return bytes({key[at] for key in wanted})

    def clashes(at: int) -> int:
        column = others[at::16]
        return len(column) - len(column.translate(None, values(at)))

    at = min(range(16), key=clashes)
    marks = bytearray(256)  # a translate table: 1 for a value some line in `wanted` has
    for value in values(at):
        marks[value] = 1
    size, unpack = _REC.size, _ROW.unpack_from
    for chunk in chunks:
        found = chunk[8 + at::size].translate(marks)
        n = found.find(1)
        while n != -1:
            row = unpack(chunk, n * size)
            if row[1][:16] in wanted:
                yield row
            n = found.find(1, n + 1)


# --- derived metrics ------------------------------------------------------------------


def line_day_profiles(agg: FlowAggregate) -> list[tuple]:
    """The ((line, local day), [per provider, per (port, transport)]) items
    of `agg.line_day`, in key order and not copied; both map their key to
    (down, up) estimated bytes."""
    return list(agg.line_day.items())


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
    for pid in agg.provider_lines_full:
        full = len(agg.provider_lines_full[pid])
        restricted = len(agg.provider_lines_cert.get(pid, set()))
        out[pid] = 100.0 * (1.0 - restricted / full) if full else 0.0
    return out


def activity_series(agg: FlowAggregate) -> dict[str, list[tuple[int, int]]]:
    """Hourly distinct active line counts per provider (unsuppressed), as
    (epoch hour, count) points."""
    series: dict[str, list[tuple[int, int]]] = defaultdict(list)
    for (pid, hour), lines in agg.provider_hour_lines.items():
        series[pid].append((hour, len(lines)))
    return dict(series)


def suppress_low_counts(
    series: list[tuple[int, int]], floor: int = ACTIVITY_SUPPRESSION_FLOOR,
) -> list[tuple[int, int]]:
    """Drop emitted buckets with positive counts under the privacy floor."""
    return [(hour, n) for hour, n in series if n == 0 or n >= floor]


class RatioResult(NamedTuple):
    value: float
    undefined: bool = False  # upstream total was zero


class TrafficSummary(NamedTuple):
    normalized_down_series: Mapping[str, list[tuple[int, float]]]  # epoch-hour points
    down_up_ratio: Mapping[str, RatioResult]


def traffic_series_and_ratio(agg: FlowAggregate) -> TrafficSummary:
    """Per-provider downstream series normalized by each provider's peak,
    plus the window-level downstream/upstream ratio."""
    raw: dict[str, list[tuple[int, int]]] = defaultdict(list)
    for (pid, hour), est in agg.provider_hour_down.items():
        raw[pid].append((hour, est))
    ratios = {}
    providers = set(agg.provider_down) | set(agg.provider_up)
    for pid in sorted(providers):
        down = agg.provider_down.get(pid, 0)
        up = agg.provider_up.get(pid, 0)
        if up == 0:
            ratios[pid] = RatioResult(value=math.inf, undefined=True)
        else:
            ratios[pid] = RatioResult(value=down / up)
    return TrafficSummary(normalized_down_series=_peak_normalized(raw),
                          down_up_ratio=ratios)


def regional_down_series(
    agg: FlowAggregate,
) -> dict[tuple[str, str], list[tuple[int, float]]]:
    """Per (provider, region-token) hourly downstream series for outage
    scanning, as (epoch hour, value) points peak-normalized per series."""
    raw: dict[tuple[str, str], list[tuple[int, float]]] = defaultdict(list)
    for (pid, token, hour), est in agg.provider_region_hour_down.items():
        raw[(pid, token)].append((hour, float(est)))
    return _peak_normalized(raw)


def _peak_normalized(raw: Mapping[Hashable, list[tuple[int, float]]]) -> dict:
    """Each series of `raw` divided by its peak (0.0 throughout when that is 0)."""
    out = {}
    for key, series in raw.items():
        peak = max(v for _, v in series)
        out[key] = [(hour, v / peak if peak else 0.0) for hour, v in series]
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


class PortShare(NamedTuple):
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
    for pid, buckets in per_provider.items():
        total = sum(buckets.values())
        rows = [
            PortShare(port=port, transport=transport, label=label,
                      share=est / total if total else 0.0)
            for (port, transport, label), est in buckets.items()
        ]
        rows.sort(key=lambda r: (-r.share, r.label, r.port or 0, r.transport))
        out[pid] = rows
    return out


# --- per-line daily distributions -------------------------------------------------------


class Ecdf(NamedTuple):
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

    def points(self) -> list[tuple[int, float]]:
        n = len(self.values)
        return [(v, (i + 1) / n) for i, v in enumerate(self.values)]


def per_line_distribution(
    profiles: Iterable[tuple],
    group_by: str = "all",
) -> dict[Hashable, Ecdf]:
    """ECDFs of estimated daily downstream bytes per subscriber line.

    group_by: 'all' (one distribution), 'provider' or 'port'. Groups that
    attracted no bytes at all come back as empty ECDFs (explicit marker)
    rather than being dropped.
    """
    if group_by not in ("all", "provider", "port"):
        raise ValueError(f"bad group_by {group_by!r}")
    groups: dict[Hashable, list[int]] = defaultdict(list)
    for _line_day, (per_provider, per_port) in profiles:
        if group_by == "all":
            groups["all"].append(sum(down for down, _up in per_provider.values()))
        elif group_by == "provider":
            for pid, (down, _up) in per_provider.items():
                groups[pid].append(down)
        else:
            for pkey, (down, _up) in per_port.items():
                groups[pkey].append(down)
    return {k: Ecdf(values=tuple(sorted(v))) for k, v in groups.items()}


# --- cross-border attribution ---------------------------------------------------------------


LINE_CATEGORIES = ("EU-only", "US-only", "EU+US", "Asia-only", "Other", "Mixed")


class ContinentReport(NamedTuple):
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
               for region, v in agg.region_bytes.items()}

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
    """Raise ValueError for epoch seconds that a `.bmf` record cannot hold
    (below 0) or that some timezone gives no local day (see
    LocalDays.MAX_TS)."""
    if not 0 <= ts <= LocalDays.MAX_TS:
        raise ValueError(f"field 'ts': {ts} is out of range")


def _check(rec: FlowRecord) -> None:
    """Raise ValueError for a record whose values no flow can have, or that
    a `.bmf` record cannot hold."""
    ts, line, _ip, port, transport, direction, sampled_bytes, sampled_packets, rate = rec
    _check_ts(ts)
    if not (line.isascii() and len(line) <= 16 and "\x00" not in line):
        raise ValueError(f"field 'line_id': {line!r} is not at most 16 ASCII characters "
                         "without NUL")
    if rate < 1:
        raise ValueError("sampling_rate must be >= 1")
    if sampled_bytes < 0 or sampled_packets < 0:
        raise ValueError("sampled_bytes and sampled_packets must be >= 0")
    for name, value, bits in (("port", port, 16), ("sampled_bytes", sampled_bytes, 64),
                              ("sampled_packets", sampled_packets, 32),
                              ("sampling_rate", rate, 32)):
        if value >> bits:
            raise ValueError(f"field {name!r}: {value} is out of range")
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
        line = raw.rstrip(b"\x00").decode("ascii")
    except UnicodeDecodeError as exc:
        raise ValueError(f"line_id: {exc}") from None
    if "\x00" in line:
        raise ValueError(f"line_id: {line!r} has a NUL before its end")
    return line


def _unpack_ip(raw: bytes) -> str:
    """Inverse of `_pack_ip`."""
    if raw[0] == 6:
        return socket.inet_ntop(socket.AF_INET6, raw[1:])
    if raw[0] == 4:
        return socket.inet_ntop(socket.AF_INET, raw[1:5])
    raise ValueError(f"server_ip: bad address family {raw[0]}")


def write_flows_binary(path: str | Path, flows: Iterable[FlowRecord]) -> int:
    """Write the compact fixed-width format; returns the record count.

    The records are packed by `_record_chunks`, so a record the flow passes
    reject, such as a line id longer than 16 ASCII bytes, which would
    truncate and could collide, fails here with the same message. The file
    is written under a temporary name beside `path` and renamed over it only
    once every record is in, so a failed write leaves `path` as it was.
    """
    path = Path(path)
    partial = path.with_name(path.name + ".partial")
    size = 0
    try:
        with open(partial, "wb") as fh:
            fh.write(_MAGIC + bytes([1, 0, 0, 0]))
            for chunk in _record_chunks(flows):
                fh.write(chunk)
                size += len(chunk)
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)  # gone after the rename
    return size // _REC.size


def _bmf_chunks(path: str | Path) -> Iterator[bytes]:
    """The record bytes of a `.bmf` file, whole records at a time."""
    with open(path, "rb") as fh:
        header = fh.read(8)
        if header[:4] != _MAGIC:
            raise ValueError(f"{path}: not a binary flow file")
        if header[4] != 1:
            raise ValueError(f"{path}: unsupported version {header[4]}")
        size = _REC.size
        while chunk := fh.read(size * _CHUNK_RECORDS):
            if len(chunk) % size:
                raise ValueError(f"{path}: truncated record")
            yield chunk


def read_flows_binary(path: str | Path) -> Iterator[FlowRecord]:
    """Records of a `.bmf` file. Line ids and addresses repeat across
    records, so each distinct raw value is decoded once. A record that
    brings a new one, or fails the inline test, is checked as the JSONL
    reader checks it: ts, line, address, then `_check`, with an unknown
    direction or transport code in place of its name."""
    lines: dict[bytes, str] = {}
    ips: dict[bytes, str] = {}
    transports, directions = _TRANSPORTS.get, _DIRECTIONS.get
    new = tuple.__new__
    max_ts = LocalDays.MAX_TS  # ts is unsigned, so never below 0
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
                    line, ip = _unpack_line(line_raw), _unpack_ip(ip_raw)
                    _check((ts, line, ip, port, transport or proto, direction_name or direction,
                            sampled_bytes, sampled_packets, rate))
                except ValueError as exc:
                    raise ValueError(f"{path}:{number}: {exc}") from None
                lines[line_raw], ips[ip_raw] = line, ip
            yield new(FlowRecord, (ts, line, ip, port, transport, direction_name,
                                   sampled_bytes, sampled_packets, rate))


class FlowFile:
    """A flow file, its format detected by its magic bytes.

    Iterating it gives its FlowRecords. The flow pass (`_FlowPass`) reads a
    `.bmf` one's own chunks instead (`_row_source`).
    """

    __slots__ = ("path", "binary")

    def __init__(self, path: str | Path, binary: bool) -> None:
        self.path = path
        self.binary = binary

    def __iter__(self) -> Iterator[FlowRecord]:
        return read_flows_binary(self.path) if self.binary else read_flows_jsonl(self.path)


def read_flows(path: str | Path) -> FlowFile:
    """The flow file at `path`; iterate it for its FlowRecords."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    return FlowFile(path, magic == _MAGIC)


# --- rows: what the flow passes loop over ---------------------------------------------


def _unpack_key(raw: bytes) -> tuple[str, int, str]:
    """(ip, port, transport) of a row's 20-byte key; `_chunk_ok` or
    `_record_chunks` has checked its transport code."""
    return _unpack_ip(raw[:17]), raw[17] | raw[18] << 8, _TRANSPORTS[raw[19]]


def _record_chunks(records: Iterable[FlowRecord]) -> Iterator[bytes]:
    """`records` as `.bmf` record bytes, up to `_CHUNK_RECORDS` records a
    chunk, each distinct line id and address encoded once. A record with a
    new line id or address, or whose ts or sampling rate is out of range,
    is checked with `_check` before it is packed; `_REC.pack` range-checks
    the other fields, and a record it rejects goes to `_check` too. So a bad
    record raises what the JSONL reader raises for it."""
    lines: dict[str, bytes] = {}
    ips: dict[str, bytes] = {}
    transports, directions = _TRANSPORT_CODES.get, _DIRECTION_CODES.get
    pack = _REC.pack
    max_ts = LocalDays.MAX_TS
    chunk: list[bytes] = []
    for rec in records:
        ts, line, ip, port, transport, direction, sampled_bytes, packets, rate = rec
        line_raw = lines.get(line)
        ip_raw = ips.get(ip)
        if line_raw is None or ip_raw is None or rate < 1 or not 0 <= ts <= max_ts:
            _check(rec)
            line_raw = lines[line] = line.encode("ascii")
            ip_raw = ips[ip] = _pack_ip(ip)
        try:
            chunk.append(pack(ts, line_raw, ip_raw, port, transports(transport),
                              directions(direction), sampled_bytes, packets, rate))
        except struct.error:
            _check(rec)
            raise
        if len(chunk) == _CHUNK_RECORDS:
            yield b"".join(chunk)
            chunk = []
    if chunk:
        yield b"".join(chunk)


def _row_source(flows: Iterable[FlowRecord]) -> Iterator[Iterator[tuple]]:
    """The batches of rows of one pass over `flows`. A row has the fields
    of `_ROW`: ts, pair, direction code, sampled_bytes and sampling_rate.

    The batches are `_ROW.iter_unpack` over `.bmf` record chunks: a `.bmf`
    FlowFile's own, or any other flows, JSONL files included, packed by
    `_record_chunks`, whose records are checked as the JSONL reader checks
    them. The pair is the raw 36-byte field of a 16-byte line key and a
    20-byte family, address, port and transport key; the pass decodes
    each distinct line key and key on its first sight (`_unpack_line`,
    `_unpack_key`), which checks the line's ASCII and the address family.
    Each chunk of a file is checked in bulk before its rows are read
    (`_chunk_ok`): ts, sampling rate, direction and transport codes. A
    check that fails raises ValueError, and the pass then reads the file
    again with the record reader (`_locate`), which raises `<path>:<N>: ...`
    for the first bad record.
    """
    if isinstance(flows, FlowFile) and flows.binary:
        chunks = _checked_chunks(flows.path)
    else:
        chunks = _record_chunks(flows)
    return map(_ROW.iter_unpack, chunks)


def _field_or(chunk: bytes, offset: int, size: int) -> int:
    """An int whose little-endian byte i is the OR of the `size` bytes at
    `offset` in record i of `chunk`."""
    value = 0
    for at in range(offset, offset + size):
        value |= int.from_bytes(chunk[at::_REC.size], "little")
    return value


def _chunk_ok(chunk: bytes) -> bool:
    """Whether every record of a `.bmf` chunk has a ts of at most
    LocalDays.MAX_TS, a sampling rate of at least 1, a direction code and a
    transport code. Each field is read across the chunk as strided byte
    slices; a ts of 2**32 or more, or a rate whose low byte is 0, is then
    compared exactly. Record offsets (see the module docstring): ts 0-7,
    transport 43, direction 44, sampling_rate 57-60."""
    size = _REC.size
    if _field_or(chunk, 4, 4) and max(
            row[0] for row in _ROW.iter_unpack(chunk)) > LocalDays.MAX_TS:
        return False
    if 0 in chunk[57::size] and 0 in _field_or(chunk, 57, 4).to_bytes(len(chunk) // size,
                                                                      "little"):
        return False
    return not (chunk[44::size].translate(None, b"\x00\x01")
                or chunk[43::size].translate(None, b"\x06\x11"))


def _checked_chunks(path: str | Path) -> Iterator[bytes]:
    """The chunks of `_bmf_chunks`, each passed by `_chunk_ok` first."""
    for chunk in _bmf_chunks(path):
        if not _chunk_ok(chunk):
            raise ValueError(f"{path}: bad record")
        yield chunk


def _locate(flows: Iterable[FlowRecord]) -> None:
    """After a pass over a `.bmf` FlowFile failed, read it record by record:
    the reader raises the error of the first bad record, with its number.
    A JSONL reader's error already names its file and line."""
    if isinstance(flows, FlowFile) and flows.binary:
        for _ in flows:
            pass
