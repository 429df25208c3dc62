"""Detect backend disruptions: traffic-drop findings, blocklist and
routing-event cross-checks.

Outage detection is relative: a provider/region series is flagged when it
stays below the previous week's minimum for a sustained number of hours,
so rescaling a series (e.g. different normalization bases) does not change
the findings.
"""

from __future__ import annotations

from collections import defaultdict
from datetime import datetime
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from .footprint import BackendServer
from .ingest import StudyWindow
from .netutil import PrefixIndex, network_range, parse_prefix
from .records import Checked

DEFAULT_BASELINE_DAYS = 7
DEFAULT_SUSTAIN_HOURS = 2


class InsufficientHistoryError(ValueError):
    """Baseline period not fully covered; a partial baseline would produce
    silently wrong minima."""


class OutageFinding(NamedTuple):
    provider_id: str
    region: str
    window: tuple[int, int]  # flagged stretch: first and last epoch hour
    min_baseline: float
    observed: tuple[float, ...]
    max_drop_fraction: float


class _BlocklistEntry(NamedTuple):
    list_id: str
    cidr: str
    net: tuple | None = None  # parse_prefix(cidr), set by the constructor


class BlocklistEntry(Checked, _BlocklistEntry):
    """A list's block, its cidr in canonical text. `net` follows from the
    cidr, so two entries compare as their list ids and cidrs do."""

    __slots__ = ()

    def _checked(self) -> BlocklistEntry:
        net = parse_prefix(self.cidr)
        return tuple.__new__(type(self), (self.list_id, net[3], net))


class _RoutingEvent(NamedTuple):
    kind: str  # leak | hijack | as-outage
    window: tuple[datetime, datetime]
    prefix: str | None = None
    asn: int | None = None


class RoutingEvent(Checked, _RoutingEvent):
    __slots__ = ()

    def _checked(self) -> RoutingEvent:
        if self.kind not in ("leak", "hijack", "as-outage"):
            raise ValueError(f"bad event kind {self.kind!r}")
        if self.prefix is None and self.asn is None:
            raise ValueError("event needs a prefix or an asn")
        if self.prefix is None:
            return self
        return tuple.__new__(type(self), (self.kind, self.window, parse_prefix(self.prefix)[3],
                                          self.asn))


HourlySeries = Sequence[tuple[int, float]]  # (epoch hour, value) points


def outage_scan(
    series: Mapping[tuple[str, str], HourlySeries],
    scan_window: StudyWindow,
    baseline_days: int = DEFAULT_BASELINE_DAYS,
    sustain_hours: int = DEFAULT_SUSTAIN_HOURS,
) -> list[OutageFinding]:
    """Flag stretches where observed volume drops below the prior-week floor.

    The baseline is the minimum over the `baseline_days` days immediately
    before the scan window (a single scalar per provider/region). A finding
    needs at least `sustain_hours` consecutive sub-baseline hours; its drop
    is 1 - min(observed)/baseline.
    """
    findings: list[OutageFinding] = []
    start, end = scan_window.epoch_bounds()
    baseline_start = start - baseline_days * 86400
    expected_hours = baseline_days * 24
    for (provider_id, region) in sorted(series):
        points = sorted((hour, float(v)) for hour, v in series[(provider_id, region)])
        history = [v for hour, v in points if baseline_start <= hour * 3600 < start]
        if len(history) < expected_hours:
            raise InsufficientHistoryError(
                f"{provider_id}/{region}: baseline needs {expected_hours} hourly "
                f"points before {scan_window.start}, found {len(history)}")
        baseline = min(history)
        stretch: list[tuple[int, float]] = []

        def flush() -> None:
            if len(stretch) >= sustain_hours:
                low = min(v for _, v in stretch)
                findings.append(OutageFinding(
                    provider_id=provider_id, region=region,
                    window=(stretch[0][0], stretch[-1][0]),
                    min_baseline=baseline,
                    observed=tuple(v for _, v in stretch),
                    max_drop_fraction=1.0 - (low / baseline if baseline else 0.0),
                ))

        for hour, v in points:
            if not start <= hour * 3600 < end:
                continue
            if v < baseline:
                if stretch and hour - stretch[-1][0] != 1:
                    flush()  # gap in the series breaks the stretch
                    stretch = []
                stretch.append((hour, v))
            else:
                flush()
                stretch = []
        flush()
    return findings


# --- blocklists ----------------------------------------------------------------


class BlocklistIndex:
    """Containment index over many lists' CIDRs."""

    def __init__(self, entries: Iterable[BlocklistEntry]) -> None:
        self._index: PrefixIndex[set[str]] = PrefixIndex()
        for entry in entries:
            self._index.insert(entry.net, lambda _, ids, lid=entry.list_id: {lid, *(ids or ())})

    def matches(self, ip: str) -> set[str]:
        """All list ids with a block containing the address."""
        return set().union(*self._index.containing(ip))


class BlocklistMatch(NamedTuple):
    provider_id: str
    ip: str
    list_ids: frozenset[str]


class BlocklistReport(NamedTuple):
    matches: tuple[BlocklistMatch, ...]
    excluded_matches: tuple[BlocklistMatch, ...]

    def distinct_ips(self) -> set[str]:
        return {m.ip for m in self.matches}


def blocklist_check(
    servers: Iterable[BackendServer],
    index: BlocklistIndex,
    exclude_lists: Iterable[str] = (),
) -> BlocklistReport:
    """Match every server IP against the blocklist index. Matches that only
    come from excluded lists are reported separately, never silently dropped."""
    excluded = set(exclude_lists)
    matches: list[BlocklistMatch] = []
    excluded_only: list[BlocklistMatch] = []
    for s in sorted(servers, key=lambda s: (s.provider_id, s.ip)):
        hit = index.matches(s.ip)
        if not hit:
            continue
        kept = hit - excluded
        if kept:
            matches.append(BlocklistMatch(s.provider_id, s.ip, frozenset(kept)))
        else:
            excluded_only.append(BlocklistMatch(s.provider_id, s.ip, frozenset(hit)))
    return BlocklistReport(matches=tuple(matches), excluded_matches=tuple(excluded_only))


def _text_lines(text: str) -> list[str]:
    """Lines as a file opened in text mode splits them: at \\n, \\r\\n and \\r."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def read_blocklist(path: str | Path, list_id: str | None = None) -> list[BlocklistEntry]:
    """Parse the common netset/ipset convention: one address or CIDR per
    line, '#' comments. The list id defaults to the file stem. An entry
    that is no network, or a line that is not UTF-8, raises
    ValueError("<path>:<line>: ...")."""
    path = Path(path)
    lid = list_id or path.stem
    entries: list[BlocklistEntry] = []
    data = path.read_bytes()
    try:
        lines = _text_lines(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        number = len(_text_lines(data[:exc.start].decode("utf-8")))
        raise ValueError(f"{path}:{number}: not UTF-8: byte 0x{data[exc.start]:02x}: "
                         f"{exc.reason}") from None
    for number, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            entries.append(BlocklistEntry(list_id=lid, cidr=line))
        except ValueError as exc:
            raise ValueError(f"{path}:{number}: {exc}") from None
    return entries


# --- routing events --------------------------------------------------------------


class EventOverlap(NamedTuple):
    event: RoutingEvent
    affected_servers: tuple[str, ...]
    affected_providers: tuple[str, ...]


def routing_event_overlap(
    servers: Iterable[BackendServer],
    events: Iterable[RoutingEvent],
    study_window: StudyWindow,
) -> list[EventOverlap]:
    """Overlap report per event whose window intersects the study window.

    Prefix events hit servers whose announced prefix intersects the event
    prefix; AS events hit servers announced from that ASN.
    """
    by_prefix: dict[str, list[BackendServer]] = defaultdict(list)
    by_asn: dict[int, list[BackendServer]] = defaultdict(list)
    for s in servers:
        by_prefix[s.prefix].append(s)
        by_asn[s.asn].append(s)
    # (family, first, last) of each announced prefix: two blocks overlap
    # exactly when their integer ranges in one family intersect
    ranges = {prefix: network_range(prefix) for prefix in by_prefix}
    reports: list[EventOverlap] = []
    for event in events:
        if not study_window.overlaps(*event.window):
            continue
        hit: list[BackendServer] = []
        if event.prefix is not None:
            family, first, last = network_range(event.prefix)
            for prefix, (f, lo, hi) in ranges.items():
                if f == family and lo <= last and first <= hi:
                    hit.extend(by_prefix[prefix])
        if event.asn is not None:
            hit.extend(by_asn.get(event.asn, ()))
        affected = sorted({s.ip for s in hit})
        providers = sorted({s.provider_id for s in hit})
        reports.append(EventOverlap(
            event=event,
            affected_servers=tuple(affected),
            affected_providers=tuple(providers),
        ))
    return reports
