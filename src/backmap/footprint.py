"""Enrich candidate IPs into located, routed backend server records.

Location resolution prefers the region token embedded in the domain name;
otherwise a country-level majority vote over external hints decides, with
ties broken by a fixed source-priority order. Routing data comes from a
static prefix-to-origin-AS table in the common ``prefix<TAB>len<TAB>asn``
text convention (multi-origin rows joined by underscores).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Collection, Iterable, Mapping, Sequence

# names are matched through ingest.NameMatches; `match_fqdn` stays bound here
# because perfbench/layers.py wraps it at this name
from .catalog import DomainPattern, ProviderProfile, match_fqdn  # noqa: F401
from .fusion import CandidateAddress
from .geo import Location
from .ingest import NameMatches, name_matches
from .netutil import PrefixIndex, parse_network, prefix_contains, truncate_prefix

HINT_SOURCES = ("region-token", "prefix-announcement", "scan-metadata", "latency-probe")

_HINT_PRIORITY = {src: i for i, src in enumerate(HINT_SOURCES)}


class UnlocatableError(ValueError):
    """No region token and no usable hints for an address."""


class UnroutedError(LookupError):
    """No covering prefix in the routing table."""


@dataclass(frozen=True)
class LocationHint:
    ip: str
    source: str
    location: Location

    def __post_init__(self) -> None:
        if self.source not in HINT_SOURCES:
            raise ValueError(f"bad hint source {self.source!r}")


@dataclass(frozen=True)
class BackendServer:
    ip: str
    provider_id: str
    location: Location
    location_confidence: str  # unanimous | majority | tiebreak
    prefix: str
    asn: int
    sharing: str  # dedicated | shared
    sources: frozenset[str]
    region_token: str | None = None

    def __post_init__(self) -> None:
        if self.asn <= 0:
            raise ValueError("asn must be positive")
        if not prefix_contains(self.prefix, self.ip):
            raise ValueError(f"prefix {self.prefix} does not contain {self.ip}")
        if self.sharing not in ("dedicated", "shared"):
            raise ValueError(f"bad sharing class {self.sharing!r}")


@dataclass(frozen=True)
class StabilityDiff:
    provider_id: str
    date_a: str
    date_b: str
    in_both: frozenset[str]
    only_a: frozenset[str]  # removed
    only_b: frozenset[str]  # new


def locate(
    region_token: str | None,
    region_map: Mapping[str, Location],
    hints: Sequence[LocationHint] = (),
) -> tuple[Location, str]:
    """Resolve a server location.

    A known region token wins outright (unanimous). Otherwise hints vote at
    country level; city is kept only when every hint agrees. A tied vote
    falls back to the hint whose source has the highest fixed priority.
    """
    if region_token:
        mapped = region_map.get(region_token.lower())
        if mapped is not None:
            return mapped, "unanimous"
    if not hints:
        raise UnlocatableError("unlocatable: no mapped region token and no hints")

    votes = Counter(h.location.country for h in hints)
    top_count = max(votes.values())
    leaders = sorted(c for c, n in votes.items() if n == top_count)
    if len(votes) == 1:
        country, confidence = leaders[0], "unanimous"
    elif len(leaders) == 1 and top_count > len(hints) / 2:
        country, confidence = leaders[0], "majority"
    else:
        # Tie (or plurality without majority): best source priority decides,
        # then country code, keeping the result permutation-invariant.
        def rank(country: str) -> tuple[int, str]:
            best = min(_HINT_PRIORITY[h.source] for h in hints
                       if h.location.country == country)
            return (best, country)

        country, confidence = min(leaders, key=rank), "tiebreak"

    cities = {h.location.city for h in hints if h.location.country == country}
    city = cities.pop() if confidence == "unanimous" and len(cities) == 1 else None
    return Location.of(country, city), confidence


# --- prefix -> origin AS table -------------------------------------------------


@dataclass(frozen=True)
class RouteEntry:
    prefix: str
    origins: tuple[int, ...]

    @property
    def primary_asn(self) -> int:
        return min(self.origins)


class PrefixTable:
    """Longest-prefix-match lookups over a static prefix2as snapshot."""

    def __init__(self) -> None:
        self._index: PrefixIndex[RouteEntry] = PrefixIndex()

    def add(self, prefix: str, origins: Sequence[int]) -> None:
        net = parse_network(prefix)
        self._index[net] = RouteEntry(prefix=str(net), origins=tuple(sorted(set(origins))))

    def lookup(self, ip: str) -> RouteEntry:
        hits = self._index.containing(ip)
        if not hits:
            raise UnroutedError(f"unrouted: no covering prefix for {ip}")
        return hits[0]


def load_prefix_table(path: str | Path) -> PrefixTable:
    """Parse ``prefix<TAB>length<TAB>asn`` rows; multi-origin asn fields are
    underscore-joined. Comment lines (#) and blank lines are ignored."""
    table = PrefixTable()
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError(f"{path}:{line_no}: expected 3 tab-separated fields")
            prefix, length, asn_field = parts
            origins = [int(a) for a in asn_field.split("_")]
            table.add(f"{prefix}/{int(length)}", origins)
    return table


def map_prefix_asn(ip: str, table: PrefixTable) -> tuple[str, int, tuple[int, ...]]:
    """Longest-prefix match: (prefix, primary asn, full origin set)."""
    entry = table.lookup(ip)
    return entry.prefix, entry.primary_asn, entry.origins


# --- snapshot diffing and diversity ----------------------------------------------


def diff_snapshots(
    a: Collection[tuple[str, str]],
    b: Collection[tuple[str, str]],
    date_a: str = "a",
    date_b: str = "b",
) -> dict[str, StabilityDiff]:
    """Per-provider partition of two dated snapshots, given as their
    (provider, ip) keys; candidate mappings work as they are."""
    by_provider: dict[str, tuple[set[str], set[str]]] = {}
    for side, keys in enumerate((a, b)):
        for pid, ip in keys:
            by_provider.setdefault(pid, (set(), set()))[side].add(ip)
    out = {}
    for pid, (ips_a, ips_b) in sorted(by_provider.items()):
        out[pid] = StabilityDiff(
            provider_id=pid, date_a=date_a, date_b=date_b,
            in_both=frozenset(ips_a & ips_b),
            only_a=frozenset(ips_a - ips_b),
            only_b=frozenset(ips_b - ips_a),
        )
    return out


@dataclass(frozen=True)
class DiversityRow:
    provider_id: str
    asn_count: int
    v4_prefix_count: int  # distinct /24s
    v6_prefix_count: int  # distinct /56s
    location_count: int
    country_count: int


def diversity_report(servers: Iterable[BackendServer]) -> dict[str, DiversityRow]:
    """Aggregation-width prefix, ASN, location and country diversity."""
    acc: dict[str, dict[str, set]] = {}
    for s in servers:
        slot = acc.setdefault(s.provider_id, {
            "asns": set(), "v4": set(), "v6": set(), "locs": set(), "countries": set()})
        slot["asns"].add(s.asn)
        prefix = truncate_prefix(s.ip)
        slot["v6" if ":" in prefix else "v4"].add(prefix)
        slot["locs"].add((s.location.country, s.location.city))
        slot["countries"].add(s.location.country)
    return {
        pid: DiversityRow(
            provider_id=pid,
            asn_count=len(slot["asns"]),
            v4_prefix_count=len(slot["v4"]),
            v6_prefix_count=len(slot["v6"]),
            location_count=len(slot["locs"]),
            country_count=len(slot["countries"]),
        )
        for pid, slot in sorted(acc.items())
    }


def _region_token(matches: NameMatches, pid: str, fqdns: Iterable[str]) -> str | None:
    """The region token of the first name, in sorted order, that the
    provider's own pattern matches with one."""
    for fqdn in sorted(fqdns):
        for result in matches[fqdn]:
            if result.provider_id == pid and result.region_token:
                return result.region_token
    return None


def enrich_candidates(
    candidates: Mapping[tuple[str, str], CandidateAddress],
    profiles_by_id: Mapping[str, ProviderProfile],
    patterns: Sequence[DomainPattern] | NameMatches,
    table: PrefixTable,
    sharing: Mapping[tuple[str, str], str],
    hints: Mapping[str, Sequence[LocationHint]] | None = None,
) -> tuple[list[BackendServer], list[tuple[str, str, str]]]:
    """Build BackendServer records for every routable, locatable candidate.

    Returns (servers, skipped) where skipped rows carry (provider, ip,
    reason: unrouted|unlocatable). Region tokens are re-extracted from the
    candidate's matched FQDNs via the provider's own pattern; `patterns`
    may be the run's NameMatches, which has matched them already.
    """
    hints = hints or {}
    matches = name_matches(patterns)
    servers: list[BackendServer] = []
    skipped: list[tuple[str, str, str]] = []
    for (pid, ip), cand in sorted(candidates.items()):
        profile = profiles_by_id[pid]
        token = _region_token(matches, pid, cand.fqdns)
        try:
            prefix, asn, _ = map_prefix_asn(ip, table)
        except UnroutedError:
            skipped.append((pid, ip, "unrouted"))
            continue
        try:
            location, confidence = locate(token, profile.region_map, tuple(hints.get(ip, ())))
        except UnlocatableError:
            skipped.append((pid, ip, "unlocatable"))
            continue
        servers.append(BackendServer(
            ip=ip, provider_id=pid, location=location,
            location_confidence=confidence, prefix=prefix, asn=asn,
            sharing=sharing.get((pid, ip), "dedicated"),
            sources=cand.sources, region_token=token,
        ))
    return servers, skipped
