"""Enrich candidate IPs into located, routed backend server records.

Location resolution prefers the region token embedded in the domain name;
otherwise a country-level majority vote over external hints decides, with
ties broken by a fixed source-priority order. Routing data comes from a
static prefix-to-origin-AS table in the common ``prefix<TAB>len<TAB>asn``
text convention (multi-origin rows joined by underscores).
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from typing import Collection, Iterable, Mapping, NamedTuple, Sequence

# names are matched through ingest.NameMatches; `match_fqdn` stays bound here
# because perfbench/layers.py wraps it at this name
from .catalog import ProviderProfile, match_fqdn  # noqa: F401
from .fusion import CandidateAddress
from .geo import Location
from .ingest import NameMatches
from .netutil import PrefixIndex, ip_family, parse_prefix, truncate_prefix
from .records import Checked

HINT_SOURCES = ("region-token", "prefix-announcement", "scan-metadata", "latency-probe")

_HINT_PRIORITY = {src: i for i, src in enumerate(HINT_SOURCES)}


class UnlocatableError(ValueError):
    """No region token and no usable hints for an address."""


class UnroutedError(LookupError):
    """No covering prefix in the routing table."""


class _LocationHint(NamedTuple):
    ip: str
    source: str
    location: Location


class LocationHint(Checked, _LocationHint):
    __slots__ = ()

    def _checked(self) -> LocationHint:
        if self.source not in HINT_SOURCES:
            raise ValueError(f"bad hint source {self.source!r}")
        return self


class BackendServer(NamedTuple):
    """A located, routed server. `enrich_candidates` builds it from its own
    prefix lookup, so the prefix holds the address; `pipeline.read_servers`
    checks what it reads."""

    ip: str
    provider_id: str
    location: Location
    location_confidence: str  # unanimous | majority | tiebreak
    prefix: str
    asn: int
    sharing: str  # dedicated | shared
    sources: frozenset[str]
    region_token: str | None = None


class StabilityDiff(NamedTuple):
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


class RouteEntry(NamedTuple):
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
        origins = tuple(sorted(set(origins)))
        self._index.insert(parse_prefix(prefix),
                           lambda text, _: RouteEntry(prefix=text, origins=origins))

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
            try:
                origins = [int(a) for a in asn_field.split("_")]
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: field 'asn': {exc}") from None
            if min(origins) <= 0:  # a server takes the least origin as its asn
                raise ValueError(f"{path}:{line_no}: field 'asn': asn must be positive")
            try:
                table.add(f"{prefix}/{int(length)}", origins)
            except ValueError as exc:
                try:  # the address alone tells a bad address from a bad length
                    ip_family(prefix)
                except ValueError as bad:
                    raise ValueError(f"{path}:{line_no}: field 'prefix': {bad}") from None
                raise ValueError(f"{path}:{line_no}: field 'length': {exc}") from None
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


class DiversityRow(NamedTuple):
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
    matches: NameMatches,
    table: PrefixTable,
    sharing: Mapping[tuple[str, str], str],
    hints: Mapping[str, Sequence[LocationHint]] | None = None,
) -> tuple[list[BackendServer], list[tuple[str, str, str]]]:
    """Build BackendServer records for every routable, locatable candidate.

    Returns (servers, skipped) where skipped rows carry (provider, ip,
    reason: unrouted|unlocatable). Region tokens are re-extracted from the
    candidate's matched FQDNs via the provider's own pattern; the run's
    `matches` has matched them already.
    """
    hints = hints or {}
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
