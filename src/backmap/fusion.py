"""Fuse per-source observations into candidate server sets and classify them.

A candidate is one (provider, ip) pair with the union of sources and names
that produced it. Sharing classification counts how many reverse-DNS names
of an IP match no provider at all: past a threshold the IP is treated as
shared hosting rather than a dedicated gateway.
"""

from __future__ import annotations

import ipaddress
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

# names are matched through ingest.NameMatches; `match_fqdn` stays bound here
# because perfbench/layers.py wraps it at this name
from .catalog import DomainPattern, match_fqdn, normalize_fqdn  # noqa: F401
from .ingest import SOURCES, NameMatches, Observation, name_matches
from .jsonl import Memo, naming_fields, quote, quote_sorted, read_jsonl, text, texts, write_lines
from .netutil import canonical_ip, ip_family, parse_network
from .records import Checked
from .timeutil import fmt_epoch, iso_second, parse_iso

SOURCE_CLASSES = ("tls-only", "pdns-only", "adns-only", "multiple")

_SOLO_CLASS = {"tls-cert": "tls-only", "passive-dns": "pdns-only", "active-dns": "adns-only"}

# what a candidate holds of one day's observations: (sources, first_seen,
# last_seen, fqdns)
Slot = tuple[frozenset[str], int, int, frozenset[str]]

# fuse gathers a slot's sources as bits, and each set of them is one object
_SOURCE_BIT = {source: 1 << i for i, source in enumerate(SOURCES)}
_SOURCE_SETS = tuple(frozenset(s for s, bit in _SOURCE_BIT.items() if bits & bit)
                     for bits in range(1 << len(SOURCES)))


class ReverseIndexMissError(KeyError):
    """The reverse index has no row for the requested IP (distinct from an
    empty row, which legitimately counts zero non-matching names)."""


class CandidateAddress(NamedTuple):
    """One (provider, ip) candidate: `fuse` builds it from observations and
    `read_candidates` checks what it reads."""

    ip: str
    provider_id: str
    sources: frozenset[str]
    first_seen: int
    last_seen: int
    fqdns: frozenset[str]

    def source_class(self) -> str:
        if len(self.sources) >= 2:
            return "multiple"
        return _SOLO_CLASS[next(iter(self.sources))]


class SharingVerdict(NamedTuple):
    ip: str
    provider_id: str
    non_matching_domain_count: int
    matching_domain_count: int
    verdict: str
    threshold_used: int


class _GroundTruthSet(NamedTuple):
    provider_id: str
    prefixes: tuple[str, ...]
    networks: tuple = ()  # the parsed prefixes, set by the constructor


class GroundTruthSet(Checked, _GroundTruthSet):
    """A provider's published prefixes, in canonical text. `networks`
    follows from them, so two sets compare as their ids and prefixes do."""

    __slots__ = ()

    def _checked(self) -> GroundTruthSet:
        nets = tuple(parse_network(p) for p in self.prefixes)
        for i, a in enumerate(nets):
            for b in nets[i + 1:]:
                if a.version == b.version and a.overlaps(b):
                    raise ValueError(f"overlapping truth prefixes: {a} and {b}")
        return tuple.__new__(type(self), (self.provider_id, tuple(map(str, nets)), nets))

    def contains(self, ip: str) -> bool:
        addr = ipaddress.ip_address(ip)
        return any(addr in net for net in self.networks)


class CoverageReport(NamedTuple):
    provider_id: str
    identified_in_truth: frozenset[str]
    identified_outside_truth: frozenset[str]
    truth_active: frozenset[str]
    missed_active: frozenset[str]


def fuse(observations: Iterable[Observation], day_of: Callable[[int], str]
         ) -> tuple[dict[tuple[str, str], CandidateAddress],
                    dict[str, dict[tuple[str, str], Slot]]]:
    """Collapse observations to one candidate per (provider, ip) for the
    run, and to one slot per (provider, ip) for each local day, `day_of`
    giving the date of an instant.

    A slot holds what a candidate holds: (sources, first_seen, last_seen,
    fqdns). Each observation goes to its day's slot once; the run's
    candidates are the union of their keys' slots. Candidates come in
    (provider, ip) order, days in date order and each day's slots in
    (provider, ip) order. Order-independent and idempotent: sources and
    names union, timestamps span.
    """
    acc: dict[tuple[str, str, str], list] = {}
    for obs in observations:
        seen = obs.seen_at
        key = (obs.provider_id, obs.ip, day_of(seen))
        slot = acc.get(key)
        if slot is None:
            acc[key] = [_SOURCE_BIT[obs.source], seen, seen, {obs.fqdn}]
        else:
            slot[0] |= _SOURCE_BIT[obs.source]
            if seen < slot[1]:
                slot[1] = seen
            elif seen > slot[2]:
                slot[2] = seen
            slot[3].add(obs.fqdn)
    run: dict[tuple[str, str], list] = {}
    days: dict[str, dict[tuple[str, str], Slot]] = defaultdict(dict)
    for (pid, ip, day), (bits, first, last, fqdns) in sorted(acc.items()):
        key, fqdns = (pid, ip), frozenset(fqdns)
        days[day][key] = (_SOURCE_SETS[bits], first, last, fqdns)
        union = run.get(key)
        if union is None:
            run[key] = [bits, first, last, fqdns]
        else:
            union[0] |= bits
            union[1] = min(union[1], first)
            union[2] = max(union[2], last)
            if fqdns != union[3]:
                union[3] |= fqdns
    candidates = {(pid, ip): CandidateAddress(ip, pid, _SOURCE_SETS[bits], first, last, fqdns)
                  for (pid, ip), (bits, first, last, fqdns) in run.items()}
    return candidates, dict(sorted(days.items()))


class SourceContribution(NamedTuple):
    provider_id: str
    family: int
    counts: Mapping[str, int]
    fractions: Mapping[str, float]
    total: int


def source_contribution(
    candidates: Iterable[CandidateAddress],
) -> dict[tuple[str, int], SourceContribution]:
    """Per provider and address family: candidate counts and fractions by
    source class. Fractions sum to 1 per (provider, family)."""
    counts: dict[tuple[str, int], dict[str, int]] = {}
    for cand in candidates:
        key = (cand.provider_id, ip_family(cand.ip))
        bucket = counts.setdefault(key, {cls: 0 for cls in SOURCE_CLASSES})
        bucket[cand.source_class()] += 1
    out = {}
    for key, bucket in counts.items():
        total = sum(bucket.values())
        fractions = {cls: bucket[cls] / total for cls in SOURCE_CLASSES}
        out[key] = SourceContribution(
            provider_id=key[0], family=key[1],
            counts=dict(bucket), fractions=fractions, total=total,
        )
    return out


def classify_sharing(
    ip: str,
    provider_id: str,
    reverse_index: Mapping[str, Iterable[str]],
    patterns: Sequence[DomainPattern] | NameMatches,
    threshold: int = 2,
) -> SharingVerdict:
    """Count distinct reverse names (compared after `normalize_fqdn`) that
    match no provider pattern; shared iff the count strictly exceeds the
    threshold. `patterns` may be a NameMatches over the catalog's patterns,
    so that the calls of one run match each distinct name once."""
    ip = canonical_ip(ip)
    if ip not in reverse_index:
        raise ReverseIndexMissError(f"no reverse data for {ip}")
    matches = name_matches(patterns)
    non_matching = 0
    matching = 0
    for name in {normalize_fqdn(n) for n in reverse_index[ip]}:
        # match_fqdn normalises `name` again; an empty name raises
        if matches[name]:
            matching += 1
        else:
            non_matching += 1
    verdict = "shared" if non_matching > threshold else "dedicated"
    return SharingVerdict(
        ip=ip, provider_id=provider_id,
        non_matching_domain_count=non_matching,
        matching_domain_count=matching,
        verdict=verdict, threshold_used=threshold,
    )


def build_reverse_index(records: Iterable) -> dict[str, set[str]]:
    """rdata -> rrnames inversion of a passive-DNS export. Accepts the
    PassiveDnsRecord stream used for ingestion (malformed rows skipped)."""
    index: dict[str, set[str]] = {}
    for rec in records:
        rdata = getattr(rec, "rdata", None)
        rrname = getattr(rec, "rrname", None)
        if rdata is None or rrname is None:
            continue
        index.setdefault(rdata, set()).add(rrname)
    return index


def validate_against_ground_truth(
    candidates: Iterable[CandidateAddress],
    truth: GroundTruthSet,
    active_ips: Iterable[str] | None = None,
) -> CoverageReport:
    """Coverage of a provider's candidates against its published prefixes."""
    identified = {c.ip for c in candidates if c.provider_id == truth.provider_id}
    in_truth = frozenset(ip for ip in identified if truth.contains(ip))
    outside = frozenset(identified - in_truth)
    if active_ips is not None:
        active = {canonical_ip(ip) for ip in active_ips}
        truth_active = frozenset(ip for ip in active if truth.contains(ip))
        missed = frozenset(truth_active - identified)
    else:
        truth_active = frozenset()
        missed = frozenset()
    return CoverageReport(
        provider_id=truth.provider_id,
        identified_in_truth=in_truth,
        identified_outside_truth=outside,
        truth_active=truth_active,
        missed_active=missed,
    )


# --- candidate snapshots -------------------------------------------------------


class CandidateLines:
    """`line(pid, ip, sources, first_seen, last_seen, fqdns)` is a candidate
    file's line for those values, byte for byte as `json.dumps` writes the
    document `read_candidates` reads. A run's candidate file and day
    snapshots share one formatter, so each distinct instant, source set and
    name set is formatted once."""

    def __init__(self) -> None:
        self.instants = Memo(lambda ts: quote(fmt_epoch(ts)))
        self.sources = Memo(quote_sorted)
        self.fqdns = Memo(quote_sorted)

    def __call__(self, pid: str, ip: str, sources: frozenset[str], first: int, last: int,
                 fqdns: frozenset[str]) -> str:
        instants = self.instants
        return (f'{{"provider_id": {quote(pid)}, "ip": {quote(ip)}, '
                f'"sources": {self.sources[sources]}, '
                f'"first_seen": {instants[first]}, "last_seen": {instants[last]}, '
                f'"fqdns": {self.fqdns[fqdns]}}}\n')


def write_candidates(path: str | Path,
                     candidates: Mapping[tuple[str, str], CandidateAddress],
                     line: CandidateLines | None = None) -> None:
    """Candidate file, one line per (provider, ip), byte-stable order."""
    line = line or CandidateLines()
    write_lines(path, (line(c.provider_id, c.ip, c.sources, c.first_seen, c.last_seen, c.fqdns)
                       for _, c in sorted(candidates.items())))


def write_snapshot(path: str | Path, slots: Mapping[tuple[str, str], Slot],
                   line: CandidateLines) -> None:
    """Dated snapshot file of one day's `fuse` slots, in their order: the
    candidate file those slots' candidates would make."""
    write_lines(path, (line(pid, ip, *slot) for (pid, ip), slot in slots.items()))


def _candidate(instants: Memo) -> Callable[[dict], CandidateAddress]:
    def build(doc: dict) -> CandidateAddress:
        ip, provider_id = text(doc["ip"]), text(doc["provider_id"])
        sources = frozenset(texts(doc["sources"]))
        first_seen, last_seen = instants(doc["first_seen"]), instants(doc["last_seen"])
        fqdns = frozenset(texts(doc["fqdns"]))
        if not sources:
            raise ValueError("sources must be non-empty")
        if first_seen > last_seen:
            raise ValueError("first_seen after last_seen")
        return CandidateAddress(ip, provider_id, sources, first_seen, last_seen, fqdns)
    return build


_CANDIDATE_CHECKS = {
    "provider_id": text, "ip": text, "sources": texts,
    "first_seen": lambda v: parse_iso(text(v)), "last_seen": lambda v: parse_iso(text(v)),
    "fqdns": texts,
}


def read_candidates(path: str | Path) -> dict[tuple[str, str], CandidateAddress]:
    build = _candidate(Memo(iso_second))  # the candidates share a few instants
    return {(c.provider_id, c.ip): c
            for c in read_jsonl(path, naming_fields(build, _CANDIDATE_CHECKS))}


def snapshot_filename(date: str) -> str:
    return f"candidates-{date}"
