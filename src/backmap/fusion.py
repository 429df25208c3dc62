"""Fuse per-source observations into candidate server sets and classify them.

A candidate is one (provider, ip) pair with the union of sources and names
that produced it. Sharing classification counts how many reverse-DNS names
of an IP match no provider at all: past a threshold the IP is treated as
shared hosting rather than a dedicated gateway.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

# names are matched through ingest.NameMatches; `match_fqdn` stays bound here
# because perfbench/layers.py wraps it at this name
from .catalog import DomainPattern, match_fqdn, normalize_fqdn  # noqa: F401
from .ingest import NameMatches, Observation, name_matches
from .jsonl import (Memo, naming_fields, quote, quote_list, quote_sorted, read_jsonl, text, texts,
                    write_lines)
from .netutil import canonical_ip, ip_family, parse_network
from .timeutil import fmt_epoch, parse_iso, to_epoch

SOURCE_CLASSES = ("tls-only", "pdns-only", "adns-only", "multiple")

_SOLO_CLASS = {"tls-cert": "tls-only", "passive-dns": "pdns-only", "active-dns": "adns-only"}


class ReverseIndexMissError(KeyError):
    """The reverse index has no row for the requested IP (distinct from an
    empty row, which legitimately counts zero non-matching names)."""


@dataclass(frozen=True)
class CandidateAddress:
    ip: str
    provider_id: str
    sources: frozenset[str]
    first_seen: int
    last_seen: int
    fqdns: frozenset[str]

    def __post_init__(self) -> None:
        if not self.sources:
            raise ValueError("sources must be non-empty")
        if self.first_seen > self.last_seen:
            raise ValueError("first_seen after last_seen")

    def source_class(self) -> str:
        if len(self.sources) >= 2:
            return "multiple"
        return _SOLO_CLASS[next(iter(self.sources))]


@dataclass(frozen=True)
class SharingVerdict:
    ip: str
    provider_id: str
    non_matching_domain_count: int
    matching_domain_count: int
    verdict: str
    threshold_used: int


@dataclass(frozen=True)
class GroundTruthSet:
    provider_id: str
    prefixes: tuple[str, ...]

    def __post_init__(self) -> None:
        nets = [parse_network(p) for p in self.prefixes]
        object.__setattr__(self, "prefixes", tuple(str(n) for n in nets))
        object.__setattr__(self, "_networks", tuple(nets))
        for i, a in enumerate(nets):
            for b in nets[i + 1:]:
                if a.version == b.version and a.overlaps(b):
                    raise ValueError(f"overlapping truth prefixes: {a} and {b}")

    def contains(self, ip: str) -> bool:
        addr = ipaddress.ip_address(ip)
        return any(addr in net for net in self._networks)


@dataclass(frozen=True)
class CoverageReport:
    provider_id: str
    identified_in_truth: frozenset[str]
    identified_outside_truth: frozenset[str]
    truth_active: frozenset[str]
    missed_active: frozenset[str]


def fuse(observations: Iterable[Observation]) -> dict[tuple[str, str], CandidateAddress]:
    """Collapse observations to one candidate per (provider, ip).

    Order-independent and idempotent: sources/names union, timestamps span.
    """
    acc: dict[tuple[str, str], list] = {}
    for obs in observations:
        key = (obs.provider_id, obs.ip)
        slot = acc.get(key)
        if slot is None:
            acc[key] = [{obs.source}, obs.seen_at, obs.seen_at, {obs.fqdn}]
        else:
            slot[0].add(obs.source)
            slot[1] = min(slot[1], obs.seen_at)
            slot[2] = max(slot[2], obs.seen_at)
            slot[3].add(obs.fqdn)
    return {
        (pid, ip): CandidateAddress(
            ip=ip, provider_id=pid, sources=frozenset(s),
            first_seen=first, last_seen=last, fqdns=frozenset(names),
        )
        for (pid, ip), (s, first, last, names) in acc.items()
    }


@dataclass(frozen=True)
class SourceContribution:
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


def write_candidates(path: str | Path,
                     candidates: Mapping[tuple[str, str], CandidateAddress]) -> None:
    """Dated snapshot file, one line per (provider, ip), byte-stable order."""
    iso = Memo(fmt_epoch)
    sources = Memo(quote_sorted)  # the candidates share a few distinct source sets
    write_lines(path, (
        f'{{"provider_id": {quote(c.provider_id)}, "ip": {quote(c.ip)}, '
        f'"sources": {sources[c.sources]}, '
        f'"first_seen": {quote(iso[c.first_seen])}, "last_seen": {quote(iso[c.last_seen])}, '
        f'"fqdns": {quote_list(sorted(c.fqdns))}}}\n'
        for _, c in sorted(candidates.items())))


def _candidate(doc: dict) -> CandidateAddress:
    # CandidateAddress checks no types, so the text fields are checked here
    return CandidateAddress(
        ip=text(doc["ip"]), provider_id=text(doc["provider_id"]),
        sources=frozenset(texts(doc["sources"])),
        first_seen=to_epoch(parse_iso(doc["first_seen"])),
        last_seen=to_epoch(parse_iso(doc["last_seen"])),
        fqdns=frozenset(texts(doc["fqdns"])),
    )


_CANDIDATE_CHECKS = {
    "provider_id": text, "ip": text, "sources": texts,
    "first_seen": lambda v: parse_iso(text(v)), "last_seen": lambda v: parse_iso(text(v)),
    "fqdns": texts,
}


def read_candidates(path: str | Path) -> dict[tuple[str, str], CandidateAddress]:
    return {(c.provider_id, c.ip): c
            for c in read_jsonl(path, naming_fields(_candidate, _CANDIDATE_CHECKS))}


def snapshot_filename(date: str) -> str:
    return f"candidates-{date}"
