"""Seeded synthetic universes: providers, servers, discovery views, flows.

Every generated artifact (catalog, discovery exports, flow trace, routing
table, blocklists) is derived from one seeded configuration, and the
generator keeps a ground-truth log of everything it decided: server
locations and ASNs, per-source visibility, line assignments, scanner
lines, injected outages and blocklist plants, plus running flow truth
accumulators filled while the flow stream is consumed. The oracle module
recomputes pipeline metrics from that log alone.

Packet sampling is deterministic: a global packet counter runs across the
generation order and every Nth packet is sampled, so the same seed always
produces byte-identical exports. A flow record is emitted only when at
least one of its packets was sampled.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from datetime import timedelta
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

from .catalog import ProviderProfile, RegionGrammar, SubdomainRule
from .flows import DOWN, UP, FlowRecord
from .geo import Location, region_class
from .ingest import CertScanRecord, PassiveDnsRecord, ResolutionResult, StudyWindow
from .netutil import ip_family
from .timeutil import LocalDays, from_epoch, parse_iso, to_epoch


def largest_remainder(weights: Sequence[float], total: int) -> list[int]:
    """Integer quota allocation that always sums to `total`, deterministic."""
    if total < 0:
        raise ValueError("total must be >= 0")
    s = sum(weights)
    if s <= 0:
        raise ValueError("weights must sum to a positive value")
    raw = [w / s * total for w in weights]
    counts = [math.floor(r) for r in raw]
    short = total - sum(counts)
    order = sorted(range(len(weights)), key=lambda i: (-(raw[i] - counts[i]), i))
    for i in order[:short]:
        counts[i] += 1
    return counts


# --- configuration -----------------------------------------------------------------


@dataclass(frozen=True)
class RegionSpec:
    token: str
    country: str
    server_weight: float = 1.0
    traffic_weight: float = 1.0


@dataclass(frozen=True)
class AsnSpec:
    asn: int
    kind: str = "self"  # self | cloud | other
    weight: float = 1.0


@dataclass(frozen=True)
class PortSpec:
    port: int
    transport: str = "tcp"
    share: float = 1.0


@dataclass(frozen=True)
class ProviderSpec:
    provider_id: str
    n_servers: int
    regions: tuple[RegionSpec, ...] = (RegionSpec("r1", "DE"),)
    asns: tuple[AsnSpec, ...] = (AsnSpec(64500),)
    coverage: Mapping[str, float] = None  # type: ignore[assignment]
    sni_only: bool = False
    churn_rate: float = 0.0
    adoption: float = 0.0
    visible_fraction: float = 1.0
    hidden_active_count: int = 0
    hidden_line_count: int = 1
    shared_count: int = 0
    ports: tuple[PortSpec, ...] = (PortSpec(8883, "tcp", 1.0),)
    down_up_ratio: float = 3.0
    daily_down_bytes: int = 240_000
    byte_sigma: float = 0.0  # lognormal sigma on the daily budget; 0 = constant
    packet_size: int = 500
    diurnal: tuple[float, ...] = (1.0,) * 24
    ipv6_fraction: float = 0.0
    parent_domain: str | None = None

    def __post_init__(self) -> None:
        if self.coverage is None:
            object.__setattr__(self, "coverage",
                               {"tls-cert": 1.0, "passive-dns": 1.0, "active-dns": 1.0})
        for src, frac in self.coverage.items():
            if src not in ("tls-cert", "passive-dns", "active-dns"):
                raise ValueError(f"unknown source {src!r}")
            if not 0.0 <= frac <= 1.0:
                raise ValueError(f"coverage for {src} must be in [0, 1]")
        if not 0.0 <= self.adoption <= 1.0:
            raise ValueError("adoption must be in [0, 1]")
        if not 0.0 <= self.visible_fraction <= 1.0:
            raise ValueError("visible_fraction must be in [0, 1]")
        if len(self.diurnal) != 24:
            raise ValueError("diurnal needs 24 hourly multipliers")
        if abs(sum(p.share for p in self.ports) - 1.0) > 1e-9:
            raise ValueError("port shares must sum to 1")
        if self.n_servers < 1:
            raise ValueError("n_servers must be >= 1")


@dataclass(frozen=True)
class ScannerSpec:
    count: int = 0
    breadth: int = 0
    # probe packets per contacted server; raise above the sampling rate when a
    # sampled trace should still reveal the scanners
    packets_per_contact: int = 1


@dataclass(frozen=True)
class OutageSpec:
    provider_id: str
    region_token: str
    start_hour: int  # offset in hours from window start
    duration_hours: int
    drop_below_min: float  # target level = (1 - drop) * previous-week minimum


@dataclass(frozen=True)
class UniverseConfig:
    seed: int
    window: StudyWindow
    n_lines: int
    providers: tuple[ProviderSpec, ...]
    scanners: ScannerSpec = ScannerSpec()
    sampling_rate: int = 1
    timezone: str = "UTC"
    deterministic_activity: bool = False
    random_sampling: bool = False
    baseline_days: int = 0
    outages: tuple[OutageSpec, ...] = ()
    blocklist_hits: Mapping[str, int] = field(default_factory=dict)
    keep_flow_rows: bool = True

    def __post_init__(self) -> None:
        if self.sampling_rate < 1:
            raise ValueError("sampling_rate must be >= 1")
        adoption = sum(p.adoption for p in self.providers)
        if adoption > 1.0 + 1e-9:
            raise ValueError("provider adoption fractions exceed the line population")
        ids = [p.provider_id for p in self.providers]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate provider ids in universe config")
        for outage in self.outages:
            if outage.provider_id not in ids:
                raise ValueError(f"outage references unknown provider {outage.provider_id}")
            if not 0.0 < outage.drop_below_min < 1.0:
                raise ValueError("drop_below_min must be in (0, 1)")


# --- ground truth ---------------------------------------------------------------------


@dataclass(frozen=True)
class ServerTruth:
    provider_id: str
    ip: str
    fqdn: str
    region_token: str
    country: str
    asn: int
    asn_kind: str
    sharing: str
    sources: frozenset[str]
    first_day: int
    last_day: int | None  # None = alive through the end
    visible: bool  # assigned ISP traffic
    hidden: bool  # visible but kept out of every discovery source


@dataclass
class FlowTruth:
    """Truth accumulators filled while the flow stream is consumed.

    Scanner lines never reach the per-provider rollups (their flows carry
    no provider); `line_contacts` is keyed (line, local date) and keeps
    every line, scanners included, for the scanner/sweep oracles. Est
    values are sampled bytes scaled by the sampling rate; true values are
    unsampled totals including traffic the pipeline cannot attribute.
    """

    provider_true_down: dict = field(default_factory=dict)
    provider_true_up: dict = field(default_factory=dict)
    provider_est_down: dict = field(default_factory=dict)
    provider_est_up: dict = field(default_factory=dict)
    provider_sampled_packets: dict = field(default_factory=dict)
    provider_hour_lines: dict = field(default_factory=dict)
    provider_port_est: dict = field(default_factory=dict)
    provider_lines: dict = field(default_factory=dict)
    provider_lines_cert: dict = field(default_factory=dict)
    provider_contacted_fam: dict = field(default_factory=dict)
    line_contacts: dict = field(default_factory=dict)
    line_regions: dict = field(default_factory=dict)
    region_est: dict = field(default_factory=dict)
    token_hour_true_down: dict = field(default_factory=dict)
    token_hour_est_down: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)
    emitted_records: int = 0
    true_records: int = 0
    complete: bool = False


@dataclass
class GroundTruthLog:
    seed: int
    window: StudyWindow
    timezone: str
    sampling_rate: int
    servers: list[ServerTruth]
    daily_discovered: dict[str, dict[str, tuple[str, ...]]]
    churn: dict[str, dict[str, tuple[tuple[str, ...], tuple[str, ...]]]]
    assignments: dict[str, tuple[str, str, int, str]]  # line -> (pid, ip, port, transport)
    scanner_lines: frozenset[str]
    scanner_targets: dict[str, tuple[str, ...]]
    outages: tuple[OutageSpec, ...]
    blocklist_planted: dict[str, dict[str, tuple[str, ...]]]  # list_id -> pid -> ips
    flow: FlowTruth = field(default_factory=FlowTruth)

    def discovered_servers(self) -> list[ServerTruth]:
        return [s for s in self.servers if s.sources]

    def dedicated_discovered_ips(self) -> set[str]:
        return {s.ip for s in self.servers if s.sources and s.sharing == "dedicated"}


# --- generation ----------------------------------------------------------------------------


def _provider_parent(spec: ProviderSpec, index: int) -> str:
    return spec.parent_domain or f"{spec.provider_id}-backend.example"


def _server_v4(provider_index: int, j: int) -> str:
    if j >= 250 * 250:
        raise ValueError("provider server space exhausted")
    return f"10.{provider_index + 1}.{j // 250}.{j % 250 + 1}"


def _server_v6(provider_index: int, j: int) -> str:
    return f"2001:db8:{provider_index + 1:x}::{j + 1:x}"


class SyntheticUniverse:
    """One generated universe: catalog, discovery exports, flow stream, truth."""

    def __init__(self, config: UniverseConfig) -> None:
        self.config = config
        self.profiles: list[ProviderProfile] = []
        self.prefix_rows: list[tuple[str, int, str]] = []
        self.cert_records: list[CertScanRecord] = []
        self.pdns_records: list[PassiveDnsRecord] = []
        self.resolutions: list[ResolutionResult] = []
        self.blocklists: dict[str, list[str]] = {}
        self.excluded_blocklist: str | None = None
        self.truth: GroundTruthLog | None = None
        self._assign: dict[str, tuple[str, str, int, str, str, int]] = {}
        self._provider_lines: dict[str, list[str]] = {}
        self._build()

    # -- static universe --------------------------------------------------------

    def _build(self) -> None:
        cfg = self.config
        n_days = (cfg.window.end - cfg.window.start).days
        if (cfg.window.end - cfg.window.start) != timedelta(days=n_days):
            raise ValueError("study window must cover whole days")
        self.n_days = n_days
        # each study day's (local date, first second): the window start plus
        # whole days, or the first local midnight in the two hours after that
        # when there is one, so that its observations, 30 min to 2 h into the
        # day, fall on one local date
        local_days = LocalDays(cfg.timezone)
        days = []
        for day in range(n_days):
            day_start = to_epoch(cfg.window.start) + day * 86400
            date, midnight, _ = local_days.day(day_start + 7200)
            days.append((date, max(day_start, midnight)))

        servers: list[ServerTruth] = []
        daily: dict[str, dict[str, tuple[str, ...]]] = {}
        churn: dict[str, dict[str, tuple[tuple[str, ...], tuple[str, ...]]]] = {}

        for p_index, spec in enumerate(cfg.providers):
            parent = _provider_parent(spec, p_index)
            self.profiles.append(self._make_profile(spec, parent))

            rng = random.Random(f"{cfg.seed}:servers:{spec.provider_id}")
            region_counts = largest_remainder(
                [r.server_weight for r in spec.regions], spec.n_servers)
            v6_count = round(spec.ipv6_fraction * spec.n_servers)
            asn_counts = largest_remainder([a.weight for a in spec.asns], spec.n_servers)
            asn_of: list[AsnSpec] = []
            for a, count in zip(spec.asns, asn_counts):
                asn_of.extend([a] * count)

            visible_count = round(spec.visible_fraction * spec.n_servers)
            if spec.hidden_active_count > visible_count:
                raise ValueError(f"{spec.provider_id}: more hidden actives than visible servers")

            provider_servers: list[ServerTruth] = []
            j = 0
            for region, count in zip(spec.regions, region_counts):
                for _ in range(count):
                    fam6 = j >= spec.n_servers - v6_count
                    ip = _server_v6(p_index, j) if fam6 else _server_v4(p_index, j)
                    fqdn = f"d{j:05d}.{region.token}.{parent}"
                    provider_servers.append(ServerTruth(
                        provider_id=spec.provider_id, ip=ip, fqdn=fqdn,
                        region_token=region.token, country=region.country,
                        asn=asn_of[j].asn, asn_kind=asn_of[j].kind,
                        sharing="dedicated", sources=frozenset(),
                        first_day=0, last_day=None, visible=False, hidden=False,
                    ))
                    j += 1

            # ISP-visible subset: deterministic sample; hidden actives sit at
            # its tail and get starved of both discovery and traffic weight.
            visible_idx = sorted(rng.sample(range(spec.n_servers), visible_count))
            hidden_idx = set(visible_idx[-spec.hidden_active_count:]
                             if spec.hidden_active_count else [])
            shared_pool = [i for i in visible_idx if i not in hidden_idx] or visible_idx
            shared_idx = set(shared_pool[:spec.shared_count])

            cov_rng = random.Random(f"{cfg.seed}:coverage:{spec.provider_id}")
            for i, s in enumerate(provider_servers):
                sources = set()
                for src in ("tls-cert", "passive-dns", "active-dns"):
                    frac = spec.coverage.get(src, 0.0)
                    if src == "tls-cert" and spec.sni_only:
                        frac = 0.0
                    if cov_rng.random() < frac:
                        sources.add(src)
                if i in shared_idx:
                    sources.add("passive-dns")  # reverse data must exist
                if i in hidden_idx:
                    sources = set()
                object.__setattr__(s, "sources", frozenset(sources))
                object.__setattr__(s, "visible", i in visible_idx)
                object.__setattr__(s, "hidden", i in hidden_idx)
                if i in shared_idx:
                    object.__setattr__(s, "sharing", "shared")

            # churn: each day after the first, the oldest alive servers rotate out
            rotate = round(spec.churn_rate * spec.n_servers)
            alive = list(range(spec.n_servers))
            next_j = spec.n_servers
            for day in range(1, n_days):
                if not rotate:
                    break
                removed_idx = alive[:rotate]
                alive = alive[rotate:]
                added: list[ServerTruth] = []
                for _ in range(rotate):
                    region = spec.regions[next_j % len(spec.regions)]
                    asn = spec.asns[next_j % len(spec.asns)]
                    ip = _server_v4(p_index, next_j)
                    srv = ServerTruth(
                        provider_id=spec.provider_id, ip=ip,
                        fqdn=f"d{next_j:05d}.{region.token}.{parent}",
                        region_token=region.token, country=region.country,
                        asn=asn.asn, asn_kind=asn.kind, sharing="dedicated",
                        sources=frozenset(s2 for s2 in ("tls-cert", "passive-dns", "active-dns")
                                          if cov_rng.random() < spec.coverage.get(s2, 0.0)
                                          and not (s2 == "tls-cert" and spec.sni_only)),
                        first_day=day, last_day=None, visible=False, hidden=False,
                    )
                    added.append(srv)
                    provider_servers.append(srv)
                    alive.append(next_j)
                    next_j += 1
                for idx in removed_idx:
                    object.__setattr__(provider_servers[idx], "last_day", day - 1)
                churn.setdefault(days[day][0], {})[spec.provider_id] = (
                    tuple(s.ip for s in added if s.sources),
                    tuple(provider_servers[idx].ip for idx in removed_idx
                          if provider_servers[idx].sources),
                )

            servers.extend(provider_servers)
            self._emit_routing(spec, p_index, provider_servers)

        # per-day discovered snapshots
        for day, (date, _) in enumerate(days):
            snap: dict[str, tuple[str, ...]] = {}
            for spec in cfg.providers:
                ips = sorted(
                    s.ip for s in servers
                    if s.provider_id == spec.provider_id and s.sources
                    and s.first_day <= day and (s.last_day is None or day <= s.last_day))
                snap[spec.provider_id] = tuple(ips)
            daily[date] = snap

        self._emit_discovery(servers, days)
        assignments, scanner_lines, scanner_targets = self._assign_population(servers)
        blocklist_planted = self._plant_blocklists(servers)

        self.truth = GroundTruthLog(
            seed=cfg.seed, window=cfg.window, timezone=cfg.timezone,
            sampling_rate=cfg.sampling_rate, servers=servers,
            daily_discovered=daily, churn=churn,
            assignments=assignments, scanner_lines=frozenset(scanner_lines),
            scanner_targets=scanner_targets,
            outages=cfg.outages, blocklist_planted=blocklist_planted,
        )

    def _make_profile(self, spec: ProviderSpec, parent: str) -> ProviderProfile:
        tokens = tuple(r.token for r in spec.regions)
        region_map = {r.token: Location.of(r.country) for r in spec.regions}
        protocols = tuple((f"svc-{p.port}-{p.transport}", p.port, p.transport)
                          for p in spec.ports)
        return ProviderProfile(
            provider_id=spec.provider_id,
            display_name=spec.provider_id,
            parent_domain=parent,
            subdomain_rule=SubdomainRule(kind="wildcard"),
            region_grammar=RegionGrammar(tokens=tokens),
            region_map=region_map,
            documented_protocols=protocols,
            org_asns=frozenset(a.asn for a in spec.asns if a.kind == "self"),
            ipv6_supported=spec.ipv6_fraction > 0,
        )

    def _emit_routing(self, spec: ProviderSpec, p_index: int,
                      provider_servers: list[ServerTruth]) -> None:
        self.prefix_rows.append((f"10.{p_index + 1}.0.0", 16,
                                 str(min(a.asn for a in spec.asns))))
        if spec.ipv6_fraction > 0:
            self.prefix_rows.append((f"2001:db8:{p_index + 1:x}::", 48,
                                     str(min(a.asn for a in spec.asns))))
        for s in provider_servers:
            length = 32 if ip_family(s.ip) == 4 else 128
            self.prefix_rows.append((s.ip, length, str(s.asn)))

    def _emit_discovery(self, servers: list[ServerTruth], days: list[tuple[str, int]]) -> None:
        cfg = self.config
        window_start, window_end = to_epoch(cfg.window.start), to_epoch(cfg.window.end)
        port_of = {spec.provider_id: next((p.port for p in spec.ports
                                           if p.transport == "tcp"), 443)
                   for spec in cfg.providers}
        shared_names = random.Random(f"{cfg.seed}:sharednames")
        for s in servers:
            for day, (_, day_start) in enumerate(days):
                if not (s.first_day <= day and (s.last_day is None or day <= s.last_day)):
                    continue
                if "tls-cert" in s.sources:
                    self.cert_records.append(CertScanRecord(
                        ip=s.ip, port=port_of[s.provider_id], names=(s.fqdn,),
                        not_before=window_start - 30 * 86400,
                        not_after=window_end + 30 * 86400,
                        observed_at=day_start + 3600,
                    ))
                if "passive-dns" in s.sources:
                    self.pdns_records.append(PassiveDnsRecord(
                        rrname=s.fqdn, rrtype="A" if ip_family(s.ip) == 4 else "AAAA",
                        rdata=s.ip,
                        first_seen=day_start + 1800,
                        last_seen=day_start + 5400,
                    ))
                if "active-dns" in s.sources:
                    self.resolutions.append(ResolutionResult(
                        fqdn=s.fqdn, vantage_id="v1", answers=(s.ip,),
                        resolved_at=day_start + 7200, status="ok",
                    ))
            if s.sharing == "shared":
                # unrelated names resolving to the same address; enough of them
                # to clear any reasonable sharing threshold
                for m in range(5):
                    self.pdns_records.append(PassiveDnsRecord(
                        rrname=f"site{m}.tenant{shared_names.randrange(10**6)}.example",
                        rrtype="A" if ip_family(s.ip) == 4 else "AAAA",
                        rdata=s.ip,
                        first_seen=window_start + 3 * 3600,
                        last_seen=window_start + 4 * 3600,
                    ))

    def _assign_population(self, servers: list[ServerTruth]):
        cfg = self.config
        line_counts = largest_remainder(
            [spec.adoption for spec in cfg.providers] +
            [max(0.0, 1.0 - sum(s.adoption for s in cfg.providers))],
            cfg.n_lines,
        )[:-1] if cfg.providers else []
        assignments: dict[str, tuple[str, str, int, str]] = {}
        next_line = 0
        for spec, count in zip(cfg.providers, line_counts):
            lines = [f"L{next_line + i:07d}" for i in range(count)]
            next_line += count
            self._provider_lines[spec.provider_id] = lines
            if not count:
                continue
            visible = [s for s in servers
                       if s.provider_id == spec.provider_id and s.visible]
            normal = [s for s in visible if not s.hidden]
            hidden = [s for s in visible if s.hidden]
            if not normal and not hidden:
                raise ValueError(f"{spec.provider_id}: no visible servers to assign")

            port_counts = largest_remainder([p.share for p in spec.ports], count)
            port_of_line: list[PortSpec] = []
            for p, c in zip(spec.ports, port_counts):
                port_of_line.extend([p] * c)

            # Regions are interleaved by quota deficit rather than assigned in
            # contiguous blocks, so every prefix of the line list keeps the
            # configured region mix (deterministic-activity hours use prefixes).
            region_lines = largest_remainder(
                [r.traffic_weight for r in spec.regions], count)
            remaining = list(region_lines)
            shares = [n / count for n in region_lines] if count else []
            taken = [0] * len(spec.regions)
            by_region: dict[str, list[ServerTruth]] = {}
            for s in normal:
                by_region.setdefault(s.region_token, []).append(s)
            # hidden actives each get a fixed, small number of lines, served
            # ahead of their region's round-robin pool
            hidden_queue: dict[str, list[ServerTruth]] = {}
            for h in hidden:
                hidden_queue.setdefault(h.region_token, []).extend(
                    [h] * spec.hidden_line_count)

            rr: dict[str, int] = {}
            for i in range(count):
                choice = max(
                    (r for r in range(len(spec.regions)) if remaining[r] > 0),
                    key=lambda r: (shares[r] * (i + 1) - taken[r], -r))
                remaining[choice] -= 1
                taken[choice] += 1
                region = spec.regions[choice]
                queue = hidden_queue.get(region.token)
                pool = by_region.get(region.token, [])
                if queue:
                    srv = queue.pop(0)
                elif pool:
                    idx = rr.get(region.token, 0)
                    srv = pool[idx % len(pool)]
                    rr[region.token] = idx + 1
                else:
                    hidden_here = [h for h in hidden if h.region_token == region.token]
                    if not hidden_here:
                        raise ValueError(
                            f"{spec.provider_id}: region {region.token} has traffic "
                            "weight but no visible servers")
                    srv = hidden_here[i % len(hidden_here)]
                port = port_of_line[i]
                assignments[lines[i]] = (spec.provider_id, srv.ip,
                                         port.port, port.transport)

        scanner_lines: list[str] = []
        scanner_targets: dict[str, tuple[str, ...]] = {}
        if cfg.scanners.count:
            # scanners sweep discovered dedicated servers so their breadth is
            # what the pipeline can actually observe
            pool = sorted({s.ip for s in servers if s.sources and s.sharing == "dedicated"})
            if cfg.scanners.breadth > len(pool):
                raise ValueError("scanner breadth exceeds the discoverable server universe")
            rng = random.Random(f"{cfg.seed}:scanners")
            for i in range(cfg.scanners.count):
                line = f"S{i:04d}"
                scanner_lines.append(line)
                scanner_targets[line] = tuple(sorted(rng.sample(pool, cfg.scanners.breadth)))
        return assignments, scanner_lines, scanner_targets

    def _plant_blocklists(self, servers: list[ServerTruth]) -> dict:
        cfg = self.config
        planted: dict[str, dict[str, tuple[str, ...]]] = {}
        if not cfg.blocklist_hits:
            return planted
        rng = random.Random(f"{cfg.seed}:blocklist")
        main: list[str] = []
        noisy: list[str] = []
        planted["bl-main"] = {}
        planted["bl-noisy"] = {}
        for spec in cfg.providers:
            k = cfg.blocklist_hits.get(spec.provider_id, 0)
            if not k:
                continue
            pool = sorted(s.ip for s in servers
                          if s.provider_id == spec.provider_id and s.sources)
            picked = sorted(rng.sample(pool, min(k, len(pool))))
            planted["bl-main"][spec.provider_id] = tuple(picked)
            main.extend(picked)
            extra = sorted(rng.sample(pool, min(k, len(pool))))
            planted["bl-noisy"][spec.provider_id] = tuple(extra)
            noisy.extend(extra)
        filler = [f"198.18.{rng.randrange(256)}.{rng.randrange(1, 255)}/32"
                  for _ in range(50)] + ["203.0.113.0/24"]
        self.blocklists["bl-main"] = sorted(set(main)) + filler[:25]
        self.blocklists["bl-noisy"] = sorted(set(noisy)) + filler[25:]
        self.excluded_blocklist = "bl-noisy"
        return planted

    # -- flow stream -------------------------------------------------------------

    def _token_counts(self, pid: str, k_lines: int,
                      token_by_ip: Mapping[str, str]) -> dict[str, int]:
        """Region-token composition of the first k active lines (cached:
        deterministic-activity hours reuse the same prefixes daily)."""
        cache = getattr(self, "_token_count_cache", None)
        if cache is None:
            cache = self._token_count_cache = {}
        key = (pid, k_lines)
        if key not in cache:
            counts: dict[str, int] = {}
            for line in self._provider_lines[pid][:k_lines]:
                token = token_by_ip[self.truth.assignments[line][1]]
                counts[token] = counts.get(token, 0) + 1
            cache[key] = counts
        return cache[key]

    def _weekly_minima(self, token_by_ip: Mapping[str, str]) -> dict[tuple[str, str], int]:
        """Per-(provider, region-token) minimum hourly true volume of the
        periodic deterministic schedule: the previous-week floor."""
        minima: dict[tuple[str, str], int] = {}
        for spec in self.config.providers:
            pid = spec.provider_id
            lines = self._provider_lines.get(pid, [])
            if not lines:
                continue
            per_line = max(1, (spec.daily_down_bytes // 24) // spec.packet_size) * spec.packet_size
            for h in range(24):
                k_lines = max(1, round(len(lines) * spec.diurnal[h]))
                for token, count in self._token_counts(pid, k_lines, token_by_ip).items():
                    key = (pid, token)
                    vol = count * per_line
                    minima[key] = min(minima.get(key, vol), vol)
        return minima

    def _outage_factors(self, spec: ProviderSpec, day: int, hour: int, k_lines: int,
                        weekly_min: Mapping[tuple[str, str], int],
                        outages: Mapping[tuple[str, str], OutageSpec],
                        token_by_ip: Mapping[str, str]) -> dict[str, float]:
        """Per-region volume scaling for one (provider, hour); regions not in
        an active outage keep factor 1. Floor rounding downstream keeps the
        emitted volume at or under the target."""
        pid = spec.provider_id
        active: dict[str, float] = {}
        hours_from_window = (day - self.config.baseline_days) * 24 + hour
        per_line = max(1, (spec.daily_down_bytes // 24) // spec.packet_size) * spec.packet_size
        for (opid, token), outage in outages.items():
            if opid != pid:
                continue
            if not (outage.start_hour <= hours_from_window
                    < outage.start_hour + outage.duration_hours):
                continue
            count = self._token_counts(pid, k_lines, token_by_ip).get(token, 0)
            current = count * per_line
            if current <= 0:
                continue
            target = weekly_min[(pid, token)] * (1.0 - outage.drop_below_min)
            active[token] = min(1.0, target / current)
        return active

    def flow_stream(self) -> Iterator[FlowRecord]:
        """Generate the sampled flow trace, filling truth accumulators.

        Must be consumed exactly once and to exhaustion before the oracle
        reads flow truth. Deterministic-activity mode produces an exactly
        day-periodic schedule (outage injection presumes it, plus
        sampling_rate=1 so estimated series equal true series).
        """
        cfg = self.config
        truth = self.truth
        assert truth is not None
        if truth.flow.complete:
            raise RuntimeError("flow stream already consumed")
        ft = truth.flow
        add_row = _flow_truth_adder(truth)
        N = cfg.sampling_rate
        random_mode = cfg.random_sampling
        sample_rng = random.Random(f"{cfg.seed}:sampling") if random_mode else None
        counter = 0

        token_by_ip = {s.ip: s.region_token for s in truth.servers}
        outage_by_key = {(o.provider_id, o.region_token): o for o in cfg.outages}
        weekly_min = self._weekly_minima(token_by_ip) if cfg.outages else {}

        start = cfg.window.start - timedelta(days=cfg.baseline_days)
        total_days = cfg.baseline_days + self.n_days
        window_start_epoch = to_epoch(cfg.window.start)
        keep_rows = cfg.keep_flow_rows

        def sample(n_packets: int) -> int:
            nonlocal counter
            if random_mode:
                return sum(1 for _ in range(n_packets) if sample_rng.random() * N < 1)
            before = counter // N
            counter += n_packets
            return counter // N - before

        def emit(line: str, pid: str | None, ip: str, port: int, transport: str,
                 direction: str, hour_epoch: int, packets: int,
                 size: int) -> FlowRecord | None:
            ts = hour_epoch * 3600 + 1800
            tb = packets * size
            k = sample(packets)
            sb = k * size
            row = (line, pid, ip, port, transport, direction, hour_epoch, packets, tb, k, sb)
            if keep_rows:
                ft.rows.append(row)
            add_row(row)
            if k < 1:
                return None
            return FlowRecord(
                ts=ts,
                line_id=line, server_ip=ip, server_port=port,
                transport=transport, direction=direction,
                sampled_bytes=sb, sampled_packets=k, sampling_rate=N,
            )

        for day in range(total_days):
            day_start = start + timedelta(days=day)
            day_epoch = to_epoch(day_start)
            in_window = day_epoch >= window_start_epoch
            for spec in cfg.providers:
                pid = spec.provider_id
                lines = self._provider_lines.get(pid, [])
                if not lines:
                    continue
                n_lines = len(lines)
                ratio = spec.down_up_ratio
                size = spec.packet_size
                if cfg.deterministic_activity:
                    per_hour = spec.daily_down_bytes // 24
                    base_down_p = max(1, per_hour // size)
                    for h in range(24):
                        k_lines = max(1, round(n_lines * spec.diurnal[h]))
                        hour_epoch = day_epoch // 3600 + h
                        factors = self._outage_factors(
                            spec, day, h, k_lines, weekly_min,
                            outage_by_key, token_by_ip) if outage_by_key else {}
                        for line in lines[:k_lines]:
                            _, ip, port, transport = truth.assignments[line]
                            factor = factors.get(token_by_ip[ip], 1.0)
                            if factor >= 1.0:
                                down_p = base_down_p
                            else:
                                down_p = max(1, int(per_hour * factor) // size)
                            up_p = max(1, round(down_p / ratio))
                            rec = emit(line, pid, ip, port, transport, DOWN,
                                       hour_epoch, down_p, size)
                            if rec is not None:
                                yield rec
                            rec = emit(line, pid, ip, port, transport, UP,
                                       hour_epoch, up_p, size)
                            if rec is not None:
                                yield rec
                else:
                    act_rng = random.Random(f"{cfg.seed}:act:{pid}:{day}")
                    for line in lines:
                        if spec.byte_sigma > 0:
                            mu = math.log(spec.daily_down_bytes) - spec.byte_sigma ** 2 / 2
                            day_bytes = int(act_rng.lognormvariate(mu, spec.byte_sigma))
                        else:
                            day_bytes = spec.daily_down_bytes
                        active = [h for h in range(24)
                                  if act_rng.random() < spec.diurnal[h]]
                        if not active:
                            continue
                        per_hour = max(1, day_bytes // len(active))
                        down_p = max(1, per_hour // size)
                        up_p = max(1, round(down_p / ratio))
                        _, ip, port, transport = truth.assignments[line]
                        for h in active:
                            hour_epoch = day_epoch // 3600 + h
                            rec = emit(line, pid, ip, port, transport, DOWN,
                                       hour_epoch, down_p, size)
                            if rec is not None:
                                yield rec
                            rec = emit(line, pid, ip, port, transport, UP,
                                       hour_epoch, up_p, size)
                            if rec is not None:
                                yield rec
            if in_window:
                for line in sorted(truth.scanner_lines):
                    hour_epoch = day_epoch // 3600 + 12
                    for ip in truth.scanner_targets[line]:
                        rec = emit(line, None, ip, 8883, "tcp", UP, hour_epoch,
                                   cfg.scanners.packets_per_contact, 60)
                        if rec is not None:
                            yield rec
        ft.complete = True

    # -- materialization ------------------------------------------------------------

    def write_to(self, out_dir: str | Path) -> dict[str, Path]:
        """Write every export into a directory; consumes the flow stream."""
        from . import ingest
        from .flows import write_flows_binary

        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        paths: dict[str, Path] = {}

        catalog_path = out / "catalog.yaml"
        write_synthetic_catalog(catalog_path, self.profiles)
        paths["catalog"] = catalog_path

        certs = out / "certs.jsonl"
        ingest.write_cert_scan_export(certs, self.cert_records)
        paths["certs"] = certs
        pdns = out / "pdns.jsonl"
        ingest.write_pdns_export(pdns, self.pdns_records)
        paths["pdns"] = pdns
        adns = out / "resolutions.jsonl"
        ingest.write_resolutions(adns, self.resolutions)
        paths["resolutions"] = adns

        prefix_path = out / "prefix2as.tsv"
        with open(prefix_path, "w", encoding="utf-8") as fh:
            for prefix, length, asn_field in self.prefix_rows:
                fh.write(f"{prefix}\t{length}\t{asn_field}\n")
        paths["prefix2as"] = prefix_path

        for list_id, rows in self.blocklists.items():
            bl_path = out / f"{list_id}.netset"
            with open(bl_path, "w", encoding="utf-8") as fh:
                fh.write(f"# synthetic blocklist {list_id}\n")
                for row in rows:
                    fh.write(row + "\n")
            paths[list_id] = bl_path

        flows_path = out / "flows.bmf"
        write_flows_binary(flows_path, self.flow_stream())
        paths["flows"] = flows_path

        truth_path = out / "truth.json"
        write_truth(truth_path, self.truth)
        paths["truth"] = truth_path
        return paths


def generate(config: UniverseConfig) -> SyntheticUniverse:
    """Build a universe. Deterministic: the same config yields byte-identical
    exports (see SyntheticUniverse.write_to)."""
    return SyntheticUniverse(config)


def load_universe_config(path: str | Path) -> UniverseConfig:
    """Universe config from YAML; see README for the schema. A file that does
    not parse, whose top level is no mapping, or that lacks a field or holds
    a bad value raises ValueError("<path>: <reason>"); an unreadable one
    raises OSError."""
    import yaml

    with open(path, encoding="utf-8") as fh:
        try:
            doc = yaml.safe_load(fh) or {}
        except yaml.YAMLError as exc:
            raise ValueError(f"{path}: parse error: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: top level must be a mapping")
    try:
        return _universe_config(doc)
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc}") from None
    except (TypeError, ValueError, AttributeError) as exc:
        raise ValueError(f"{path}: {exc}") from None


_REQUIRED = object()


class _Fields:
    """One mapping of a universe config, at path `where` from its top."""

    def __init__(self, doc: object, where: str = "") -> None:
        if not isinstance(doc, dict):
            raise ValueError(f"field '{where[:-1]}': expected a mapping, "
                             f"not {type(doc).__name__}")
        self.doc, self.where = doc, where

    def __call__(self, name: str, convert: Callable, default: object = _REQUIRED):
        """`convert` of the field's value, or `default` when it is missing or
        null. A missing required field raises KeyError, and a value that
        `convert` rejects ValueError, each naming the field by its path,
        such as 'providers[0].n_servers'."""
        value = self.doc.get(name)
        if value is None:
            if default is _REQUIRED:
                raise KeyError(self.where + name)
            return default
        try:
            return convert(value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"field '{self.where}{name}': {exc}") from None

    def each(self, name: str, default: list) -> list[_Fields]:
        """The fields of each mapping in the list at `name`."""
        return [_Fields(item, f"{self.where}{name}[{i}].")
                for i, item in enumerate(self(name, list, default))]


def _universe_config(doc: dict) -> UniverseConfig:
    get = _Fields(doc)
    providers = tuple(ProviderSpec(
        provider_id=p("provider_id", str),
        n_servers=p("n_servers", int),
        regions=tuple(RegionSpec(r("token", str), r("country", str),
                                 r("server_weight", float, 1.0),
                                 r("traffic_weight", float, 1.0))
                      for r in p.each("regions", [{"token": "r1", "country": "DE"}])),
        asns=tuple(AsnSpec(a("asn", int), a("kind", str, "self"), a("weight", float, 1.0))
                   for a in p.each("asns", [{"asn": 64500}])),
        coverage=p("coverage", dict, None),
        sni_only=p("sni_only", bool, False),
        churn_rate=p("churn_rate", float, 0.0),
        adoption=p("adoption", float, 0.0),
        visible_fraction=p("visible_fraction", float, 1.0),
        hidden_active_count=p("hidden_active_count", int, 0),
        hidden_line_count=p("hidden_line_count", int, 1),
        shared_count=p("shared_count", int, 0),
        ports=tuple(PortSpec(q("port", int), q("transport", str, "tcp"),
                             q("share", float, 1.0))
                    for q in p.each("ports", [{"port": 8883}])),
        down_up_ratio=p("down_up_ratio", float, 3.0),
        daily_down_bytes=p("daily_down_bytes", int, 240_000),
        byte_sigma=p("byte_sigma", float, 0.0),
        packet_size=p("packet_size", int, 500),
        diurnal=p("diurnal", lambda v: tuple(float(x) for x in v), (1.0,) * 24),
        ipv6_fraction=p("ipv6_fraction", float, 0.0),
        parent_domain=p("parent_domain", str, None),
    ) for p in get.each("providers", []))
    scanners = _Fields(get("scanners", dict, {}), "scanners.")
    outages = tuple(OutageSpec(
        provider_id=o("provider_id", str), region_token=o("region_token", str),
        start_hour=o("start_hour", int), duration_hours=o("duration_hours", int),
        drop_below_min=o("drop_below_min", float),
    ) for o in get.each("outages", []))
    window = _Fields(get("window", dict), "window.")
    start, end = (window(name, lambda v: parse_iso(str(v))) for name in ("start", "end"))
    return UniverseConfig(
        seed=get("seed", int),
        window=StudyWindow(start, end),
        n_lines=get("n_lines", int),
        providers=providers,
        scanners=ScannerSpec(scanners("count", int, 0), scanners("breadth", int, 0),
                             scanners("packets_per_contact", int, 1)),
        sampling_rate=get("sampling_rate", int, 1),
        timezone=get("timezone", str, "UTC"),
        deterministic_activity=get("deterministic_activity", bool, False),
        random_sampling=get("random_sampling", bool, False),
        baseline_days=get("baseline_days", int, 0),
        outages=outages,
        blocklist_hits=get("blocklist_hits", dict, {}),
        keep_flow_rows=get("keep_flow_rows", bool, True),
    )


def write_synthetic_catalog(path: str | Path, profiles: Sequence[ProviderProfile]) -> None:
    import yaml

    doc = {"version": 1, "providers": []}
    for p in profiles:
        doc["providers"].append({
            "provider_id": p.provider_id,
            "display_name": p.display_name,
            "parent_domain": p.parent_domain,
            "subdomain": {"kind": "wildcard"},
            "region": {"tokens": list(p.region_grammar.tokens)},
            "region_map": {tok: {"country": loc.country}
                           for tok, loc in sorted(p.region_map.items())},
            "documented_protocols": [
                {"name": name, "port": port, "transport": transport}
                for name, port, transport in p.documented_protocols
            ],
            "org_asns": sorted(p.org_asns),
            "ipv6_supported": p.ipv6_supported,
        })
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)


# --- truth log file format -----------------------------------------------------------


def write_truth(path: str | Path, truth: GroundTruthLog) -> None:
    ft = truth.flow
    doc = {
        "seed": truth.seed,
        "window": {"start": to_epoch(truth.window.start), "end": to_epoch(truth.window.end)},
        "timezone": truth.timezone,
        "sampling_rate": truth.sampling_rate,
        "servers": [{
            "provider_id": s.provider_id, "ip": s.ip, "fqdn": s.fqdn,
            "region_token": s.region_token, "country": s.country,
            "asn": s.asn, "asn_kind": s.asn_kind, "sharing": s.sharing,
            "sources": sorted(s.sources), "first_day": s.first_day,
            "last_day": s.last_day, "visible": s.visible, "hidden": s.hidden,
        } for s in truth.servers],
        "daily_discovered": {d: {pid: list(ips) for pid, ips in sorted(snap.items())}
                             for d, snap in sorted(truth.daily_discovered.items())},
        "churn": {d: {pid: [list(a), list(r)] for pid, (a, r) in sorted(ch.items())}
                  for d, ch in sorted(truth.churn.items())},
        "assignments": {line: list(v) for line, v in sorted(truth.assignments.items())},
        "scanner_lines": sorted(truth.scanner_lines),
        "scanner_targets": {line: list(t) for line, t in sorted(truth.scanner_targets.items())},
        "outages": [{
            "provider_id": o.provider_id, "region_token": o.region_token,
            "start_hour": o.start_hour, "duration_hours": o.duration_hours,
            "drop_below_min": o.drop_below_min,
        } for o in truth.outages],
        "blocklist_planted": {lid: {pid: list(ips) for pid, ips in sorted(per.items())}
                              for lid, per in sorted(truth.blocklist_planted.items())},
        "flow_truth": {
            "complete": ft.complete,
            "emitted_records": ft.emitted_records,
            "true_records": ft.true_records,
            "rows": [list(r) for r in ft.rows],
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def read_truth(path: str | Path) -> GroundTruthLog:
    """Load a truth file; flow accumulators are rebuilt by replaying the
    stored per-flow rows (requires the log to have been written with rows)."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    window = StudyWindow(from_epoch(doc["window"]["start"]), from_epoch(doc["window"]["end"]))
    servers = [ServerTruth(
        provider_id=s["provider_id"], ip=s["ip"], fqdn=s["fqdn"],
        region_token=s["region_token"], country=s["country"], asn=s["asn"],
        asn_kind=s["asn_kind"], sharing=s["sharing"],
        sources=frozenset(s["sources"]), first_day=s["first_day"],
        last_day=s["last_day"], visible=s["visible"], hidden=s["hidden"],
    ) for s in doc["servers"]]
    log = GroundTruthLog(
        seed=doc["seed"], window=window, timezone=doc["timezone"],
        sampling_rate=doc["sampling_rate"], servers=servers,
        daily_discovered={d: {pid: tuple(ips) for pid, ips in snap.items()}
                          for d, snap in doc["daily_discovered"].items()},
        churn={d: {pid: (tuple(a), tuple(r)) for pid, (a, r) in ch.items()}
               for d, ch in doc["churn"].items()},
        assignments={line: tuple(v) for line, v in doc["assignments"].items()},
        scanner_lines=frozenset(doc["scanner_lines"]),
        scanner_targets={line: tuple(t) for line, t in doc["scanner_targets"].items()},
        outages=tuple(OutageSpec(**o) for o in doc["outages"]),
        blocklist_planted={lid: {pid: tuple(ips) for pid, ips in per.items()}
                           for lid, per in doc["blocklist_planted"].items()},
    )
    ftdoc = doc["flow_truth"]
    if ftdoc["rows"]:
        _replay_rows(log, [tuple(r) for r in ftdoc["rows"]])
        log.flow.complete = bool(ftdoc["complete"])
    return log


def _replay_rows(log: GroundTruthLog, rows: list[tuple]) -> None:
    """Rebuild the flow accumulators from stored truth rows."""
    log.flow.rows = rows
    add_row = _flow_truth_adder(log)
    for row in rows:
        add_row(row)


def _flow_truth_adder(log: GroundTruthLog) -> Callable[[tuple], None]:
    """The function that adds one flow's truth row to `log.flow`: the row
    `flow_stream` keeps and truth.json stores, (line, provider or None,
    server ip, port, transport, direction, hour epoch, packets, true bytes,
    sampled packets, sampled bytes). The stream adds each flow it generates,
    `read_truth` each stored row, so both fill the accumulators alike."""
    ft = log.flow
    backend_set = log.dedicated_discovered_ips()
    fam_of = {s.ip: ip_family(s.ip) for s in log.servers}
    region_of = {s.ip: region_class(Location.of(s.country)) for s in log.servers}
    token_of = {s.ip: s.region_token for s in log.servers}
    cert_of = {s.ip for s in log.servers if "tls-cert" in s.sources}
    N = log.sampling_rate
    local_days = LocalDays(log.timezone)

    def add_row(row: tuple) -> None:
        line, pid, ip, port, transport, direction, hour_epoch, _packets, tb, k, sb = row
        ft.true_records += 1
        if pid is not None:
            key = ft.provider_true_down if direction == DOWN else ft.provider_true_up
            key[pid] = key.get(pid, 0) + tb
        if k < 1:
            return
        ft.emitted_records += 1
        if ip not in backend_set:
            return
        # the flow's own instant, as synth emits it and the flows stage dates it
        date = local_days.date(hour_epoch * 3600 + 1800)
        ft.line_contacts.setdefault((line, date), set()).add(ip)
        # provider truth mirrors what an attribution index can see: flows to
        # hidden or shared servers stay out of the per-provider rollups
        if pid is None:
            return
        est = sb * N
        if direction == DOWN:
            ft.provider_est_down[pid] = ft.provider_est_down.get(pid, 0) + est
            tkey = (pid, token_of[ip], hour_epoch)
            ft.token_hour_est_down[tkey] = ft.token_hour_est_down.get(tkey, 0) + est
        else:
            ft.provider_est_up[pid] = ft.provider_est_up.get(pid, 0) + est
        ft.provider_sampled_packets[pid] = ft.provider_sampled_packets.get(pid, 0) + k
        ft.provider_hour_lines.setdefault((pid, hour_epoch), set()).add(line)
        pkey = (pid, port, transport)
        ft.provider_port_est[pkey] = ft.provider_port_est.get(pkey, 0) + est
        ft.provider_lines.setdefault(pid, set()).add(line)
        if ip in cert_of:
            ft.provider_lines_cert.setdefault(pid, set()).add(line)
        ft.provider_contacted_fam.setdefault((pid, fam_of[ip]), set()).add(ip)
        region = region_of[ip]
        ft.line_regions.setdefault(line, set()).add(region)
        ft.region_est[region] = ft.region_est.get(region, 0) + est

    return add_row
