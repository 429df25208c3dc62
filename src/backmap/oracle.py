"""Reference metrics recomputed from a synthetic ground-truth log.

Everything here is derived by plain iteration over the generator's log
sections, independently of the analysis pipeline: the only shared
vocabulary is the log's own data types. Tests compare pipeline outputs
against these values.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Mapping, Sequence

from .netutil import ip_family
from .synth import GroundTruthLog


def oracle_candidates(log: GroundTruthLog) -> set[tuple[str, str]]:
    """Union of all source views: what a complete fusion run must find."""
    return {(s.provider_id, s.ip) for s in log.servers if s.sources}


def oracle_source_contribution(log: GroundTruthLog) -> dict[tuple[str, int], dict[str, int]]:
    out: dict[tuple[str, int], dict[str, int]] = {}
    solo = {"tls-cert": "tls-only", "passive-dns": "pdns-only", "active-dns": "adns-only"}
    for s in log.servers:
        if not s.sources:
            continue
        key = (s.provider_id, ip_family(s.ip))
        bucket = out.setdefault(key, {"tls-only": 0, "pdns-only": 0,
                                      "adns-only": 0, "multiple": 0})
        cls = "multiple" if len(s.sources) >= 2 else solo[next(iter(s.sources))]
        bucket[cls] += 1
    return out


def oracle_sharing(log: GroundTruthLog) -> dict[tuple[str, str], str]:
    return {(s.provider_id, s.ip): s.sharing for s in log.servers if s.sources}


def oracle_stability(
    log: GroundTruthLog, date_a: str, date_b: str,
) -> dict[str, tuple[set[str], set[str], set[str]]]:
    """(in_both, removed, new) per provider between two snapshot dates."""
    snap_a = log.daily_discovered[date_a]
    snap_b = log.daily_discovered[date_b]
    out = {}
    for pid in sorted(set(snap_a) | set(snap_b)):
        a = set(snap_a.get(pid, ()))
        b = set(snap_b.get(pid, ()))
        out[pid] = (a & b, a - b, b - a)
    return out


def oracle_visibility(log: GroundTruthLog) -> dict[tuple[str, int], float]:
    """Fraction of discovered dedicated servers actually contacted."""
    denom: dict[tuple[str, int], set[str]] = defaultdict(set)
    for s in log.servers:
        if s.sources and s.sharing == "dedicated":
            denom[(s.provider_id, ip_family(s.ip))].add(s.ip)
    out = {}
    for key, servers in sorted(denom.items()):
        contacted = log.flow.provider_contacted_fam.get(key, set())
        out[key] = len(contacted & servers) / len(servers) if servers else 0.0
    return out


def oracle_active_line_counts(log: GroundTruthLog) -> dict[tuple[str, int], int]:
    """(provider, epoch hour) -> distinct non-scanner active lines."""
    return {key: len(lines - log.scanner_lines)
            for key, lines in log.flow.provider_hour_lines.items()}


def oracle_ratios(log: GroundTruthLog) -> dict[str, float]:
    out = {}
    for pid in sorted(set(log.flow.provider_est_down) | set(log.flow.provider_est_up)):
        up = log.flow.provider_est_up.get(pid, 0)
        down = log.flow.provider_est_down.get(pid, 0)
        out[pid] = math.inf if up == 0 else down / up
    return out


def oracle_port_shares(log: GroundTruthLog) -> dict[str, dict[tuple[int, str], float]]:
    per: dict[str, dict[tuple[int, str], int]] = defaultdict(dict)
    for (pid, port, transport), est in log.flow.provider_port_est.items():
        per[pid][(port, transport)] = per[pid].get((port, transport), 0) + est
    out = {}
    for pid, buckets in per.items():
        total = sum(buckets.values())
        out[pid] = {k: v / total for k, v in buckets.items()} if total else {}
    return out


def oracle_ablation(log: GroundTruthLog) -> dict[str, float]:
    out = {}
    for pid, lines in log.flow.provider_lines.items():
        full = lines - log.scanner_lines
        cert = log.flow.provider_lines_cert.get(pid, set()) - log.scanner_lines
        out[pid] = 100.0 * (1.0 - len(cert) / len(full)) if full else 0.0
    return out


def oracle_scanner_lines(log: GroundTruthLog, threshold: int) -> set[str]:
    """Lines whose per-day contacted-backend breadth exceeds the threshold."""
    out = set()
    for (line, _date), ips in log.flow.line_contacts.items():
        if len(ips) > threshold:
            out.add(line)
    return out


def oracle_sweep(
    log: GroundTruthLog, thresholds: Sequence[int],
) -> list[tuple[int, float, int]]:
    """(threshold, visible fraction, scanner line count) per threshold,
    recomputed from scratch for every threshold."""
    backend = {s.ip for s in log.servers if s.sources and s.sharing == "dedicated"}
    breadth: dict[str, int] = defaultdict(int)
    per_line: dict[str, set[str]] = defaultdict(set)
    for (line, _date), ips in log.flow.line_contacts.items():
        breadth[line] = max(breadth[line], len(ips))
        per_line[line] |= ips
    points = []
    for t in sorted(thresholds):
        scanners = {line for line, b in breadth.items() if b > t}
        visible: set[str] = set()
        for line, ips in per_line.items():
            if line not in scanners:
                visible |= ips
        points.append((t, len(visible) / len(backend) if backend else 0.0, len(scanners)))
    return points


def oracle_line_categories(log: GroundTruthLog) -> dict[str, int]:
    counts = {"EU-only": 0, "US-only": 0, "EU+US": 0,
              "Asia-only": 0, "Other": 0, "Mixed": 0}
    for line, regions in log.flow.line_regions.items():
        if line in log.scanner_lines:
            continue
        if regions == {"EU"}:
            counts["EU-only"] += 1
        elif regions == {"US"}:
            counts["US-only"] += 1
        elif regions == {"EU", "US"}:
            counts["EU+US"] += 1
        elif regions == {"Asia"}:
            counts["Asia-only"] += 1
        elif regions == {"Other"}:
            counts["Other"] += 1
        else:
            counts["Mixed"] += 1
    return counts


def oracle_traffic_share(log: GroundTruthLog) -> dict[str, float]:
    total = sum(log.flow.region_est.values())
    return {region: v / total for region, v in sorted(log.flow.region_est.items())} \
        if total else {}


def oracle_server_share(log: GroundTruthLog) -> dict[str, float]:
    from .geo import Location, region_class

    counts: dict[str, int] = defaultdict(int)
    for s in log.servers:
        if s.sources and s.sharing == "dedicated":
            counts[region_class(Location.of(s.country))] += 1
    total = sum(counts.values())
    return {region: n / total for region, n in sorted(counts.items())} if total else {}


@dataclass(frozen=True)
class OracleOutage:
    provider_id: str
    region_token: str
    flagged_hours: tuple[int, ...]
    baseline: float
    max_drop_fraction: float


def oracle_outages(
    log: GroundTruthLog,
    baseline_days: int = 7,
    sustain_hours: int = 2,
) -> list[OracleOutage]:
    """Independent replay of the drop rule over the est regional series."""
    window_start_hour = int(log.window.start.timestamp()) // 3600
    series: dict[tuple[str, str], dict[int, int]] = defaultdict(dict)
    for (pid, token, hour), est in log.flow.token_hour_est_down.items():
        series[(pid, token)][hour] = est
    findings = []
    for (pid, token), by_hour in sorted(series.items()):
        history = [v for h, v in by_hour.items()
                   if window_start_hour - baseline_days * 24 <= h < window_start_hour]
        if len(history) < baseline_days * 24:
            continue
        floor = min(history)
        flagged: list[int] = []
        run: list[int] = []
        for h in sorted(h for h in by_hour if h >= window_start_hour):
            if by_hour[h] < floor and (not run or h == run[-1] + 1):
                run.append(h)
            else:
                if len(run) >= sustain_hours:
                    flagged.extend(run)
                run = [h] if by_hour[h] < floor else []
        if len(run) >= sustain_hours:
            flagged.extend(run)
        if flagged:
            low = min(by_hour[h] for h in flagged)
            findings.append(OracleOutage(
                provider_id=pid, region_token=token,
                flagged_hours=tuple(flagged), baseline=float(floor),
                max_drop_fraction=1.0 - low / floor if floor else 0.0,
            ))
    return findings


def oracle_blocklist(log: GroundTruthLog, exclude: Sequence[str] = ()) ->\
        dict[str, set[str]]:
    """provider -> planted IPs across non-excluded lists."""
    out: dict[str, set[str]] = defaultdict(set)
    for list_id, per in log.blocklist_planted.items():
        if list_id in exclude:
            continue
        for pid, ips in per.items():
            out[pid] |= set(ips)
    return dict(out)


@dataclass(frozen=True)
class OracleMetrics:
    candidates: set[tuple[str, str]]
    contribution: Mapping[tuple[str, int], Mapping[str, int]]
    sharing: Mapping[tuple[str, str], str]
    visibility: Mapping[tuple[str, int], float]
    active_line_counts: Mapping[tuple[str, int], int]
    ratios: Mapping[str, float]
    port_shares: Mapping[str, Mapping[tuple[int, str], float]]
    ablation: Mapping[str, float]
    line_categories: Mapping[str, int]
    traffic_share: Mapping[str, float]
    server_share: Mapping[str, float]
    true_down: Mapping[str, int]
    true_up: Mapping[str, int]
    est_down: Mapping[str, int]
    est_up: Mapping[str, int]
    sampled_packets: Mapping[str, int]


def oracle_metrics(log: GroundTruthLog) -> OracleMetrics:
    """The full reference bundle for one consumed universe."""
    if not log.flow.complete:
        raise ValueError("flow stream not fully consumed; truth is incomplete")
    return OracleMetrics(
        candidates=oracle_candidates(log),
        contribution=oracle_source_contribution(log),
        sharing=oracle_sharing(log),
        visibility=oracle_visibility(log),
        active_line_counts=oracle_active_line_counts(log),
        ratios=oracle_ratios(log),
        port_shares=oracle_port_shares(log),
        ablation=oracle_ablation(log),
        line_categories=oracle_line_categories(log),
        traffic_share=oracle_traffic_share(log),
        server_share=oracle_server_share(log),
        true_down=dict(log.flow.provider_true_down),
        true_up=dict(log.flow.provider_true_up),
        est_down=dict(log.flow.provider_est_down),
        est_up=dict(log.flow.provider_est_up),
        sampled_packets=dict(log.flow.provider_sampled_packets),
    )
