"""Figure-equivalent report tables and provider pseudonymization.

Every report is a CSV with a fixed column order and fixed float formatting
so that identical runs are byte-identical. Report ids follow the
fig<N>_<topic> convention used throughout the output directory:

  fig3_sources      per-provider, per-family source-class counts/fractions
  fig4_stability    consecutive-snapshot membership diffs
  fig5_sweep        scanner threshold sweep (threshold, visibility_pct, scanner_lines)
  fig6_visibility   contacted fraction of servers per provider/family
  fig7_ablation     % active-line decrease with certificate-only discovery
  fig8_activity     hourly active lines (suppressed below the privacy floor)
  fig9_volume       peak-normalized hourly downstream volume
  fig10_ratio       downstream/upstream ratio per provider
  fig10_ports       per-port traffic shares with labels
  fig11_lines       per-line daily traffic ECDF points
  fig12_continents  line categories, traffic and server shares by region
  fig13_outage      regional series with baseline floor and outage flags
"""

from __future__ import annotations

import csv
import hashlib
import io
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .disruption import OutageFinding
from .flows import (ACTIVITY_SUPPRESSION_FLOOR, FlowAggregate, ServerIndex,
                    activity_series, continent_attribution, line_day_profiles,
                    per_line_distribution, port_mix, source_ablation,
                    suppress_low_counts, traffic_series_and_ratio,
                    visibility_per_provider)
from .footprint import DiversityRow, StabilityDiff
from .fusion import CandidateAddress, source_contribution
from .ingest import StudyWindow
from .jsonl import Memo
from .timeutil import fmt_epoch

FIGURE_FILES = {
    "fig3_sources": "fig3_sources.csv",
    "fig4_stability": "fig4_stability.csv",
    "fig5_sweep": "fig5_sweep.csv",
    "fig6_visibility": "fig6_visibility.csv",
    "fig7_ablation": "fig7_ablation.csv",
    "fig8_activity": "fig8_activity.csv",
    "fig9_volume": "fig9_volume.csv",
    "fig10_ratio": "fig10_ratio.csv",
    "fig10_ports": "fig10_ports.csv",
    "fig11_lines": "fig11_lines.csv",
    "fig12_continents": "fig12_continents.csv",
    "fig13_outage": "fig13_outage.csv",
}

_ECDF_MAX_POINTS = 512


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def write_table(path: str | Path, header: Sequence[str],
                rows: Iterable[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_sources(path: Path, candidates: Iterable[CandidateAddress]) -> None:
    contribution = source_contribution(candidates)
    rows = []
    for (pid, family), row in sorted(contribution.items()):
        for cls in ("tls-only", "pdns-only", "adns-only", "multiple"):
            rows.append([pid, family, cls, row.counts[cls], _fmt(row.fractions[cls])])
    write_table(path, ["provider", "family", "source_class", "count", "fraction"], rows)


def write_stability(path: Path, diffs: Iterable[StabilityDiff]) -> None:
    rows = [[d.provider_id, d.date_a, d.date_b,
             len(d.in_both), len(d.only_a), len(d.only_b)]
            for d in sorted(diffs, key=lambda d: (d.provider_id, d.date_a, d.date_b))]
    write_table(path, ["provider", "date_a", "date_b", "in_both", "removed", "new"], rows)


def write_sweep(path: Path, points: Iterable) -> None:
    rows = [[p.threshold, _fmt(100.0 * p.visible_server_fraction), p.scanner_line_count]
            for p in points]
    write_table(path, ["threshold", "visibility_pct", "scanner_lines"], rows)


def write_diversity(path: Path, report: Mapping[str, DiversityRow]) -> None:
    rows = [[r.provider_id, r.asn_count, r.v4_prefix_count, r.v6_prefix_count,
             r.location_count, r.country_count]
            for r in report.values()]
    write_table(path, ["provider", "asns", "v4_prefixes_24", "v6_prefixes_56",
                       "locations", "countries"], rows)


def write_confidence_histogram(path: Path, servers: Iterable) -> None:
    """How often locations were unanimous vs. voted vs. tie-broken."""
    counts: dict[tuple[str, str], int] = {}
    for s in servers:
        key = (s.provider_id, s.location_confidence)
        counts[key] = counts.get(key, 0) + 1
    rows = [[pid, confidence, n] for (pid, confidence), n in sorted(counts.items())]
    write_table(path, ["provider", "confidence", "servers"], rows)


def fmt_hour(hour: int) -> str:
    """An epoch hour as the ISO-8601 instant it starts at."""
    return fmt_epoch(hour * 3600)


def write_outage(path: Path, series: Mapping, findings: Sequence[OutageFinding],
                 window: StudyWindow) -> None:
    flagged = set()
    baselines: dict[tuple[str, str], float] = {}
    for f in findings:
        lo, hi = f.window
        flagged.update((f.provider_id, f.region, hour) for hour in range(lo, hi + 1))
        baselines[(f.provider_id, f.region)] = f.min_baseline
    rows = []
    start, end = window.epoch_bounds()
    iso = Memo(fmt_hour)
    for (pid, region) in sorted(series):
        for hour, value in series[(pid, region)]:
            if not start <= hour * 3600 < end:
                continue
            base = baselines.get((pid, region))
            rows.append([pid, region, iso[hour], _fmt(value),
                         _fmt(base) if base is not None else "",
                         1 if (pid, region, hour) in flagged else 0])
    write_table(path, ["provider", "region", "hour", "normalized_down",
                       "baseline_min", "flagged"], rows)


def emit_flow_reports(out_dir: Path, agg: FlowAggregate, index: ServerIndex,
                      profiles_by_id: Mapping) -> None:
    """All flow-derived figure tables for one aggregated pass."""
    vis = visibility_per_provider(agg, index)
    write_table(out_dir / "fig6_visibility.csv",
                ["provider", "family", "visible_fraction"],
                [[pid, fam, _fmt(frac)] for (pid, fam), frac in sorted(vis.items())])

    ablation = source_ablation(agg)
    write_table(out_dir / "fig7_ablation.csv", ["provider", "decrease_pct"],
                [[pid, _fmt(pct)] for pid, pct in sorted(ablation.items())])

    activity = activity_series(agg)
    iso = Memo(fmt_hour)
    rows = []
    for pid in sorted(activity):
        for hour, count in suppress_low_counts(activity[pid], ACTIVITY_SUPPRESSION_FLOOR):
            rows.append([pid, iso[hour], count])
    write_table(out_dir / "fig8_activity.csv", ["provider", "hour", "active_lines"], rows)

    summary = traffic_series_and_ratio(agg)
    rows = []
    for pid in sorted(summary.normalized_down_series):
        for hour, value in summary.normalized_down_series[pid]:
            rows.append([pid, iso[hour], _fmt(value)])
    write_table(out_dir / "fig9_volume.csv", ["provider", "hour", "normalized_down"], rows)

    rows = []
    for pid in sorted(summary.down_up_ratio):
        ratio = summary.down_up_ratio[pid]
        rows.append([pid, "inf" if ratio.undefined else _fmt(ratio.value),
                     1 if ratio.undefined else 0])
    write_table(out_dir / "fig10_ratio.csv", ["provider", "down_up_ratio", "undefined"], rows)

    mix = port_mix(agg, profiles_by_id)
    rows = []
    for pid in sorted(mix):
        for share in mix[pid]:
            rows.append([pid, share.port if share.port is not None else "",
                         share.transport, share.label, _fmt(share.share)])
    write_table(out_dir / "fig10_ports.csv",
                ["provider", "port", "transport", "label", "share"], rows)

    def group_label(key) -> str:
        if isinstance(key, tuple):  # (port, transport)
            port, transport = key
            return f"{transport}/{port}"
        return str(key)

    profiles = line_day_profiles(agg)
    rows = []
    for group_by in ("all", "provider", "port"):
        dists = per_line_distribution(profiles, group_by=group_by)
        for key in sorted(dists, key=group_label):
            ecdf = dists[key]
            if ecdf.is_empty:
                rows.append([group_by, group_label(key), "", "", 1])
                continue
            points = ecdf.points()
            if len(points) > _ECDF_MAX_POINTS:
                step = len(points) / _ECDF_MAX_POINTS
                points = [points[int(i * step)] for i in range(_ECDF_MAX_POINTS)] + [points[-1]]
            for value, frac in points:
                rows.append([group_by, group_label(key), value, _fmt(frac), 0])
    write_table(out_dir / "fig11_lines.csv",
                ["group_by", "group", "bytes", "cum_fraction", "empty"], rows)

    report = continent_attribution(agg, index)
    rows = []
    for cat in ("EU-only", "US-only", "EU+US", "Asia-only", "Other", "Mixed"):
        rows.append(["line_category", cat, _fmt(100.0 * report.line_category_shares[cat]),
                     report.line_category_counts[cat]])
    for region, share in sorted(report.traffic_share.items()):
        rows.append(["traffic", region, _fmt(100.0 * share), ""])
    for region, share in sorted(report.server_share.items()):
        rows.append(["servers", region, _fmt(100.0 * share), ""])
    write_table(out_dir / "fig12_continents.csv",
                ["kind", "key", "share_pct", "count"], rows)


# --- pseudonymization ------------------------------------------------------------


_GROUP_PREFIX = {"top": "T", "cloud": "D", "other": "O"}


def pseudonymize(provider_ids: Sequence[str], salt: str,
                 groups: Mapping[str, str]) -> dict[str, str]:
    """Stable pseudonyms (T1.., D1.., O1..): a pure function of the run salt,
    the provider id and its catalog group."""
    by_group: dict[str, list[str]] = {"top": [], "cloud": [], "other": []}
    for pid in sorted(set(provider_ids)):
        by_group[groups.get(pid, "other")].append(pid)
    mapping: dict[str, str] = {}
    for group, pids in by_group.items():
        ranked = sorted(pids, key=lambda pid: hashlib.sha256(
            f"{salt}:{pid}".encode()).hexdigest())
        for i, pid in enumerate(ranked, start=1):
            mapping[pid] = f"{_GROUP_PREFIX[group]}{i}"
    return mapping


def anonymize_table(text: str, mapping: Mapping[str, str]) -> str:
    """A figure CSV with its provider column pseudonymized; a table without
    one comes back unchanged."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or "provider" not in rows[0]:
        return text
    col = rows[0].index("provider")
    for row in rows[1:]:
        if len(row) > col and row[col] in mapping:
            row[col] = mapping[row[col]]
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def anonymize_reports(out_dir: Path, mapping: Mapping[str, str]) -> None:
    """Rewrite the provider column of every figure CSV in place."""
    for filename in FIGURE_FILES.values():
        path = out_dir / filename
        if path.exists():
            with open(path, encoding="utf-8", newline="") as fh:
                text = fh.read()
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(anonymize_table(text, mapping))
