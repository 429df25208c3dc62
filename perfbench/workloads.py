"""Benchmark workloads: seeded universe specs, job configs and oracle expectations.

Each workload is a universe spec (every generator parameter, part of the
input-cache key), the `RunConfig` options a user would pass, and whether the
job runs the `disruption` cross-checks after the pipeline. `generate_inputs`
writes the exports the job reads plus `expected.json`, the values
`backmap.oracle` derives from the generator's ground truth; the program under
test never sees the truth.

Sizes are scaled so that one run of every workload fits the benchmark's time
budget with several timed jobs per run; the shapes (stage mix, source
coverage, hours per series) follow the paper's study, discovery and outage
analyses.
"""

from __future__ import annotations

import ipaddress
import json
import random
import time
from dataclasses import dataclass
from datetime import timedelta
from pathlib import Path
from typing import Callable

from backmap import oracle
from backmap.ingest import StudyWindow
from backmap.pipeline import DEFAULT_SWEEP_THRESHOLDS, RunConfig
from backmap.synth import (AsnSpec, OutageSpec, PortSpec, ProviderSpec, RegionSpec,
                           ScannerSpec, UniverseConfig, generate)
from backmap.timeutil import fmt_iso, parse_iso, utc

BMF_HEADER_BYTES, BMF_RECORD_BYTES = 8, 64  # fixed-width .bmf layout
EXPORTS = ("certs.jsonl", "pdns.jsonl", "resolutions.jsonl")
BLOCKLISTS = ("bl-main", "bl-noisy")


def _study_universe(spec: dict, seed: int) -> UniverseConfig:
    """The desk study of scripts/run_synthetic_study.py, with a scaled line count."""
    return UniverseConfig(
        seed=seed, window=StudyWindow(utc(2022, 2, 28), utc(2022, 3, 3)),
        n_lines=spec["n_lines"],
        providers=(
            ProviderSpec(provider_id="alpha", n_servers=80, adoption=0.45,
                         regions=(RegionSpec("eu-central", "DE", 1.0, 0.7),
                                  RegionSpec("us-east", "US", 1.0, 0.3)),
                         asns=(AsnSpec(64501, "self"),),
                         coverage={"tls-cert": 0.9, "passive-dns": 0.7, "active-dns": 0.4},
                         ports=(PortSpec(8883, "tcp", 0.6), PortSpec(443, "tcp", 0.4)),
                         daily_down_bytes=24 * 60 * 500, down_up_ratio=3.0,
                         shared_count=4),
            ProviderSpec(provider_id="bravo", n_servers=30, adoption=0.25, sni_only=True,
                         regions=(RegionSpec("ap-east", "JP"),),
                         asns=(AsnSpec(64502, "cloud"),),
                         coverage={"tls-cert": 1.0, "passive-dns": 1.0, "active-dns": 0.8},
                         daily_down_bytes=24 * 20 * 500, down_up_ratio=0.5),
            ProviderSpec(provider_id="charlie", n_servers=40, adoption=0.2,
                         regions=(RegionSpec("us-west", "US"),),
                         asns=(AsnSpec(64503, "self"), AsnSpec(64504, "cloud")),
                         coverage={"tls-cert": 0.5, "passive-dns": 0.9, "active-dns": 0.0},
                         daily_down_bytes=24 * 10 * 500),
        ),
        scanners=ScannerSpec(count=3, breadth=60, packets_per_contact=20),
        sampling_rate=10, keep_flow_rows=False,
    )


def _discovery_universe(spec: dict, seed: int) -> UniverseConfig:
    """Criterion 2's mixed source coverage over many providers, with churn,
    shared addresses, planted blocklists and a token line population."""
    n = spec["providers"]
    ids = [f"p{i:02d}" for i in range(n)]
    return UniverseConfig(
        seed=seed, window=StudyWindow(utc(2022, 2, 28), utc(2022, 3, 3)),
        n_lines=spec["n_lines"],
        providers=tuple(ProviderSpec(
            provider_id=ids[i], n_servers=spec["servers_per_provider"], adoption=1.0 / n,
            regions=(RegionSpec("eu-1", "DE"), RegionSpec("us-1", "US")),
            asns=(AsnSpec(64600 + i, "self", 0.7), AsnSpec(65000 + i % 4, "cloud", 0.3)),
            coverage={"tls-cert": [1.0, 0.7, 0.0][i % 3],
                      "passive-dns": [0.5, 1.0, 1.0][i % 3],
                      "active-dns": [0.3, 0.0, 0.6][i % 3]},
            sni_only=(i % 5 == 0), churn_rate=spec["churn_rate"],
            shared_count=spec["shared_per_provider"]) for i in range(n)),
        blocklist_hits={pid: spec["blocklist_hits"] for pid in ids},
        keep_flow_rows=False,
    )


def _outage_universe(spec: dict, seed: int) -> UniverseConfig:
    """A baseline week plus a study week of deterministic diurnal traffic,
    unsampled, with one provider half on IPv6 and one injected regional drop."""
    diurnal = tuple(0.4 + 0.6 * (6 <= h < 22) for h in range(24))
    return UniverseConfig(
        seed=seed, window=StudyWindow(utc(2022, 3, 7), utc(2022, 3, 14)),
        n_lines=spec["n_lines"],
        providers=(
            ProviderSpec(provider_id="omega", n_servers=24, adoption=0.6,
                         regions=(RegionSpec("us-east", "US", 1.0, 0.25),
                                  RegionSpec("eu-west", "DE", 1.0, 0.75)),
                         coverage={"tls-cert": 1.0, "passive-dns": 1.0, "active-dns": 1.0},
                         daily_down_bytes=24 * 120 * 500, diurnal=diurnal,
                         ipv6_fraction=0.5),
            ProviderSpec(provider_id="sigma", n_servers=16, adoption=0.4,
                         regions=(RegionSpec("ap-east", "JP"),),
                         coverage={"tls-cert": 1.0, "passive-dns": 1.0, "active-dns": 0.5},
                         daily_down_bytes=24 * 60 * 500, down_up_ratio=1.5,
                         diurnal=diurnal),
        ),
        deterministic_activity=True, baseline_days=7,
        outages=(OutageSpec("omega", "us-east", start_hour=spec["outage_start_hour"],
                            duration_hours=4, drop_below_min=0.16),),
        keep_flow_rows=False,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    spec: dict
    universe: Callable[[dict, int], UniverseConfig]
    run_options: dict
    disruption: bool = False  # blocklist and routing cross-checks after the pipeline


WORKLOADS = {
    # flows stage is ~97% of the job: three reads of the trace, scanner
    # detection, the sweep and aggregation; catalog and prefix work is tiny
    "study": Workload("study", {"n_lines": 750}, _study_universe,
                      {"scanner_threshold": 30}),
    # name matching, fusion, sharing, footprint and the disruption checks;
    # flows stay a few percent of the job
    "discovery": Workload("discovery", {"providers": 16, "servers_per_provider": 80,
                                        "shared_per_provider": 8, "churn_rate": 0.02,
                                        "n_lines": 32, "blocklist_hits": 6,
                                        "routing_events": 20},
                          _discovery_universe, {}, disruption=True),
    # the flows layer over 336 hours of few lines: per-hour and per-series
    # work, IPv6 packing and the outage scan
    "outage-week": Workload("outage-week", {"n_lines": 150, "outage_start_hour": 82},
                            _outage_universe, {}),
}


def run_config(workload: Workload, input_dir: Path, out_dir: Path) -> RunConfig:
    meta = json.loads((input_dir / "meta.json").read_text())
    return RunConfig(
        catalog=input_dir / "catalog.yaml",
        window=StudyWindow(parse_iso(meta["window"][0]), parse_iso(meta["window"][1])),
        out_dir=out_dir,
        certs=input_dir / "certs.jsonl", pdns=input_dir / "pdns.jsonl",
        resolutions=input_dir / "resolutions.jsonl", flows=input_dir / "flows.bmf",
        prefix2as=input_dir / "prefix2as.tsv", **workload.run_options)


# --- generation and expectations ------------------------------------------------------


def _routing_events(universe, rng: random.Random, count: int) -> list[dict]:
    """Prefix and AS events: most inside the study window, some on unrelated
    space, a few outside the window (the overlap report must skip those)."""
    window = universe.config.window
    servers = sorted(universe.truth.discovered_servers(), key=lambda s: (s.provider_id, s.ip))
    asns = sorted({s.asn for s in servers})
    events = []
    for i in range(count):
        start = window.start + timedelta(hours=rng.randrange(0, 48))
        if i % 10 == 9:
            start = window.end + timedelta(days=2)
        end = start + timedelta(hours=rng.randrange(1, 12))
        kind = i % 5
        if kind in (0, 1):
            ip = rng.choice(servers).ip
            prefix = str(ipaddress.ip_network(f"{ip}/{rng.choice((24, 28))}", strict=False))
            event = {"kind": "hijack", "prefix": prefix}
        elif kind == 2:
            event = {"kind": "leak", "prefix": f"10.{rng.randrange(1, 17)}.0.0/16"}
        elif kind == 3:
            event = {"kind": "as-outage", "asn": rng.choice(asns)}
        else:
            event = {"kind": "leak", "prefix": f"192.0.2.{rng.randrange(0, 256, 64)}/26"}
        event["window"] = [fmt_iso(start), fmt_iso(end)]
        events.append(event)
    return events


def _expected_routing(universe, events: list[dict]) -> list[dict]:
    """Brute-force overlap with `ipaddress`: each discovered server's route is
    the longest prefix2as row containing it, checked against every event."""
    rows = {ipaddress.ip_network(f"{p}/{length}"): min(int(a) for a in asn.split("_"))
            for p, length, asn in universe.prefix_rows}
    hosts = {net.network_address: (net, asn) for net, asn in rows.items()
             if net.prefixlen == net.max_prefixlen}
    aggregates = [(net, asn) for net, asn in rows.items() if net.prefixlen < net.max_prefixlen]
    routes = {}
    for s in universe.truth.discovered_servers():
        addr = ipaddress.ip_address(s.ip)
        routes[(s.provider_id, s.ip)] = hosts.get(addr) or max(
            ((net, asn) for net, asn in aggregates
             if net.version == addr.version and addr in net),
            key=lambda r: r[0].prefixlen)
    window = universe.config.window
    out = []
    for i, event in enumerate(events):
        start, end = (parse_iso(t) for t in event["window"])
        if end <= window.start or start >= window.end:
            continue
        hit = set()
        if "prefix" in event:
            enet = ipaddress.ip_network(event["prefix"])
            hit |= {key for key, (net, _) in routes.items()
                    if net.version == enet.version and net.overlaps(enet)}
        if "asn" in event:
            hit |= {key for key, (_, asn) in routes.items() if asn == event["asn"]}
        out.append({"event": i, "servers": sorted({ip for _, ip in hit}),
                    "providers": sorted({pid for pid, _ in hit})})
    return out


def _expected(workload: Workload, universe, events: list[dict]) -> dict:
    truth = universe.truth
    exp = {
        "candidates": sorted(oracle.oracle_candidates(truth)),
        "sharing": sorted([pid, ip, v] for (pid, ip), v in oracle.oracle_sharing(truth).items()),
        "visibility": sorted([pid, fam, v]
                             for (pid, fam), v in oracle.oracle_visibility(truth).items()),
        "ratios": {pid: (None if v == float("inf") else v)
                   for pid, v in oracle.oracle_ratios(truth).items()},
    }
    threshold = workload.run_options.get("scanner_threshold")
    if truth.scanner_lines:
        exp["scanners"] = sorted(oracle.oracle_scanner_lines(truth, threshold))
        exp["sweep"] = [list(p) for p in oracle.oracle_sweep(truth, DEFAULT_SWEEP_THRESHOLDS)]
    if truth.outages:
        exp["outages"] = sorted([o.provider_id, o.region_token, h]
                                for o in oracle.oracle_outages(truth) for h in o.flagged_hours)
    if workload.disruption:
        planted = oracle.oracle_blocklist(truth, exclude=[universe.excluded_blocklist])
        exp["blocklist"] = {pid: sorted(ips) for pid, ips in sorted(planted.items())}
        exp["routing"] = _expected_routing(universe, events)
    return exp


def generate_inputs(workload: Workload, seed: int, out_dir: Path) -> None:
    """Write the workload's exports, events, expectations and meta into out_dir."""
    started = time.perf_counter()
    universe = generate(workload.universe(workload.spec, seed))
    universe.write_to(out_dir)
    # the program sees only the exports; the checks need only expected.json
    (out_dir / "truth.json").unlink()
    events = []
    if workload.disruption:
        events = _routing_events(universe, random.Random(f"{seed}:routing"),
                                 workload.spec["routing_events"])
    (out_dir / "events.json").write_text(json.dumps(events, indent=1) + "\n")
    expected = _expected(workload, universe, events)
    (out_dir / "expected.json").write_text(json.dumps(expected) + "\n")
    window = universe.config.window
    export_lines = 0
    for name in EXPORTS:
        with open(out_dir / name, "rb") as fh:
            export_lines += sum(1 for _ in fh)
    meta = {
        "workload": workload.name, "seed": seed,
        "window": [fmt_iso(window.start), fmt_iso(window.end)],
        "export_lines": export_lines,
        "flow_records": ((out_dir / "flows.bmf").stat().st_size - BMF_HEADER_BYTES)
        // BMF_RECORD_BYTES,
        "excluded_blocklist": universe.excluded_blocklist,
        "generate_s": time.perf_counter() - started,
    }
    (out_dir / "meta.json").write_text(json.dumps(meta, indent=1) + "\n")
