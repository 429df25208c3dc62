"""Acceptance criteria, one test per criterion, each timed against its budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion with its elapsed time.
"""

import ipaddress
import random
import time
import zlib
from pathlib import Path

import numpy as np
import pytest
import yaml

from backmap import oracle as orc
from backmap.catalog import compile_catalog, match_fqdn
from backmap.disruption import BlocklistEntry, BlocklistIndex, blocklist_check, outage_scan
from backmap.flows import (ServerIndex, aggregate_flows, detect_scanners,
                           line_contact_sets, read_flows, scanner_line_ids,
                           source_ablation, threshold_sweep, visibility_per_provider,
                           write_flows_binary, continent_attribution,
                           regional_down_series)
from backmap.footprint import BackendServer, diff_snapshots
from backmap.fusion import (GroundTruthSet, classify_sharing, fuse,
                            validate_against_ground_truth)
from backmap.geo import Location
from backmap.ingest import (StudyWindow, ingest_cert_scan, ingest_passive_dns,
                            observations_from_resolutions)
from backmap.synth import (OutageSpec, ProviderSpec, RegionSpec, ScannerSpec,
                           UniverseConfig, generate)
from backmap.timeutil import LocalDays, to_epoch, utc

DATA_DIR = Path(__file__).parent / "data"
UTC_DATE = LocalDays("UTC").date  # the day of an instant, as fuse takes it


def report(number: int, description: str, started: float, budget: float | None = None):
    elapsed = time.perf_counter() - started
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"
    budget_note = f" (budget {budget:.0f}s)" if budget else ""
    print(f"\ncriterion {number:2d} PASS in {elapsed:6.2f}s{budget_note}: {description}")


def ingest_all(universe, window):
    patterns = compile_catalog(universe.profiles)
    observations = []
    observations += ingest_cert_scan(universe.cert_records, patterns, window).observations
    observations += ingest_passive_dns(universe.pdns_records, patterns, window).observations
    observations += observations_from_resolutions(universe.resolutions, patterns,
                                                  window).observations
    return observations


def build_index(universe, include_all_sources=True):
    """Pipeline-equivalent attribution index straight from candidate truth."""
    servers = []
    for s in universe.truth.servers:
        if not s.sources or s.sharing != "dedicated":
            continue
        servers.append(BackendServer(
            ip=s.ip, provider_id=s.provider_id, location=Location.of(s.country),
            location_confidence="unanimous", prefix=f"{s.ip}/32" if ":" not in s.ip
            else f"{s.ip}/128", asn=s.asn, sharing=s.sharing, sources=s.sources,
            region_token=s.region_token))
    return ServerIndex(servers)


def test_c01_pattern_suite(catalog_profiles, patterns_by_id):
    started = time.perf_counter()
    with open(DATA_DIR / "pattern_cases.yaml") as fh:
        cases = yaml.safe_load(fh)["providers"]
    assert len(cases) == 16
    for case in cases:
        pattern = patterns_by_id[case["provider_id"]]
        for positive in case["positives"]:
            result = match_fqdn(pattern, positive["fqdn"])
            assert result.matched and result.region_token == positive["region"], \
                (case["provider_id"], positive)
        assert len(case["near_misses"]) >= 20, case["provider_id"]
        for miss in case["near_misses"]:
            assert not match_fqdn(pattern, miss).matched, (case["provider_id"], miss)
    report(1, "every documented positive matches, 431 near-misses all rejected",
           started, budget=1.0)


WINDOW_1D = StudyWindow(utc(2022, 2, 28), utc(2022, 3, 1))


def test_c02_discovery_soundness():
    started = time.perf_counter()
    providers = tuple(
        ProviderSpec(
            provider_id=f"p{i:02d}", n_servers=625,
            regions=(RegionSpec("eu-1", "DE"), RegionSpec("us-1", "US")),
            coverage={"tls-cert": [1.0, 0.7, 0.0][i % 3],
                      "passive-dns": [0.5, 1.0, 1.0][i % 3],
                      "active-dns": [0.3, 0.0, 0.6][i % 3]},
            sni_only=(i % 5 == 0))
        for i in range(16))
    config = UniverseConfig(seed=2, window=WINDOW_1D, n_lines=0, providers=providers)
    universe = generate(config)
    assert sum(spec.n_servers for spec in providers) == 10_000
    fused = fuse(ingest_all(universe, WINDOW_1D), UTC_DATE)[0]
    assert set(fused) == orc.oracle_candidates(universe.truth)
    report(2, "fused candidates over 16 providers x 10k servers equal the oracle "
              "union exactly", started, budget=10.0)


def test_c03_sni_ablation():
    started = time.perf_counter()
    config = UniverseConfig(
        seed=3, window=WINDOW_1D, n_lines=200,
        providers=(ProviderSpec(
            provider_id="sni01", n_servers=20, adoption=1.0, sni_only=True,
            regions=(RegionSpec("eu-1", "DE"),),
            coverage={"tls-cert": 1.0, "passive-dns": 1.0, "active-dns": 1.0}),),
    )
    universe = generate(config)
    patterns = compile_catalog(universe.profiles)
    tls_only = fuse(ingest_cert_scan(universe.cert_records, patterns,
                                     WINDOW_1D).observations, UTC_DATE)[0]
    assert tls_only == {}, "TLS-only discovery must yield zero servers"
    index = build_index(universe)
    cert_ips = {s.ip for s in universe.truth.servers if "tls-cert" in s.sources}
    agg = aggregate_flows(universe.flow_stream(), index, cert_ips=cert_ips)
    ablation = source_ablation(agg)
    assert ablation == {"sni01": 100.0}
    assert orc.oracle_ablation(universe.truth)["sni01"] == 100.0
    report(3, "SNI-only provider: 0 servers from TLS alone, 100% line loss in "
              "the source ablation", started)


def test_c04_sharing_classifier_vs_bruteforce(catalog_patterns):
    rng = random.Random(4)
    matching_pool = ["x.iot.us-east-1.amazonaws.com", "dev1.iot.cn-shanghai.aliyuncs.com",
                     "gw.iot.sap", "myhub.azure-devices.net", "a.eu1.mindsphere.io"]
    foreign_pool = [f"host{i}.site{i % 97}.example-web.net" for i in range(200)]
    name_matches = {  # brute-force verdict per distinct name, memoized
        name: any(match_fqdn(p, name).matched for p in catalog_patterns)
        for name in matching_pool + foreign_pool}
    index = {}
    expected = {}
    for i in range(10_000):
        ip = str(ipaddress.ip_address(0x0A000000 + i))
        names = set(rng.sample(matching_pool, rng.randrange(0, 3)))
        names |= set(rng.sample(foreign_pool, rng.randrange(0, 6)))
        if not names:
            names = {rng.choice(matching_pool)}
        index[ip] = names
        expected[ip] = sum(1 for name in names if not name_matches[name])

    started = time.perf_counter()
    thresholds = [0, 1, 2, 3]
    for ip, names in index.items():
        threshold = thresholds[zlib.crc32(ip.encode()) % 4]
        verdict = classify_sharing(ip, "amazon", index, catalog_patterns, threshold)
        assert verdict.non_matching_domain_count == expected[ip]
        assert verdict.verdict == (
            "shared" if expected[ip] > threshold else "dedicated")
        if expected[ip] == threshold:
            assert verdict.verdict == "dedicated"  # boundary: strict inequality
    report(4, "sharing verdicts equal brute force on 10k randomized reverse "
              "indices, boundary included", started, budget=5.0)


def test_c05_scanner_sweep():
    started = time.perf_counter()
    spike = tuple(1.0 if h == 12 else 0.0 for h in range(24))
    config = UniverseConfig(
        seed=5, window=WINDOW_1D, n_lines=100_000,
        providers=(ProviderSpec(
            provider_id="p01", n_servers=250, adoption=1.0,
            regions=(RegionSpec("eu-1", "DE"),),
            coverage={"tls-cert": 1.0, "passive-dns": 0.0, "active-dns": 0.0},
            diurnal=spike, daily_down_bytes=3000),),
        scanners=ScannerSpec(count=5, breadth=200),
        deterministic_activity=True,
    )
    universe = generate(config)
    index = build_index(universe)
    contacts = line_contact_sets(universe.flow_stream(), index.all_server_ips)
    thresholds = [10, 20, 50, 100, 150, 199, 200, 250, 500, 1000]
    points = threshold_sweep(contacts, index.all_server_ips, thresholds)
    fractions = [p.visible_server_fraction for p in points]
    counts = [p.scanner_line_count for p in points]
    assert fractions == sorted(fractions), "visibility must be non-decreasing"
    assert counts == sorted(counts, reverse=True), "scanner count must be non-increasing"
    for point in points:
        assert point.scanner_line_count == (5 if point.threshold < 200 else 0)
    planted = set(universe.truth.scanner_lines)
    assert scanner_line_ids(detect_scanners(contacts, 199)) == planted
    assert scanner_line_ids(detect_scanners(contacts, 200)) == set()
    oracle_points = orc.oracle_sweep(universe.truth, thresholds)
    assert [(p.threshold, p.scanner_line_count) for p in points] == \
        [(t, c) for t, _, c in oracle_points]
    report(5, "sweep over 100k lines with 5 planted scanners at breadth 200 has "
              "the expected shape and removals", started, budget=30.0)


def test_c06_sampling_estimator(tmp_path):
    started = time.perf_counter()
    per_hour_down_packets = 2500  # x 500B x 24h = 30 MB/line/day
    config = UniverseConfig(
        seed=6, window=WINDOW_1D, n_lines=21_000,
        providers=(
            ProviderSpec(provider_id="p01", n_servers=60, adoption=0.5,
                         regions=(RegionSpec("eu-1", "DE"),),
                         coverage={"tls-cert": 1.0, "passive-dns": 1.0,
                                   "active-dns": 1.0},
                         daily_down_bytes=per_hour_down_packets * 500 * 24,
                         down_up_ratio=3.0),
            ProviderSpec(provider_id="p02", n_servers=40, adoption=0.5,
                         regions=(RegionSpec("us-1", "US"),),
                         coverage={"tls-cert": 1.0, "passive-dns": 1.0,
                                   "active-dns": 1.0},
                         daily_down_bytes=per_hour_down_packets * 500 * 24,
                         down_up_ratio=2.0),
        ),
        sampling_rate=1000,
        deterministic_activity=True,
        keep_flow_rows=False,
    )
    universe = generate(config)
    truth = universe.truth
    flows_path = tmp_path / "flows.bmf"
    write_flows_binary(flows_path, universe.flow_stream())
    generated = truth.flow.true_records
    assert generated >= 1_000_000, f"only {generated} generated flow rows"

    index = build_index(universe)
    scanners = scanner_line_ids(detect_scanners(
        line_contact_sets(read_flows(flows_path), index.all_server_ips), 100))
    assert scanners == set()
    agg = aggregate_flows(read_flows(flows_path), index)

    for pid in ("p01", "p02"):
        sampled_packets = truth.flow.provider_sampled_packets[pid]
        assert sampled_packets >= 10_000
        est = agg.provider_down[pid]
        true = truth.flow.provider_true_down[pid]
        assert abs(est - true) / true <= 0.05, (pid, est, true)
        # pipeline estimate equals the oracle's own sampled rollup exactly
        assert est == truth.flow.provider_est_down[pid]
        assert agg.provider_up[pid] == truth.flow.provider_est_up[pid]

    oracle_counts = orc.oracle_active_line_counts(truth)
    pipeline_counts = {key: len(lines) for key, lines in agg.provider_hour_lines.items()}
    assert pipeline_counts == oracle_counts
    assert visibility_per_provider(agg, index) == orc.oracle_visibility(truth)
    report(6, f"1-in-1000 sampling at {generated} generated flows: byte estimates "
              "within 5% of truth, counts exact", started, budget=60.0)


def test_c07_continent_scenario():
    started = time.perf_counter()
    config = UniverseConfig(
        seed=7, window=WINDOW_1D, n_lines=2000,
        providers=(ProviderSpec(
            provider_id="p01", n_servers=30, adoption=1.0,
            regions=(RegionSpec("eu-1", "DE", 1.0, 0.62),
                     RegionSpec("us-1", "US", 1.0, 0.35),
                     RegionSpec("sa-1", "BR", 1.0, 0.03)),
            coverage={"tls-cert": 1.0, "passive-dns": 1.0, "active-dns": 1.0}),),
        deterministic_activity=True,
    )
    universe = generate(config)
    index = build_index(universe)
    agg = aggregate_flows(universe.flow_stream(), index)
    rep = continent_attribution(agg, index)
    assert abs(rep.traffic_share["EU"] - 0.62) <= 0.005
    assert abs(rep.traffic_share["US"] - 0.35) <= 0.005
    assert abs(rep.traffic_share.get("Other", 0.0) - 0.03) <= 0.005
    assert sum(rep.line_category_shares.values()) == pytest.approx(1.0, abs=1e-9)
    assert rep.traffic_share == orc.oracle_traffic_share(universe.truth)
    assert rep.line_category_counts == orc.oracle_line_categories(universe.truth)
    report(7, "configured 62/35/3 EU/US/other traffic split recovered within "
              "0.5 percentage points", started)


def outage_universe(seed, with_outage):
    from datetime import timedelta

    outages = (OutageSpec(provider_id="p01", region_token="us-east-1",
                          start_hour=11, duration_hours=4,
                          drop_below_min=0.16),) if with_outage else ()
    diurnal = tuple(0.5 + 0.5 * (6 <= h < 22) for h in range(24))
    window_days = 1 if with_outage else 7
    return UniverseConfig(
        seed=seed, window=StudyWindow(utc(2022, 2, 28),
                                      utc(2022, 2, 28) + timedelta(days=window_days)),
        n_lines=400,
        providers=(ProviderSpec(
            provider_id="p01", n_servers=16, adoption=1.0,
            regions=(RegionSpec("us-east-1", "US", 1.0, 0.25),
                     RegionSpec("eu-west-1", "DE", 1.0, 0.75)),
            coverage={"tls-cert": 1.0, "passive-dns": 1.0, "active-dns": 1.0},
            daily_down_bytes=24 * 120 * 500, diurnal=diurnal),),
        deterministic_activity=True,
        baseline_days=7,
        outages=outages,
    )


def test_c08_outage_replay():
    started = time.perf_counter()
    universe = generate(outage_universe(8, with_outage=True))
    index = build_index(universe)
    agg = aggregate_flows(universe.flow_stream(), index)
    series = regional_down_series(agg)
    scan_window = universe.config.window
    findings = outage_scan(series, scan_window, baseline_days=7, sustain_hours=2)
    by_region = {f.region: f for f in findings}
    assert "us-east-1" in by_region, "US east drop must be flagged"
    assert by_region["us-east-1"].max_drop_fraction >= 0.145
    assert "eu-west-1" not in by_region, "EU must stay unflagged"
    # EU carries 3x the US-east volume by construction; the total series only dips
    total = {}
    for (pid, hour), est in agg.provider_hour_down.items():
        total[hour] = total.get(hour, 0) + est
    window_start_hour = int(scan_window.start.timestamp()) // 3600
    baseline_min = min(v for h, v in total.items() if h < window_start_hour)
    scan_min = min(v for h, v in total.items() if h >= window_start_hour)
    assert 1.0 - scan_min / baseline_min < 0.05, "total drop must stay under 5%"
    # oracle replay agrees on the flagged region
    oracle_findings = orc.oracle_outages(universe.truth)
    assert {(f.provider_id, f.region_token) for f in oracle_findings} == {("p01", "us-east-1")}

    clean = generate(outage_universe(88, with_outage=False))
    clean_agg = aggregate_flows(clean.flow_stream(), build_index(clean))
    clean_findings = outage_scan(regional_down_series(clean_agg), clean.config.window,
                                 baseline_days=7, sustain_hours=2)
    assert clean_findings == [], "zero false positives on clean days"
    report(8, "injected 16% US-east drop flagged (>=14.5%), EU and totals quiet, "
              "7 clean days stay clean", started)


@pytest.mark.parametrize("seed", [8, 2, 3])
def test_outage_scan_flags_the_hours_the_oracle_replay_flags(seed):
    """Criterion 8's outage universe: the (provider, region, hour) set the
    scan flags over the regional series is the oracle's, and so are the
    drops. Baselines are not compared: the scanned series are peak-normalized."""
    universe = generate(outage_universe(seed, with_outage=True))
    agg = aggregate_flows(universe.flow_stream(), build_index(universe))
    findings = outage_scan(regional_down_series(agg), universe.config.window,
                           baseline_days=7, sustain_hours=2)
    oracle_findings = orc.oracle_outages(universe.truth)
    assert oracle_findings
    assert {(f.provider_id, f.region, hour) for f in findings
            for hour in range(f.window[0], f.window[1] + 1)} == {
        (f.provider_id, f.region_token, hour) for f in oracle_findings
        for hour in f.flagged_hours}
    drops = {}
    for f in findings:
        key = (f.provider_id, f.region)
        drops[key] = max(drops.get(key, 0.0), f.max_drop_fraction)
    assert drops == {(f.provider_id, f.region_token): pytest.approx(f.max_drop_fraction)
                     for f in oracle_findings}


def test_c09_stability_algebra():
    started = time.perf_counter()
    from backmap.fusion import CandidateAddress

    def snapshot(ips):
        return {("p", ip): CandidateAddress(
            ip=ip, provider_id="p", sources=frozenset({"tls-cert"}),
            first_seen=to_epoch(WINDOW_1D.start), last_seen=to_epoch(WINDOW_1D.start),
            fqdns=frozenset({"d.p.example"})) for ip in ips}

    rng = random.Random(9)
    universe = [f"10.0.{i // 250}.{i % 250 + 1}" for i in range(1000)]
    for _ in range(1000):
        a = set(rng.sample(universe, rng.randrange(0, 400)))
        b = set(rng.sample(universe, rng.randrange(0, 400)))
        diff = diff_snapshots(snapshot(a), snapshot(b))
        if not a and not b:
            assert diff == {}
            continue
        d = diff["p"]
        assert d.in_both | d.only_a == a
        assert d.in_both | d.only_b == b
        assert not d.in_both & d.only_a
        assert not d.in_both & d.only_b
        assert not d.only_a & d.only_b
    report(9, "partition identities hold on 1000 random snapshot pairs", started)


def test_c10_blocklist_bruteforce():
    started = time.perf_counter()
    rng = random.Random(10)
    cidrs = []
    for i in range(1000):
        length = rng.choice([16, 20, 24, 28, 32])
        base = rng.randrange(0, 2 ** 32) >> (32 - length) << (32 - length)
        cidrs.append((base, length, f"list{i % 11}"))
    index = BlocklistIndex([
        BlocklistEntry(lid, f"{ipaddress.ip_address(base)}/{length}")
        for base, length, lid in cidrs])

    addrs = np.array([rng.randrange(0, 2 ** 32) for _ in range(1_000_000)],
                     dtype=np.uint64)
    per_list_expected: dict[str, set[int]] = {}
    for base, length, lid in cidrs:
        mask = np.uint64(((1 << length) - 1) << (32 - length))
        contained = np.nonzero((addrs & mask) == np.uint64(base))[0]
        if contained.size:
            per_list_expected.setdefault(lid, set()).update(
                int(addrs[i]) for i in contained)

    matched_expected = set()
    for hits in per_list_expected.values():
        matched_expected |= hits
    per_list_actual: dict[str, set[int]] = {}
    matched_actual = set()
    for value in np.unique(addrs):
        ip = str(ipaddress.ip_address(int(value)))
        lists = index.matches(ip)
        if lists:
            matched_actual.add(int(value))
            for lid in lists:
                per_list_actual.setdefault(lid, set()).add(int(value))
    assert matched_actual == matched_expected
    assert per_list_actual == per_list_expected

    # excluding a list never adds matches
    sample_servers = [BackendServer(
        ip=str(ipaddress.ip_address(int(v))), provider_id="p",
        location=Location.of("DE"), location_confidence="unanimous",
        prefix=f"{ipaddress.ip_address(int(v))}/32", asn=1, sharing="dedicated",
        sources=frozenset({"tls-cert"})) for v in list(matched_expected)[:500]]
    full = blocklist_check(sample_servers, index)
    shrunk = blocklist_check(sample_servers, index, exclude_lists=["list3"])
    assert shrunk.distinct_ips() <= full.distinct_ips()
    report(10, "1M addresses x 1k CIDRs equal vectorized brute-force containment "
               "exactly; exclusion only shrinks", started, budget=30.0)


def test_c11_ground_truth_replay():
    started = time.perf_counter()
    config = UniverseConfig(
        seed=11, window=WINDOW_1D, n_lines=1000,
        providers=(ProviderSpec(
            provider_id="ms01", n_servers=60, adoption=1.0,
            regions=(RegionSpec("eu-1", "DE"),),
            coverage={"tls-cert": 1.0, "passive-dns": 1.0, "active-dns": 1.0},
            visible_fraction=52 / 60, hidden_active_count=4, hidden_line_count=1),),
        deterministic_activity=True,
    )
    universe = generate(config)
    candidates = fuse(ingest_all(universe, WINDOW_1D), UTC_DATE)[0]
    identified_ips = {ip for (_pid, ip) in candidates}
    assert len(identified_ips) == 56  # 60 minus the 4 hidden actives

    truth_set = GroundTruthSet(provider_id="ms01", prefixes=("10.1.0.0/16",))
    active = {ip for (_line, (pid, ip, _p, _t)) in universe.truth.assignments.items()}
    assert len(active) == 52
    coverage = validate_against_ground_truth(candidates.values(), truth_set, active)
    assert len(coverage.missed_active) == 4
    assert coverage.identified_outside_truth == frozenset()

    index = build_index(universe)
    agg = aggregate_flows(universe.flow_stream(), index)
    attributed = agg.provider_down.get("ms01", 0) + agg.provider_up.get("ms01", 0)
    true_total = (universe.truth.flow.provider_true_down["ms01"]
                  + universe.truth.flow.provider_true_up["ms01"])
    under_attribution = 1.0 - attributed / true_total
    assert 0.0 <= under_attribution < 0.01, under_attribution
    report(11, "52 active truth IPs, 4 missed; traffic under-attribution "
               f"{under_attribution:.4%} < 1%", started)


def test_c12_pipeline_determinism(tmp_path):
    started = time.perf_counter()
    from backmap.pipeline import RunConfig, run_pipeline

    universe_dir = tmp_path / "universe"
    window = StudyWindow(utc(2022, 2, 28), utc(2022, 3, 2))
    config = UniverseConfig(
        seed=12, window=window, n_lines=150,
        providers=(ProviderSpec(
            provider_id="p01", n_servers=12, adoption=0.8,
            regions=(RegionSpec("eu-1", "DE"), RegionSpec("us-1", "US")),
            coverage={"tls-cert": 1.0, "passive-dns": 1.0, "active-dns": 0.5},
            shared_count=1),),
        scanners=ScannerSpec(count=1, breadth=6),
    )
    generate(config).write_to(universe_dir)

    out_dir = tmp_path / "out"

    def run_once():
        run_config = RunConfig(
            catalog=universe_dir / "catalog.yaml", window=window, out_dir=out_dir,
            certs=universe_dir / "certs.jsonl", pdns=universe_dir / "pdns.jsonl",
            resolutions=universe_dir / "resolutions.jsonl",
            flows=universe_dir / "flows.bmf",
            prefix2as=universe_dir / "prefix2as.tsv", scanner_threshold=5)
        run_pipeline(run_config)
        return {p.relative_to(out_dir): p.read_bytes()
                for p in sorted(out_dir.rglob("*")) if p.is_file()}

    first = run_once()
    for p in sorted(out_dir.rglob("*"), reverse=True):
        p.unlink() if p.is_file() else p.rmdir()
    second = run_once()
    assert first.keys() == second.keys()
    for rel in first:
        assert first[rel] == second[rel], rel
    report(12, "two identical full pipeline runs are byte-identical, manifest "
               "included", started)
