from dataclasses import fields, replace

import pytest

from backmap import oracle as orc
from backmap.catalog import compile_catalog
from backmap.flows import detect_scanners, line_contact_sets
from backmap.footprint import diff_snapshots
from backmap.fusion import fuse, read_candidates
from backmap.ingest import StudyWindow, ingest_cert_scan, ingest_passive_dns
from backmap.pipeline import RunConfig, run_pipeline
from backmap.synth import (FlowTruth, ProviderSpec, RegionSpec, ScannerSpec,
                           UniverseConfig, generate, largest_remainder, read_truth,
                           write_truth)
from backmap.timeutil import LocalDays, to_epoch, utc

WINDOW = StudyWindow(utc(2022, 2, 28), utc(2022, 3, 2))
UTC_DATE = LocalDays("UTC").date  # the day of an instant, as fuse takes it


def small_config(**kw):
    defaults = dict(
        seed=99, window=WINDOW, n_lines=120,
        providers=(
            ProviderSpec(provider_id="p01", n_servers=12, adoption=0.5,
                         regions=(RegionSpec("eu-1", "DE"),),
                         coverage={"tls-cert": 1.0, "passive-dns": 0.6,
                                   "active-dns": 0.4}),
            ProviderSpec(provider_id="p02", n_servers=6, adoption=0.3, sni_only=True,
                         regions=(RegionSpec("us-1", "US"),),
                         coverage={"tls-cert": 0.9, "passive-dns": 1.0,
                                   "active-dns": 0.0}),
        ),
    )
    defaults.update(kw)
    return UniverseConfig(**defaults)


class TestLargestRemainder:
    def test_sums_to_total(self):
        assert sum(largest_remainder([0.62, 0.35, 0.03], 100)) == 100

    def test_exact_proportions(self):
        assert largest_remainder([0.62, 0.35, 0.03], 100) == [62, 35, 3]

    def test_zero_total(self):
        assert largest_remainder([1.0, 1.0], 0) == [0, 0]


class TestDeterminism:
    def test_same_seed_byte_identical_exports(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        generate(small_config()).write_to(out_a)
        generate(small_config()).write_to(out_b)
        files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel

    def test_different_seed_changes_coverage_draws(self):
        u1 = generate(small_config())
        u2 = generate(small_config(seed=100))
        sources1 = {s.ip: s.sources for s in u1.truth.servers}
        sources2 = {s.ip: s.sources for s in u2.truth.servers}
        assert sources1 != sources2


class TestStructure:
    def test_sni_only_provider_absent_from_cert_export(self):
        universe = generate(small_config())
        p02_names = [n for r in universe.cert_records for n in r.names
                     if n.endswith("p02-backend.example")]
        assert p02_names == []
        p02_pdns = [r for r in universe.pdns_records
                    if r.rrname.endswith("p02-backend.example")]
        assert p02_pdns  # still discoverable via DNS

    def test_cert_only_observations_round_trip(self):
        universe = generate(small_config())
        patterns = compile_catalog(universe.profiles)
        result = ingest_cert_scan(universe.cert_records, patterns, WINDOW)
        fused = fuse(result.observations, UTC_DATE)[0]
        cert_truth = {(s.provider_id, s.ip) for s in universe.truth.servers
                      if "tls-cert" in s.sources}
        assert set(fused) == cert_truth

    def test_fused_all_sources_equals_oracle_union(self):
        universe = generate(small_config())
        patterns = compile_catalog(universe.profiles)
        from backmap.ingest import observations_from_resolutions
        observations = []
        observations += ingest_cert_scan(universe.cert_records, patterns,
                                         WINDOW).observations
        observations += ingest_passive_dns(universe.pdns_records, patterns,
                                           WINDOW).observations
        observations += observations_from_resolutions(universe.resolutions, patterns,
                                                      WINDOW).observations
        assert set(fuse(observations, UTC_DATE)[0]) == orc.oracle_candidates(universe.truth)

    def test_infeasible_scanner_breadth_rejected(self):
        with pytest.raises(ValueError, match="breadth"):
            generate(small_config(scanners=ScannerSpec(count=1, breadth=10_000)))

    def test_adoption_over_one_rejected(self):
        providers = (
            ProviderSpec(provider_id="p01", n_servers=4, adoption=0.7),
            ProviderSpec(provider_id="p02", n_servers=4, adoption=0.7),
        )
        with pytest.raises(ValueError, match="adoption"):
            small_config(providers=providers)

    def test_bad_coverage_rejected(self):
        with pytest.raises(ValueError, match="coverage"):
            ProviderSpec(provider_id="x", n_servers=3, coverage={"tls-cert": 1.5})


def churn_config(**kw):
    return small_config(
        window=StudyWindow(utc(2022, 2, 28), utc(2022, 3, 7)),
        providers=(ProviderSpec(
            provider_id="p01", n_servers=40, adoption=0.4, churn_rate=0.1,
            regions=(RegionSpec("eu-1", "DE"),),
            coverage={"tls-cert": 1.0, "passive-dns": 1.0, "active-dns": 1.0}),),
        **kw)


class TestChurn:
    def test_stability_diffs_match_churn_log(self, tmp_path):
        universe = generate(churn_config())
        truth = universe.truth
        dates = sorted(truth.daily_discovered)
        assert len(dates) == 7
        for date_a, date_b in zip(dates, dates[1:]):
            snap_a = {("p01", ip): None for ip in truth.daily_discovered[date_a]["p01"]}
            snap_b = {("p01", ip): None for ip in truth.daily_discovered[date_b]["p01"]}
            added, removed = truth.churn[date_b]["p01"]
            oracle = orc.oracle_stability(truth, date_a, date_b)["p01"]
            assert set(added) == oracle[2]
            assert set(removed) == oracle[1]
            # pipeline diff over snapshot-shaped candidate sets agrees
            from backmap.fusion import CandidateAddress

            def as_candidates(date):
                return {("p01", ip): CandidateAddress(
                    ip=ip, provider_id="p01", sources=frozenset({"tls-cert"}),
                    first_seen=to_epoch(WINDOW.start), last_seen=to_epoch(WINDOW.start),
                    fqdns=frozenset({"d.example"}))
                    for ip in truth.daily_discovered[date]["p01"]}
            diff = diff_snapshots(as_candidates(date_a), as_candidates(date_b),
                                  date_a, date_b)["p01"]
            assert diff.only_b == set(added)
            assert diff.only_a == set(removed)

    @pytest.mark.parametrize("tz", ["UTC", "Asia/Kolkata", "America/New_York",
                                    "Atlantic/Cape_Verde", "America/Noronha"])
    def test_each_snapshot_is_its_days_truth(self, tmp_path, tz):
        """A study day's observations fall on the local date its truth
        names, also where local midnight comes one or two hours after the
        UTC day starts (Cape Verde, Noronha): fuse's dated snapshots are the
        truth's daily discovered sets, date for date."""
        universe = generate(churn_config(timezone=tz, n_lines=0))
        universe.write_to(tmp_path / "in")
        inputs = tmp_path / "in"
        out_dir = tmp_path / "out"
        run_pipeline(RunConfig(catalog=inputs / "catalog.yaml", window=universe.config.window,
                               out_dir=out_dir, certs=inputs / "certs.jsonl",
                               pdns=inputs / "pdns.jsonl",
                               resolutions=inputs / "resolutions.jsonl", timezone=tz),
                     ["discover", "fuse"])
        daily = universe.truth.daily_discovered
        snapshots = sorted((out_dir / "snapshots").glob("candidates-*"))
        assert [p.name for p in snapshots] == [f"candidates-{d}" for d in sorted(daily)]
        for path in snapshots:
            got = {}
            for pid, ip in read_candidates(path):
                got.setdefault(pid, set()).add(ip)
            want = daily[path.name.split("candidates-")[1]]
            assert got == {pid: set(ips) for pid, ips in want.items() if ips}, path.name


class TestTruthRoundtrip:
    def test_write_read_replay(self, tmp_path):
        """Replaying the stored rows rebuilds every flow accumulator, also at
        a sampling rate that leaves some flows with no sampled packet."""
        for rate in (1, 100):
            universe = generate(small_config(scanners=ScannerSpec(count=1, breadth=5),
                                             sampling_rate=rate))
            flows = list(universe.flow_stream())
            assert flows
            path = tmp_path / f"truth-{rate}.json"
            write_truth(path, universe.truth)
            loaded = read_truth(path)
            assert loaded.flow.complete
            for f in fields(FlowTruth):
                assert getattr(loaded.flow, f.name) == getattr(universe.truth.flow, f.name), (
                    rate, f.name)
            assert loaded.scanner_lines == universe.truth.scanner_lines
        assert loaded.flow.true_records > loaded.flow.emitted_records

    def test_line_contacts_follow_each_flows_local_day(self, tmp_path):
        """In Asia/Kolkata (+05:30) a UTC day spans two local days. The truth
        log, its replay and the oracle date every flow by its own instant,
        as the flows stage does. Sparse activity leaves lines whose only
        flow of a local day falls in the UTC hour that straddles midnight."""
        providers = tuple(replace(p, diurnal=(0.25,) * 24) for p in small_config().providers)
        universe = generate(small_config(timezone="Asia/Kolkata", providers=providers,
                                         scanners=ScannerSpec(count=1, breadth=5)))
        flows = list(universe.flow_stream())
        truth = universe.truth
        contacts = line_contact_sets(flows, truth.dedicated_discovered_ips(), "Asia/Kolkata")
        assert truth.flow.line_contacts == contacts
        path = tmp_path / "truth.json"
        write_truth(path, truth)
        assert read_truth(path).flow.line_contacts == contacts
        for threshold in (1, 3, 4):
            assert orc.oracle_scanner_lines(truth, threshold) == {
                v.line_id for v in detect_scanners(contacts, threshold) if v.is_scanner}

    def test_double_stream_consumption_rejected(self):
        universe = generate(small_config())
        list(universe.flow_stream())
        with pytest.raises(RuntimeError, match="already consumed"):
            list(universe.flow_stream())


class TestSampling:
    def test_random_sampling_mode_is_seed_stable(self):
        config = small_config(sampling_rate=5, random_sampling=True)
        flows_a = list(generate(config).flow_stream())
        flows_b = list(generate(config).flow_stream())
        assert flows_a == flows_b
        assert any(f.sampled_packets >= 1 for f in flows_a)

    def test_estimates_tighten_with_more_sampled_packets(self):
        """Relative byte-estimate error shrinks as aggregates grow: a provider
        with ~1e5 sampled packets beats one with ~1e3."""
        config = small_config(
            sampling_rate=100,
            n_lines=600,
            providers=(
                ProviderSpec(provider_id="big", n_servers=4, adoption=0.5,
                             regions=(RegionSpec("eu-1", "DE"),),
                             daily_down_bytes=24 * 1700 * 500),  # ~1e5 sampled pkts
                ProviderSpec(provider_id="small", n_servers=4, adoption=0.5,
                             regions=(RegionSpec("eu-1", "DE"),),
                             daily_down_bytes=24 * 17 * 500),    # ~1e3 sampled pkts
            ),
            window=StudyWindow(utc(2022, 2, 28), utc(2022, 3, 1)),
        )
        universe = generate(config)
        list(universe.flow_stream())
        ft = universe.truth.flow

        def relative_error(pid):
            true = ft.provider_true_down[pid] + ft.provider_true_up[pid]
            est = ft.provider_est_down.get(pid, 0) + ft.provider_est_up.get(pid, 0)
            return abs(est - true) / true

        assert ft.provider_sampled_packets["big"] >= 10 * ft.provider_sampled_packets["small"]
        assert relative_error("big") <= max(relative_error("small"), 0.005)
        assert relative_error("big") < 0.02

    def test_deterministic_sampling_counts(self):
        config = small_config(sampling_rate=10)
        universe = generate(config)
        flows = list(universe.flow_stream())
        truth = universe.truth
        # every emitted record has at least one sampled packet and the
        # global sampled packet count matches floor arithmetic
        assert all(f.sampled_packets >= 1 for f in flows)
        total_true = sum(r[7] for r in truth.flow.rows)
        total_sampled = sum(r[9] for r in truth.flow.rows)
        assert total_sampled == total_true // 10

    def test_estimates_equal_truth_at_rate_one(self):
        universe = generate(small_config())
        list(universe.flow_stream())
        ft = universe.truth.flow
        for pid, est in ft.provider_est_down.items():
            # attributable truth may omit hidden/undiscovered servers; in this
            # config every server is discoverable, so they must agree
            assert est == ft.provider_true_down[pid]
