import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backmap.catalog import match_fqdn
from backmap.fusion import (CandidateAddress, CandidateLines, GroundTruthSet,
                            ReverseIndexMissError, build_reverse_index, classify_sharing, fuse,
                            read_candidates, source_contribution,
                            validate_against_ground_truth, write_candidates, write_snapshot)
from backmap.ingest import NameMatches, Observation
from backmap.timeutil import LocalDays, to_epoch, utc

T0 = to_epoch(utc(2022, 2, 28))
UTC_DATE = LocalDays("UTC").date  # the day of an instant, as fuse takes it


def obs(ip, source, pid="amazon", fqdn="x.iot.us-east-1.amazonaws.com", hours=0):
    return Observation(provider_id=pid, fqdn=fqdn, ip=ip, source=source,
                       seen_at=T0 + hours * 3600)


class TestFuse:
    def test_union_of_sources(self):
        rows = [obs("192.0.2.1", "tls-cert"), obs("192.0.2.1", "passive-dns"),
                obs("192.0.2.2", "passive-dns")]
        fused = fuse(rows, UTC_DATE)[0]
        assert fused[("amazon", "192.0.2.1")].sources == {"tls-cert", "passive-dns"}
        assert fused[("amazon", "192.0.2.2")].sources == {"passive-dns"}

    def test_empty_input(self):
        assert fuse([], UTC_DATE)[0] == {}

    def test_same_ip_two_providers_stays_two_candidates(self):
        rows = [obs("192.0.2.1", "tls-cert"),
                obs("192.0.2.1", "tls-cert", pid="sap", fqdn="gw.iot.sap")]
        fused = fuse(rows, UTC_DATE)[0]
        assert set(fused) == {("amazon", "192.0.2.1"), ("sap", "192.0.2.1")}

    def test_timestamps_span_and_fqdns_union(self):
        rows = [obs("192.0.2.1", "tls-cert", hours=5),
                obs("192.0.2.1", "active-dns", hours=1,
                    fqdn="y.iot.us-east-1.amazonaws.com")]
        cand = fuse(rows, UTC_DATE)[0][("amazon", "192.0.2.1")]
        assert cand.first_seen == T0 + 3600
        assert cand.last_seen == T0 + 5 * 3600
        assert cand.fqdns == {"x.iot.us-east-1.amazonaws.com",
                              "y.iot.us-east-1.amazonaws.com"}


observation_strategy = st.builds(
    obs,
    ip=st.sampled_from(["192.0.2.1", "192.0.2.2", "198.51.100.3", "2001:db8::1"]),
    source=st.sampled_from(["tls-cert", "passive-dns", "active-dns"]),
    pid=st.sampled_from(["amazon", "sap"]),
    hours=st.integers(min_value=0, max_value=100),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(observation_strategy, max_size=30), st.randoms())
def test_fuse_idempotent_and_order_independent(rows, rng):
    once = fuse(rows, UTC_DATE)
    doubled = fuse(rows + rows, UTC_DATE)
    shuffled = list(rows)
    rng.shuffle(shuffled)
    assert fuse(shuffled, UTC_DATE) == once
    assert doubled == once


ZONES = ("UTC", "Asia/Kolkata", "America/St_Johns")


def spread_obs(ip, source, pid, fqdn, minutes):
    return Observation(provider_id=pid, fqdn=fqdn, ip=ip, source=source,
                       seen_at=T0 + minutes * 60)


spread_strategy = st.builds(
    spread_obs,
    ip=st.sampled_from(["192.0.2.1", "192.0.2.2", "198.51.100.3", "2001:db8::1"]),
    source=st.sampled_from(["tls-cert", "passive-dns", "active-dns"]),
    pid=st.sampled_from(["amazon", "sap"]),
    fqdn=st.sampled_from(["x.iot.example", "y.iot.example", "z.iot.example"]),
    minutes=st.integers(min_value=0, max_value=4 * 24 * 60),
)


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(spread_strategy, max_size=40),
       anchors=st.lists(spread_strategy, min_size=3, max_size=3), tz=st.sampled_from(ZONES))
def test_one_pass_fuses_the_run_and_each_local_day(rows, anchors, tz):
    """The run's candidates are the union of every observation of their
    key, and each local day's slots are what fusing that day alone gives,
    in (provider, ip) order. Three anchors at 02:00 UTC on three days put
    the observations on at least three local days in each zone."""
    rows = rows + [a._replace(seen_at=T0 + day * 86400 + 7200) for day, a in enumerate(anchors)]
    day_of = LocalDays(tz).date
    candidates, days = fuse(rows, day_of)

    keys = sorted({(o.provider_id, o.ip) for o in rows})
    assert list(candidates) == keys
    for pid, ip in keys:
        mine = [o for o in rows if (o.provider_id, o.ip) == (pid, ip)]
        assert candidates[pid, ip] == CandidateAddress(
            ip=ip, provider_id=pid, sources=frozenset(o.source for o in mine),
            first_seen=min(o.seen_at for o in mine), last_seen=max(o.seen_at for o in mine),
            fqdns=frozenset(o.fqdn for o in mine))

    dates = sorted({day_of(o.seen_at) for o in rows})
    assert len(dates) >= 3
    assert list(days) == dates
    for date in dates:
        alone = fuse([o for o in rows if day_of(o.seen_at) == date], day_of)[0]
        assert list(days[date].items()) == [
            (key, (c.sources, c.first_seen, c.last_seen, c.fqdns)) for key, c in alone.items()]


class TestSourceContribution:
    def test_counting_example(self):
        rows = [obs("192.0.2.1", "tls-cert"), obs("192.0.2.2", "tls-cert"),
                obs("192.0.2.3", "passive-dns"),
                obs("192.0.2.4", "tls-cert"), obs("192.0.2.4", "passive-dns")]
        contribution = source_contribution(fuse(rows, UTC_DATE)[0].values())
        row = contribution[("amazon", 4)]
        assert row.fractions["tls-only"] == 0.5
        assert row.fractions["pdns-only"] == 0.25
        assert row.fractions["multiple"] == 0.25
        assert abs(sum(row.fractions.values()) - 1.0) < 1e-9

    def test_single_source_is_total(self):
        rows = [obs(f"192.0.2.{i}", "active-dns") for i in range(1, 6)]
        row = source_contribution(fuse(rows, UTC_DATE)[0].values())[("amazon", 4)]
        assert row.fractions["adns-only"] == 1.0

    def test_families_reported_separately(self):
        rows = [obs("192.0.2.1", "tls-cert"),
                obs("2001:db8::1", "passive-dns",
                    fqdn="v6.iot.us-east-1.amazonaws.com")]
        contribution = source_contribution(fuse(rows, UTC_DATE)[0].values())
        assert contribution[("amazon", 4)].total == 1
        assert contribution[("amazon", 6)].total == 1


class TestClassifySharing:
    def test_only_matching_names_is_dedicated(self, catalog_matches):
        index = {"192.0.2.1": {"a.iot.us-east-1.amazonaws.com"}}
        verdict = classify_sharing("192.0.2.1", "amazon", index, catalog_matches, 2)
        assert verdict.verdict == "dedicated"
        assert verdict.non_matching_domain_count == 0
        assert verdict.matching_domain_count == 1

    def test_three_foreign_names_cross_threshold_two(self, catalog_matches):
        index = {"192.0.2.1": {"m1.iot.us-east-1.amazonaws.com", "shop.example.org",
                               "cdn.foo.net", "blog.bar.io"}}
        verdict = classify_sharing("192.0.2.1", "amazon", index, catalog_matches, 2)
        assert verdict.non_matching_domain_count == 3
        assert verdict.verdict == "shared"

    def test_boundary_count_equal_threshold_is_dedicated(self, catalog_matches):
        index = {"192.0.2.1": {"a.example.org", "b.example.org"}}
        verdict = classify_sharing("192.0.2.1", "amazon", index, catalog_matches, 2)
        assert verdict.non_matching_domain_count == 2
        assert verdict.verdict == "dedicated"

    def test_missing_ip_is_an_error_not_zero(self, catalog_matches):
        with pytest.raises(ReverseIndexMissError, match="no reverse data"):
            classify_sharing("192.0.2.99", "amazon", {}, catalog_matches, 2)

    def test_matches_any_provider_pattern_not_just_own(self, catalog_matches):
        # a SAP name on an IP being classified for amazon still counts as matching
        index = {"192.0.2.1": {"gw.iot.sap"}}
        verdict = classify_sharing("192.0.2.1", "amazon", index, catalog_matches, 0)
        assert verdict.non_matching_domain_count == 0
        assert verdict.verdict == "dedicated"

    def test_spellings_of_one_name_count_once(self, catalog_matches):
        index = {"192.0.2.1": {"Web.example.com", "web.example.com.", "web.example.com",
                               "A.IOT.us-east-1.amazonaws.com.",
                               "a.iot.us-east-1.amazonaws.com"}}
        verdict = classify_sharing("192.0.2.1", "amazon", index, catalog_matches, 1)
        assert verdict.non_matching_domain_count == 1
        assert verdict.matching_domain_count == 1
        assert verdict.verdict == "dedicated"


NAMES = (["x.iot.us-east-1.amazonaws.com", "dev1.iot.cn-shanghai.aliyuncs.com",
          "gw.iot.sap", "myhub.azure-devices.net"] +
         [f"site{i}.example-host{i % 7}.net" for i in range(12)])


@settings(max_examples=100, deadline=None)
@given(names=st.sets(st.sampled_from(NAMES), min_size=1, max_size=12),
       threshold=st.integers(min_value=0, max_value=6))
def test_classifier_agrees_with_bruteforce_oracle(catalog_patterns, names, threshold):
    index = {"192.0.2.1": names}
    matches = NameMatches(catalog_patterns)
    verdict = classify_sharing("192.0.2.1", "amazon", index, matches, threshold)
    non_matching = sum(
        1 for name in names
        if not any(match_fqdn(p, name).matched for p in catalog_patterns))
    assert verdict.non_matching_domain_count == non_matching
    assert verdict.verdict == ("shared" if non_matching > threshold else "dedicated")


@settings(max_examples=60, deadline=None)
@given(names=st.sets(st.sampled_from(NAMES), min_size=1, max_size=12),
       low=st.integers(min_value=0, max_value=5),
       bump=st.integers(min_value=1, max_value=5))
def test_raising_threshold_never_flips_dedicated_to_shared(catalog_patterns, names,
                                                           low, bump):
    index = {"192.0.2.1": names}
    matches = NameMatches(catalog_patterns)
    before = classify_sharing("192.0.2.1", "amazon", index, matches, low)
    after = classify_sharing("192.0.2.1", "amazon", index, matches, low + bump)
    if before.verdict == "dedicated":
        assert after.verdict == "dedicated"


def test_build_reverse_index_inverts_pdns():
    from backmap.ingest import PassiveDnsRecord
    rows = [
        PassiveDnsRecord(rrname="a.example", rrtype="A", rdata="192.0.2.1",
                         first_seen=T0, last_seen=T0),
        PassiveDnsRecord(rrname="b.example", rrtype="A", rdata="192.0.2.1",
                         first_seen=T0, last_seen=T0),
    ]
    index = build_reverse_index(rows)
    assert index == {"192.0.2.1": {"a.example", "b.example"}}


class TestGroundTruth:
    def test_candidates_inside_single_prefix(self):
        truth = GroundTruthSet(provider_id="amazon", prefixes=("192.0.2.0/24",))
        candidates = fuse([obs(f"192.0.2.{i}", "tls-cert") for i in range(1, 6)], UTC_DATE)[0]
        report = validate_against_ground_truth(candidates.values(), truth)
        assert len(report.identified_in_truth) == 5
        assert report.identified_outside_truth == frozenset()

    def test_outside_candidate_listed(self):
        truth = GroundTruthSet(provider_id="amazon", prefixes=("192.0.2.0/24",))
        candidates = fuse([obs("198.51.100.7", "tls-cert")], UTC_DATE)[0]
        report = validate_against_ground_truth(candidates.values(), truth)
        assert report.identified_outside_truth == {"198.51.100.7"}

    def test_missed_active_counts(self):
        truth = GroundTruthSet(provider_id="amazon", prefixes=("10.9.0.0/16",))
        identified = fuse([obs(f"10.9.0.{i}", "tls-cert") for i in range(1, 49)], UTC_DATE)[0]
        active = [f"10.9.0.{i}" for i in range(1, 53)]  # 52 active, 4 undiscovered
        report = validate_against_ground_truth(identified.values(), truth, active)
        assert len(report.truth_active) == 52
        assert len(report.missed_active) == 4

    def test_overlapping_prefixes_rejected(self):
        with pytest.raises(ValueError, match="overlapping"):
            GroundTruthSet(provider_id="x", prefixes=("10.0.0.0/8", "10.1.0.0/16"))


def test_candidate_snapshot_roundtrip(tmp_path):
    candidates = fuse([obs("192.0.2.1", "tls-cert"), obs("192.0.2.2", "passive-dns")], UTC_DATE)[0]
    path = tmp_path / "candidates-2022-02-28"
    write_candidates(path, candidates)
    assert read_candidates(path) == candidates


def test_a_day_snapshot_is_the_candidate_file_of_that_day_alone(tmp_path):
    rows = [obs("192.0.2.1", "tls-cert"), obs("192.0.2.1", "passive-dns", hours=30),
            obs("192.0.2.2", "active-dns", hours=31, fqdn="y.iot.us-east-1.amazonaws.com")]
    candidates, days = fuse(rows, UTC_DATE)
    line = CandidateLines()  # shared, as the fuse stage shares it
    write_candidates(tmp_path / "candidates.jsonl", candidates, line)
    assert list(days) == ["2022-02-28", "2022-03-01"]
    for date, slots in days.items():
        write_snapshot(tmp_path / date, slots, line)
        alone = fuse([o for o in rows if UTC_DATE(o.seen_at) == date], UTC_DATE)[0]
        write_candidates(tmp_path / f"alone-{date}", alone)
        assert (tmp_path / date).read_bytes() == (tmp_path / f"alone-{date}").read_bytes()
    assert read_candidates(tmp_path / "candidates.jsonl") == candidates
