import json
import re
import time
from collections import Counter
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backmap import fusion, ingest
from backmap.active import ResolverEndpoint, TlsTarget, collect_tls, resolve_active
from backmap.catalog import default_catalog_path
from backmap.ingest import (CertScanRecord, MalformedRecord, Observation,
                            PassiveDnsRecord, ResolutionResult, StudyWindow,
                            ingest_cert_scan, ingest_passive_dns,
                            observations_from_resolutions, read_cert_scan_export,
                            read_pdns_export, read_resolutions, write_cert_scan_export,
                            read_observations, write_resolutions)
from backmap.pipeline import RunConfig, run_pipeline
from backmap.synth import ProviderSpec, RegionSpec, UniverseConfig, generate
from backmap.timeutil import LocalDays, from_epoch, to_epoch, utc

WINDOW = StudyWindow(utc(2022, 2, 28), utc(2022, 3, 7))
START, END = to_epoch(WINDOW.start), to_epoch(WINDOW.end)
HOUR, DAY = 3600, 86400


def cert(names, not_before=None, not_after=None, observed=None, ip="192.0.2.10"):
    return CertScanRecord(
        ip=ip, port=8883, names=tuple(names),
        not_before=not_before or START - 10 * DAY,
        not_after=not_after or END + 10 * DAY,
        observed_at=observed or START + 5 * HOUR,
    )


class TestCertIngest:
    def test_matching_name_valid_across_window(self, catalog_patterns):
        result = ingest_cert_scan([cert(["x.iot.us-east-1.amazonaws.com"])],
                                  catalog_patterns, WINDOW)
        assert len(result.observations) == 1
        obs = result.observations[0]
        assert obs.provider_id == "amazon"
        assert obs.source == "tls-cert"
        assert obs.ip == "192.0.2.10"

    def test_expired_before_window(self, catalog_patterns):
        expired = cert(["x.iot.us-east-1.amazonaws.com"],
                       not_before=START - 30 * DAY,
                       not_after=START - DAY)
        result = ingest_cert_scan([expired], catalog_patterns, WINDOW)
        assert result.observations == ()
        assert result.stats.skipped_window == 1

    def test_validity_overlap_not_containment(self, catalog_patterns):
        rotating = cert(["x.iot.us-east-1.amazonaws.com"],
                        not_before=START + 2 * DAY,
                        not_after=END + 300 * DAY)
        result = ingest_cert_scan([rotating], catalog_patterns, WINDOW)
        assert len(result.observations) == 1

    def test_one_matching_name_of_three(self, catalog_patterns):
        record = cert(["x.iot.us-east-1.amazonaws.com", "www.example.com",
                       "mail.example.org"])
        result = ingest_cert_scan([record], catalog_patterns, WINDOW)
        assert len(result.observations) == 1
        assert result.stats.unmatched_names == 2

    def test_wildcard_name_matches_single_label_and_is_flagged(self, catalog_patterns):
        record = cert(["*.iot.us-east-1.amazonaws.com"])
        result = ingest_cert_scan([record], catalog_patterns, WINDOW)
        assert len(result.observations) == 1
        assert result.observations[0].wildcard
        assert result.observations[0].fqdn == "*.iot.us-east-1.amazonaws.com"

    def test_malformed_rows_are_counted(self, catalog_patterns):
        stream = [cert(["x.iot.us-east-1.amazonaws.com"]), MalformedRecord(7, "bad json")]
        result = ingest_cert_scan(stream, catalog_patterns, WINDOW)
        assert result.stats.malformed == 1
        assert len(result.observations) == 1


class TestPdnsIngest:
    def pdns(self, rrname, rdata="203.0.113.5", rrtype="A", first=None, last=None):
        return PassiveDnsRecord(
            rrname=rrname, rrtype=rrtype, rdata=rdata,
            first_seen=first or START + DAY,
            last_seen=last or START + 2 * DAY,
        )

    def test_alibaba_record_inside_window(self, catalog_patterns):
        result = ingest_passive_dns([self.pdns("dev1.iot.cn-shanghai.aliyuncs.com")],
                                    catalog_patterns, WINDOW)
        assert len(result.observations) == 1
        assert result.observations[0].provider_id == "alibaba"
        assert result.observations[0].source == "passive-dns"

    def test_last_seen_before_window(self, catalog_patterns):
        old = self.pdns("dev1.iot.cn-shanghai.aliyuncs.com",
                        first=START - 9 * DAY,
                        last=START - 8 * DAY)
        result = ingest_passive_dns([old], catalog_patterns, WINDOW)
        assert result.observations == ()

    def test_aaaa_passthrough(self, catalog_patterns):
        record = self.pdns("dev1.iot.cn-shanghai.aliyuncs.com",
                           rdata="2001:db8::7", rrtype="AAAA")
        result = ingest_passive_dns([record], catalog_patterns, WINDOW)
        assert result.observations[0].ip == "2001:db8::7"

    def test_other_rrtypes_skipped_with_counter(self, catalog_patterns):
        record = PassiveDnsRecord(
            rrname="dev1.iot.cn-shanghai.aliyuncs.com", rrtype="CNAME",
            rdata="anything", first_seen=START, last_seen=END)
        result = ingest_passive_dns([record], catalog_patterns, WINDOW)
        assert result.observations == ()
        assert result.stats.skipped_rrtype == 1

    def test_family_mismatch_rejected(self, tmp_path):
        path = tmp_path / "pdns.jsonl"
        path.write_text(json.dumps({"rrname": "a.example", "rrtype": "A", "rdata": "2001:db8::1",
                                    "time_first": START, "time_last": END}) + "\n")
        [row] = read_pdns_export(path)
        assert row == MalformedRecord(1, "rdata 2001:db8::1 inconsistent with rrtype A")


def test_study_window_rejects_inverted_bounds():
    with pytest.raises(ValueError, match="precede"):
        StudyWindow(utc(2022, 3, 7), utc(2022, 2, 28))


def test_cert_record_rejects_inverted_validity(tmp_path):
    path = tmp_path / "certs.jsonl"
    write_cert_scan_export(path, [cert(["x.example"], not_before=END, not_after=START)])
    [row] = read_cert_scan_export(path)
    assert row == MalformedRecord(1, "certificate validity interval is inverted")


def test_resolution_result_invariant(tmp_path):
    path = tmp_path / "resolutions.jsonl"
    for answers, status in (((), "ok"), (("192.0.2.1",), "timeout")):
        write_resolutions(path, [ResolutionResult(fqdn="a.example", vantage_id="v1",
                                                  answers=answers, resolved_at=START,
                                                  status=status)])
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:1: answers must be "
                                             rf"non-empty exactly when status=ok$"):
            list(read_resolutions(path))


def test_observations_from_resolutions(catalog_patterns):
    results = [
        ResolutionResult(fqdn="x.iot.eu-west-1.amazonaws.com", vantage_id="v1",
                         answers=("192.0.2.1", "192.0.2.2"),
                         resolved_at=START + HOUR, status="ok"),
        ResolutionResult(fqdn="x.iot.eu-west-1.amazonaws.com", vantage_id="v2",
                         answers=(), resolved_at=START, status="nxdomain"),
    ]
    ingested = observations_from_resolutions(results, catalog_patterns, WINDOW)
    assert {o.ip for o in ingested.observations} == {"192.0.2.1", "192.0.2.2"}
    assert all(o.source == "active-dns" for o in ingested.observations)


def test_a_bound_inside_a_second_counts_from_the_next_second(catalog_patterns):
    """Records hold whole seconds. A window from 00:00:00.5 holds seconds
    1 on, up to and including the second its end falls in; a passive-DNS
    row that began before it is seen at its first second."""
    half = timedelta(milliseconds=500)
    window = StudyWindow(WINDOW.start + half, WINDOW.end + half)
    assert window.epoch_bounds() == (START + 1, END + 1)
    assert StudyWindow(utc(1969, 12, 31, 23, 59, 59) + half, WINDOW.end).epoch_bounds() == \
        (0, END)
    fqdn = "x.iot.eu-west-1.amazonaws.com"
    results = [ResolutionResult(fqdn=fqdn, vantage_id="v1", answers=(f"192.0.2.{i + 1}",),
                                resolved_at=ts, status="ok")
               for i, ts in enumerate((START, START + 1, END, END + 1))]
    kept = observations_from_resolutions(results, catalog_patterns, window).observations
    assert [o.seen_at for o in kept] == [START + 1, END]
    record = PassiveDnsRecord(rrname="dev1.iot.cn-shanghai.aliyuncs.com", rrtype="A",
                              rdata="203.0.113.5", first_seen=START - DAY, last_seen=START + 1)
    [seen] = ingest_passive_dns([record], catalog_patterns, window).observations
    assert seen.seen_at == START + 1


# --- window properties -------------------------------------------------------------


EPOCH0 = START - 30 * DAY
offsets = st.integers(min_value=0, max_value=60 * 24)  # minutes over ~60 days


@settings(max_examples=200, deadline=None)
@given(start_min=offsets, dur=st.integers(min_value=0, max_value=2000),
       obs_min=offsets)
def test_window_soundness_certs(catalog_patterns, start_min, dur, obs_min):
    """Emitted observations always satisfy the overlap rule, straddles included."""
    record = cert(["x.iot.us-east-1.amazonaws.com"],
                  not_before=EPOCH0 + start_min * HOUR,
                  not_after=EPOCH0 + (start_min + dur) * HOUR,
                  observed=EPOCH0 + obs_min * HOUR)
    result = ingest_cert_scan([record], catalog_patterns, WINDOW)
    start, end = WINDOW.epoch_bounds()
    expected = (WINDOW.overlaps(from_epoch(record.not_before), from_epoch(record.not_after))
                and start <= record.observed_at < end)
    assert bool(result.observations) == expected


@settings(max_examples=150, deadline=None)
@given(first=offsets, dur=st.integers(min_value=0, max_value=2000))
def test_window_monotonicity_pdns(catalog_patterns, first, dur):
    """Enlarging the window never removes observations."""
    record = PassiveDnsRecord(
        rrname="dev1.iot.cn-shanghai.aliyuncs.com", rrtype="A", rdata="203.0.113.5",
        first_seen=EPOCH0 + first * HOUR,
        last_seen=EPOCH0 + (first + dur) * HOUR)
    small = ingest_passive_dns([record], catalog_patterns, WINDOW)
    big = ingest_passive_dns([record], catalog_patterns,
                             StudyWindow(WINDOW.start - timedelta(days=40),
                                         WINDOW.end + timedelta(days=40)))
    assert len(big.observations) >= len(small.observations)


def test_pattern_soundness_of_emitted_observations(catalog_patterns):
    records = [cert(["x.iot.us-east-1.amazonaws.com", "nope.example.net"]),
               cert(["gw.iot.sap"], ip="198.51.100.4")]
    result = ingest_cert_scan(records, catalog_patterns, WINDOW)
    from backmap.catalog import match_fqdn
    by_id = {p.provider_id: p for p in catalog_patterns}
    for obs in result.observations:
        assert match_fqdn(by_id[obs.provider_id], obs.fqdn).matched


# --- export round-trips ---------------------------------------------------------------


def test_cert_export_roundtrip(tmp_path, catalog_patterns):
    path = tmp_path / "certs.jsonl"
    records = [cert(["x.iot.us-east-1.amazonaws.com"])]
    write_cert_scan_export(path, records)
    back = [r for r in read_cert_scan_export(path)]
    assert back == records


def test_cert_export_malformed_line_surfaces(tmp_path):
    path = tmp_path / "certs.jsonl"
    path.write_text('{"ip": "192.0.2.1"}\nnot json\n')
    rows = list(read_cert_scan_export(path))
    assert all(isinstance(r, MalformedRecord) for r in rows)
    assert [r.line_no for r in rows] == [1, 2]


def test_observations_sorted_output_is_byte_stable(tmp_path):
    """The discover stage writes observations.jsonl sorted, whatever the
    order of the export rows."""
    records = [cert(["b.iot.us-east-1.amazonaws.com", "a.iot.us-east-1.amazonaws.com"]),
               cert(["c.iot.us-east-1.amazonaws.com"], ip="192.0.2.9")]
    written = []
    for name, rows in (("a", records), ("b", [r._replace(names=r.names[::-1])
                                              for r in reversed(records)])):
        write_cert_scan_export(tmp_path / f"{name}.jsonl", rows)
        out_dir = tmp_path / f"out-{name}"
        run_pipeline(RunConfig(catalog=default_catalog_path(), window=WINDOW,
                               out_dir=out_dir, certs=tmp_path / f"{name}.jsonl"),
                     ["discover"])
        written.append((out_dir / "observations.jsonl").read_bytes())
    assert written[0] == written[1]
    observations = list(read_observations(tmp_path / "out-a" / "observations.jsonl"))
    assert [(o.fqdn, o.ip) for o in observations] == [
        ("a.iot.us-east-1.amazonaws.com", "192.0.2.10"),
        ("b.iot.us-east-1.amazonaws.com", "192.0.2.10"),
        ("c.iot.us-east-1.amazonaws.com", "192.0.2.9")]


def test_discover_quarantines_a_row_with_an_empty_name(tmp_path):
    """An empty name is the row's fault, not the stage's: the discover stage
    goes on with the rows that remain."""
    path = tmp_path / "certs.jsonl"
    write_cert_scan_export(path, [cert(["x.iot.us-east-1.amazonaws.com", "."]),
                                  cert(["y.iot.us-east-1.amazonaws.com"])])
    out_dir = tmp_path / "out"
    run_pipeline(RunConfig(catalog=default_catalog_path(), window=WINDOW, out_dir=out_dir,
                           certs=path), ["discover"])
    observations = list(read_observations(out_dir / "observations.jsonl"))
    assert [o.fqdn for o in observations] == ["y.iot.us-east-1.amazonaws.com"]


# the raw address and name texts of each export's rows, as the readers meet them
EXPORT_VALUES = {
    "certs.jsonl": lambda doc: ([doc["ip"]], doc["names"]),
    "pdns.jsonl": lambda doc: ([doc["rdata"]] if doc["rrtype"] in ("A", "AAAA") else [],
                               [doc["rrname"]]),
    "resolutions.jsonl": lambda doc: (doc["answers"], [doc["fqdn"]]),
}


def counting(calls, kind, fn):
    def count(value):
        calls[kind] += 1
        return fn(value)
    return count


def test_discover_canonicalises_each_distinct_value_once_per_export(tmp_path, monkeypatch):
    """The readers canonicalise each distinct raw address and name text of
    an export once; neither the records nor the ingesters do it again."""
    window = StudyWindow(utc(2022, 2, 28), utc(2022, 3, 3))
    generate(UniverseConfig(
        seed=11, window=window, n_lines=20,
        providers=(ProviderSpec("p1", n_servers=16, churn_rate=0.2, shared_count=2,
                                ipv6_fraction=0.5),
                   ProviderSpec("p2", n_servers=8, regions=(RegionSpec("r2", "JP"),))),
    )).write_to(tmp_path)
    rows, distinct = Counter(), Counter()
    for export, values in EXPORT_VALUES.items():
        seen = {"address": set(), "name": set()}
        for line in (tmp_path / export).read_text().splitlines():
            addresses, names = values(json.loads(line))
            seen["address"].update(addresses)
            seen["name"].update(names)
            rows["address"] += len(addresses)
            rows["name"] += len(names)
        distinct.update({kind: len(texts) for kind, texts in seen.items()})
    assert rows["address"] > distinct["address"] and rows["name"] > distinct["name"]

    calls = Counter()
    monkeypatch.setattr(ingest, "canonical_ip", counting(calls, "address", ingest.canonical_ip))
    monkeypatch.setattr(ingest, "_name", counting(calls, "name", ingest._name))
    run_pipeline(RunConfig(catalog=tmp_path / "catalog.yaml", window=window,
                           out_dir=tmp_path / "out", certs=tmp_path / "certs.jsonl",
                           pdns=tmp_path / "pdns.jsonl",
                           resolutions=tmp_path / "resolutions.jsonl"), ["discover"])
    assert calls == distinct


def test_read_back_parses_each_distinct_instant_and_address_once(tmp_path, monkeypatch):
    """A run that starts at fuse reads observations.jsonl back; each distinct
    address and instant text is parsed once, and so are the instants of a
    candidate file."""
    path = tmp_path / "observations.jsonl"
    observations = [Observation("p1", f"{n}.p1.example", ip, "tls-cert", START + hour * HOUR)
                    for n in range(3) for ip in ("192.0.2.1", "2001:db8::1")
                    for hour in range(4)]
    ingest.write_observations(path, observations)
    calls = Counter()
    monkeypatch.setattr(ingest, "canonical_ip", counting(calls, "address", ingest.canonical_ip))
    monkeypatch.setattr(ingest, "iso_second", counting(calls, "instant", ingest.iso_second))
    assert list(read_observations(path)) == observations
    assert calls == {"address": 2, "instant": 4}

    candidates, _ = fusion.fuse(observations, LocalDays("UTC").date)
    fusion.write_candidates(tmp_path / "candidates.jsonl", candidates)
    calls.clear()
    monkeypatch.setattr(fusion, "iso_second", counting(calls, "instant", fusion.iso_second))
    assert fusion.read_candidates(tmp_path / "candidates.jsonl") == candidates
    assert calls == {"instant": 2}


# --- live resolution against local fixtures ----------------------------------------------


class TestResolveActive:
    def test_cartesian_product_and_vantage_dependent_answers(self, dns_server_factory):
        s1 = dns_server_factory({"a.iot.example": ["192.0.2.1"],
                                 "b.iot.example": ["192.0.2.3"]})
        s2 = dns_server_factory({"a.iot.example": ["192.0.2.2"],
                                 "b.iot.example": ["192.0.2.3"]})
        vantages = [ResolverEndpoint("v1", "127.0.0.1", s1.port),
                    ResolverEndpoint("v2", "127.0.0.1", s2.port)]
        results = resolve_active(["a.iot.example", "b.iot.example"], vantages,
                                 pacing=0.01, unsafe_fast=True, timeout=1.0)
        assert len(results) == 4  # 2 fqdns x 2 vantages
        a_answers = {r.vantage_id: r.answers for r in results if r.fqdn == "a.iot.example"}
        assert a_answers == {"v1": ("192.0.2.1",), "v2": ("192.0.2.2",)}
        union = {ip for r in results for ip in r.answers}
        assert union == {"192.0.2.1", "192.0.2.2", "192.0.2.3"}

    def test_statuses_recorded_not_dropped(self, dns_server_factory):
        server = dns_server_factory({"ok.example": ["192.0.2.1"],
                                     "broken.example": "SERVFAIL",
                                     "slow.example": "DROP"})
        results = resolve_active(
            ["ok.example", "broken.example", "slow.example", "missing.example"],
            [ResolverEndpoint("v1", "127.0.0.1", server.port)],
            pacing=0.01, unsafe_fast=True, timeout=0.5)
        by_name = {r.fqdn: r.status for r in results}
        assert by_name == {"ok.example": "ok", "broken.example": "servfail",
                           "slow.example": "timeout", "missing.example": "nxdomain"}

    def test_unreachable_resolver_times_out(self):
        # RFC 5737 TEST-NET address: nothing listens there
        results = resolve_active(
            ["x.example"], [ResolverEndpoint("dead", "127.0.0.1", 1)],
            pacing=0.01, unsafe_fast=True, timeout=0.3)
        assert [r.status for r in results] == ["timeout"]

    def test_pacing_floor_enforced_without_override(self):
        with pytest.raises(ValueError, match="unsafe_fast"):
            resolve_active(["x.example"], [ResolverEndpoint("v1", "127.0.0.1", 53)],
                           pacing=0.5)

    def test_per_resolver_spacing_respected(self, dns_server_factory):
        server = dns_server_factory({f"n{i}.example": ["192.0.2.9"] for i in range(3)})
        pacing = 0.15
        resolve_active([f"n{i}.example" for i in range(3)],
                       [ResolverEndpoint("v1", "127.0.0.1", server.port)],
                       pacing=pacing, unsafe_fast=True, timeout=1.0)
        times = [t for t, _ in server.queries]
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(gap >= pacing * 0.8 for gap in gaps), gaps


# --- live TLS collection against local fixtures ------------------------------------------


class TestCollectTls:
    def test_collects_certificate_names(self, tls_server_factory):
        server = tls_server_factory(["a.iot.example.com", "b.iot.example.com"])
        results = collect_tls([TlsTarget("127.0.0.1", server.port)], timeout=2.0)
        assert len(results) == 1
        record = results[0].record
        assert record is not None
        assert "a.iot.example.com" in record.names
        assert "b.iot.example.com" in record.names

    def test_sni_sent_when_provided(self, tls_server_factory):
        server = tls_server_factory(["sni.iot.example.com"])
        results = collect_tls(
            [TlsTarget("127.0.0.1", server.port, sni="sni.iot.example.com")],
            timeout=2.0)
        assert results[0].record is not None

    def test_client_certificate_required_is_handshake_failure(self, tls_server_factory):
        server = tls_server_factory(["mtls.iot.example.com"], require_client_cert=True)
        results = collect_tls([TlsTarget("127.0.0.1", server.port)], timeout=2.0)
        assert results[0].record is None
        assert results[0].failure == "handshake-failure"

    def test_closed_port_is_refused(self):
        probe = socket_free_port()
        results = collect_tls([TlsTarget("127.0.0.1", probe)], timeout=1.0)
        assert results[0].failure == "refused"


def socket_free_port() -> int:
    import socket
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]
