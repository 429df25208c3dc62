import dataclasses
import json
import math
import re
import struct
from datetime import date, datetime, time, timedelta
from zoneinfo import ZoneInfo

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backmap.flows import (DOWN, UP, Ecdf, FlowAggregate, FlowRecord, ServerIndex,
                           activity_series, aggregate_flows, continent_attribution,
                           detect_scanners, exclude_scanner_lines, line_contact_sets,
                           line_day_profiles, per_line_distribution, port_label,
                           port_mix, read_flows, read_flows_binary, region_class,
                           regional_down_series, scanner_line_ids, source_ablation,
                           suppress_low_counts, threshold_sweep,
                           traffic_series_and_ratio, visibility_per_provider,
                           write_flows_binary, write_flows_jsonl)
from backmap.footprint import BackendServer
from backmap.geo import Location
from backmap.timeutil import LocalDays, from_epoch, local_date, to_epoch, utc

T0 = utc(2022, 2, 28)


def flow(ip="10.1.0.1", line="L1", port=8883, transport="tcp", direction=DOWN,
         sampled_bytes=1500, sampled_packets=1, rate=1, hours=0.0):
    return FlowRecord(
        ts=to_epoch(T0) + round(hours * 3600), line_id=line, server_ip=ip,
        server_port=port, transport=transport, direction=direction,
        sampled_bytes=sampled_bytes, sampled_packets=sampled_packets,
        sampling_rate=rate)


def server(ip, pid="p1", country="DE", sharing="dedicated", token=None):
    return BackendServer(
        ip=ip, provider_id=pid, location=Location.of(country),
        location_confidence="unanimous", prefix=f"{ip}/{128 if ':' in ip else 32}", asn=64500,
        sharing=sharing, sources=frozenset({"tls-cert"}), region_token=token)


@pytest.fixture
def index():
    return ServerIndex([server(f"10.1.0.{i}") for i in range(1, 11)])


def contacts(flows, idx):
    return line_contact_sets(flows, idx.all_server_ips)


class TestScanners:
    def test_above_threshold_is_scanner(self, index):
        flows = [flow(ip=f"10.1.0.{i}", line="S1") for i in range(1, 9)]
        verdicts = detect_scanners(contacts(flows, index), threshold=5)
        assert verdicts[0].is_scanner
        assert verdicts[0].distinct_backend_ips == 8

    def test_exactly_threshold_is_not_scanner(self, index):
        flows = [flow(ip=f"10.1.0.{i}", line="S1") for i in range(1, 6)]
        verdicts = detect_scanners(contacts(flows, index), threshold=5)
        assert not verdicts[0].is_scanner

    def test_non_backend_ips_do_not_count(self, index):
        flows = [flow(ip=f"203.0.113.{i}", line="S1") for i in range(1, 20)]
        assert detect_scanners(contacts(flows, index), threshold=5) == []

    def test_shrinking_threshold_grows_scanner_set(self, index):
        flows = [flow(ip=f"10.1.0.{i}", line=f"L{n}")
                 for n in range(1, 6) for i in range(1, n + 2)]
        sets = {}
        for threshold in (1, 2, 3):
            verdicts = detect_scanners(contacts(flows, index), threshold)
            sets[threshold] = scanner_line_ids(verdicts)
        assert sets[3] <= sets[2] <= sets[1]


class TestSweep:
    def test_monotone_and_boundary(self, index):
        flows = [flow(ip=f"10.1.0.{i}", line="WIDE") for i in range(1, 9)]
        flows += [flow(ip="10.1.0.1", line="NARROW")]
        points = threshold_sweep(contacts(flows, index), index.all_server_ips, [1, 5, 10])
        fractions = [p.visible_server_fraction for p in points]
        assert fractions == sorted(fractions)
        assert points[-1].scanner_line_count == 0  # threshold above max breadth
        assert points[0].scanner_line_count == 1
        assert points[0].visible_server_fraction == pytest.approx(0.1)

    def test_empty_backend_set_rejected(self):
        with pytest.raises(ValueError):
            threshold_sweep({}, set(), [10])


def make_agg(flows, idx, **kw):
    return aggregate_flows(flows, idx, **kw)


class TestVisibilityAndAblation:
    def test_three_of_ten(self, index):
        flows = [flow(ip=f"10.1.0.{i}", line=f"L{i}") for i in (1, 2, 3)]
        vis = visibility_per_provider(make_agg(flows, index), index)
        assert vis[("p1", 4)] == pytest.approx(0.3)

    def test_no_flows_zero(self, index):
        vis = visibility_per_provider(make_agg([], index), index)
        assert vis[("p1", 4)] == 0.0

    def test_ablation_all_cert_discovered_is_zero(self, index):
        flows = [flow(ip="10.1.0.1", line="L1")]
        agg = make_agg(flows, index, cert_ips={f"10.1.0.{i}" for i in range(1, 11)})
        assert source_ablation(agg) == {"p1": 0.0}

    def test_ablation_no_cert_coverage_is_total(self, index):
        flows = [flow(ip="10.1.0.1", line="L1"), flow(ip="10.1.0.2", line="L2")]
        agg = make_agg(flows, index, cert_ips=set())
        assert source_ablation(agg) == {"p1": 100.0}

    def test_ablation_partial(self, index):
        flows = [flow(ip="10.1.0.1", line="L1"), flow(ip="10.1.0.2", line="L2"),
                 flow(ip="10.1.0.1", line="L3"), flow(ip="10.1.0.2", line="L4")]
        agg = make_agg(flows, index, cert_ips={"10.1.0.1"})
        assert source_ablation(agg)["p1"] == pytest.approx(50.0)


class TestActivityAndTraffic:
    def test_line_counted_once_per_hour(self, index):
        flows = [flow(line="L1", hours=0.1), flow(line="L1", hours=0.5),
                 flow(line="L2", hours=0.2), flow(line="L1", hours=1.2)]
        series = activity_series(make_agg(flows, index))["p1"]
        assert [count for _, count in series] == [2, 1]

    def test_suppression_drops_small_positive_counts(self):
        series = [(T0, 0), (T0 + timedelta(hours=1), 3), (T0 + timedelta(hours=2), 20)]
        kept = suppress_low_counts(series, floor=15)
        assert [c for _, c in kept] == [0, 20]

    def test_normalization_by_provider_peak(self, index):
        flows = [flow(sampled_bytes=100, hours=0), flow(sampled_bytes=400, hours=1),
                 flow(sampled_bytes=200, hours=2)]
        summary = traffic_series_and_ratio(make_agg(flows, index))
        values = [v for _, v in summary.normalized_down_series["p1"]]
        assert values == [0.25, 1.0, 0.5]

    def test_ratio_balanced_is_one(self, index):
        flows = [flow(direction=DOWN, sampled_bytes=500),
                 flow(direction=UP, sampled_bytes=500)]
        summary = traffic_series_and_ratio(make_agg(flows, index))
        assert summary.down_up_ratio["p1"].value == 1.0

    def test_zero_upstream_is_flagged_infinity(self, index):
        flows = [flow(direction=DOWN, sampled_bytes=500)]
        ratio = traffic_series_and_ratio(make_agg(flows, index)).down_up_ratio["p1"]
        assert math.isinf(ratio.value)
        assert ratio.undefined

    def test_three_to_one(self, index):
        flows = [flow(direction=DOWN, sampled_bytes=15_000),
                 flow(direction=UP, sampled_bytes=5_000)]
        ratio = traffic_series_and_ratio(make_agg(flows, index)).down_up_ratio["p1"]
        assert ratio.value == pytest.approx(3.0, abs=1e-9)


class TestPortMix:
    def test_single_port_is_everything(self, index):
        flows = [flow(port=443)]
        mix = port_mix(make_agg(flows, index))["p1"]
        assert len(mix) == 1
        assert mix[0].share == 1.0
        assert mix[0].label == "https"

    def test_two_equal_ports(self, index):
        flows = [flow(port=443, sampled_bytes=100), flow(port=8883, sampled_bytes=100)]
        mix = port_mix(make_agg(flows, index))["p1"]
        assert sorted((m.label, m.share) for m in mix) == [
            ("https", 0.5), ("mqtt-tls", 0.5)]

    def test_high_udp_bucketed(self, index):
        flows = [flow(port=30100, transport="udp", sampled_bytes=10),
                 flow(port=40999, transport="udp", sampled_bytes=30)]
        mix = port_mix(make_agg(flows, index))["p1"]
        assert len(mix) == 1
        assert mix[0].label == "udp-high"
        assert mix[0].share == 1.0

    def test_labels(self):
        assert port_label(61616, "tcp") == "activemq"
        assert port_label(5684, "udp") == "coap"
        assert port_label(9123, "tcp") == "tcp/9123"

    def test_profile_override(self, catalog_profiles):
        huawei = next(p for p in catalog_profiles if p.provider_id == "huawei")
        assert port_label(8943, "tcp", huawei) == "https"

    def test_shares_sum_to_one(self, index):
        flows = [flow(port=p, sampled_bytes=b)
                 for p, b in ((443, 10), (8883, 25), (1883, 7), (61616, 3))]
        mix = port_mix(make_agg(flows, index))["p1"]
        assert sum(m.share for m in mix) == pytest.approx(1.0, abs=1e-9)


class TestDistributions:
    def test_single_line_step(self, index):
        flows = [flow(line="L1", sampled_bytes=5_000_000)]
        profiles = line_day_profiles(make_agg(flows, index))
        dist = per_line_distribution(profiles, group_by="all")["all"]
        assert dist.quantile(1.0) == 5_000_000
        assert dist.points() == [(5_000_000, 1.0)]

    def test_quantile_of_population(self, index):
        flows = [flow(line=f"L{i}", sampled_bytes=i * 1000) for i in range(1, 101)]
        dist = per_line_distribution(line_day_profiles(make_agg(flows, index)))["all"]
        assert dist.quantile(0.99) == 99 * 1000
        assert dist.fraction_at_most(50_000) == pytest.approx(0.5)

    def test_empty_group_marker(self):
        dist = Ecdf(values=())
        assert dist.is_empty
        with pytest.raises(ValueError):
            dist.quantile(0.5)

    def test_group_by_port(self, index):
        flows = [flow(line="L1", port=443, sampled_bytes=10),
                 flow(line="L1", port=8883, sampled_bytes=20)]
        dists = per_line_distribution(line_day_profiles(make_agg(flows, index)),
                                      group_by="port")
        assert set(dists) == {(443, "tcp"), (8883, "tcp")}


class TestContinent:
    def make_index(self):
        return ServerIndex([
            server("10.1.0.1", country="DE"), server("10.1.0.2", country="FR"),
            server("10.1.0.3", country="IE"),
            server("10.1.0.4", country="US"), server("10.1.0.5", country="US"),
            server("10.1.0.6", country="US"), server("10.1.0.7", country="US"),
            server("10.1.0.8", country="US"), server("10.1.0.9", country="US"),
            server("10.1.0.10", country="CN"),
        ])

    def test_server_shares(self):
        idx = self.make_index()
        report = continent_attribution(make_agg([], idx), idx)
        assert report.server_share == {"EU": 0.3, "US": 0.6, "Asia": 0.1}

    def test_line_categories(self):
        idx = self.make_index()
        flows = [flow(ip="10.1.0.1", line="EU1"),
                 flow(ip="10.1.0.4", line="US1"),
                 flow(ip="10.1.0.1", line="BOTH"), flow(ip="10.1.0.4", line="BOTH"),
                 flow(ip="10.1.0.10", line="AS1"),
                 flow(ip="10.1.0.10", line="MIX"), flow(ip="10.1.0.1", line="MIX")]
        report = continent_attribution(make_agg(flows, idx), idx)
        assert report.line_category_counts == {
            "EU-only": 1, "US-only": 1, "EU+US": 1, "Asia-only": 1,
            "Other": 0, "Mixed": 1}
        assert sum(report.line_category_shares.values()) == pytest.approx(1.0)

    def test_region_class_rules(self):
        assert region_class(Location.of("DE")) == "EU"
        assert region_class(Location.of("US")) == "US"
        assert region_class(Location.of("JP")) == "Asia"
        assert region_class(Location.of("BR")) == "Other"
        assert region_class(Location.of("CA")) == "Other"


class TestAttributionRules:
    def test_shared_servers_excluded_by_default(self):
        idx = ServerIndex([server("10.1.0.1"), server("10.1.0.2", sharing="shared")])
        assert idx.attribute("10.1.0.2", 443, "tcp") is None
        idx_inclusive = ServerIndex(
            [server("10.1.0.1"), server("10.1.0.2", sharing="shared")],
            include_shared=True)
        assert idx_inclusive.attribute("10.1.0.2", 443, "tcp") == "p1"

    def test_dedicated_port_filter(self, catalog_profiles):
        google = next(p for p in catalog_profiles if p.provider_id == "google")
        idx = ServerIndex([server("10.1.0.1", pid="google")],
                          {"google": google})
        assert idx.attribute("10.1.0.1", 8883, "tcp") == "google"
        assert idx.attribute("10.1.0.1", 80, "tcp") is None  # not an MQTT port


class TestFlowFiles:
    def flows(self):
        return [
            flow(line="L1", ip="10.1.0.1", sampled_bytes=100, sampled_packets=2,
                 rate=1000),
            flow(line="L2", ip="2001:db8::1", port=443, transport="udp",
                 direction=UP, sampled_bytes=9, sampled_packets=1, rate=10,
                 hours=3.5),
        ]

    def test_binary_roundtrip(self, tmp_path):
        path = tmp_path / "flows.bmf"
        count = write_flows_binary(path, self.flows())
        assert count == 2
        assert list(read_flows_binary(path)) == self.flows()

    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "flows.jsonl"
        write_flows_jsonl(path, self.flows())
        assert list(read_flows(path)) == self.flows()

    def test_format_autodetect(self, tmp_path):
        path = tmp_path / "flows.bmf"
        write_flows_binary(path, self.flows())
        assert list(read_flows(path)) == self.flows()

    def test_binary_roundtrip_repeated_lines_and_mixed_families(self, tmp_path):
        # "a01:1::" has the 16 address bytes of 10.1.0.1 padded, so only the
        # family byte tells the two apart in the decode cache
        ips = ("10.1.0.1", "2001:db8::1", "a01:1::", "10.1.0.2")
        flows = [flow(line=f"L{i % 3}", ip=ips[i % 4], sampled_bytes=100 + i,
                      direction=(DOWN, UP)[i % 2], hours=i / 4) for i in range(24)]
        path = tmp_path / "flows.bmf"
        assert write_flows_binary(path, flows) == 24
        assert list(read_flows_binary(path)) == flows

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "flows.bmf"
        path.write_bytes(b"XXXX\x01\x00\x00\x00")
        with pytest.raises(ValueError, match="not a binary flow file"):
            list(read_flows_binary(path))


class TestFlowFileErrors:
    """A bad record fails with `<path>:<line or record number>:` and its field."""

    def write_jsonl(self, path, **changes):
        """Two records; the second gets `changes`, a None value deleting the field."""
        write_flows_jsonl(path, [flow(), flow(line="L2")])
        first, second = path.read_text().splitlines()
        doc = json.loads(second)
        for name, value in changes.items():
            if value is None:
                del doc[name]
            else:
                doc[name] = value
        path.write_text(f"{first}\n{json.dumps(doc)}\n")
        return path

    def expect(self, path, message):
        return pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: {message}")

    def test_jsonl_missing_field(self, tmp_path):
        path = self.write_jsonl(tmp_path / "flows.jsonl", sampling_rate=None)
        with self.expect(path, "missing field 'sampling_rate'"):
            list(read_flows(path))

    def test_jsonl_rate_zero(self, tmp_path):
        path = self.write_jsonl(tmp_path / "flows.jsonl", sampling_rate=0)
        with self.expect(path, "sampling_rate must be >= 1"):
            list(read_flows(path))

    @pytest.mark.parametrize("name, value, message", [
        ("direction", "sideways", "bad direction 'sideways'"),
        ("transport", "sctp", "bad transport 'sctp'"),
        ("server_ip", "10.1.0.999", "field 'server_ip': "),
        ("server_ip", 167837697, "field 'server_ip': address must be text, not int"),
        ("port", "https", "field 'port': "),
        ("sampled_bytes", -1, "sampled_bytes and sampled_packets must be >= 0"),
    ])
    def test_jsonl_bad_value(self, tmp_path, name, value, message):
        path = self.write_jsonl(tmp_path / "flows.jsonl", **{name: value})
        with self.expect(path, re.escape(message)):
            list(read_flows(path))

    def write_binary(self, path, *changes):
        """Two records; the second gets each (offset, fmt, value) of
        `changes` packed into it."""
        write_flows_binary(path, [flow(), flow(line="L2")])
        raw = bytearray(path.read_bytes())
        for offset, fmt, value in changes:
            struct.pack_into(fmt, raw, 8 + 64 + offset, value)
        path.write_bytes(bytes(raw))
        return path

    @pytest.mark.parametrize("offset, fmt, value, message", [
        (57, "<I", 0, "sampling_rate must be >= 1"),  # sampling_rate field
        (43, "<B", 7, "bad transport 7"),
        (44, "<B", 2, "bad direction 2"),
        (24, "<B", 5, "server_ip: bad address family 5"),
    ])
    def test_binary_bad_value(self, tmp_path, offset, fmt, value, message):
        path = self.write_binary(tmp_path / "flows.bmf", (offset, fmt, value))
        with self.expect(path, message):
            list(read_flows(path))

    @pytest.mark.parametrize("changes, message", [
        (((57, "<I", 0), (44, "<B", 2), (43, "<B", 7)), "sampling_rate must be >= 1"),
        (((44, "<B", 2), (43, "<B", 7)), "bad direction 2"),
    ])
    def test_binary_checks_run_in_order(self, tmp_path, changes, message):
        """Rate, then direction, then transport, as the JSONL reader checks."""
        path = self.write_binary(tmp_path / "flows.bmf", *changes)
        with self.expect(path, message):
            list(read_flows(path))

    def write_scanner_trace(self, path, *changes):
        """Records 1-9 are scanner line S1's, one per backend IP and then
        the first IP again; 10 and 11 are L1's and L2's. Each (record,
        offset, fmt, value) of `changes` is packed into that record."""
        flows = [flow(ip=f"10.1.0.{i}", line="S1", hours=i / 10) for i in range(1, 9)]
        flows += [flow(line="S1", hours=1), flow(line="L1"), flow(line="L2", direction=UP)]
        write_flows_binary(path, flows)
        raw = bytearray(path.read_bytes())
        for number, offset, fmt, value in changes:
            struct.pack_into(fmt, raw, 8 + 64 * (number - 1) + offset, value)
        path.write_bytes(bytes(raw))
        return path

    def test_scanner_trace_finds_its_scanner(self, tmp_path, index):
        from backmap.pipeline import analyze_flows

        path = self.write_scanner_trace(tmp_path / "flows.bmf")
        analysis = analyze_flows(path, index, 5)
        assert scanner_line_ids(analysis.verdicts) == {"S1"}
        assert analysis.agg.attributed_records == 2
        assert [v.distinct_backend_ips for v in analysis.verdicts if v.is_scanner] == [8]

    @pytest.mark.parametrize("offset, fmt, value, message", [
        (23, "<B", 0xFF, "line_id: 'ascii' codec can't decode byte 0xff in position 15: "
                         "ordinal not in range(128)"),
        (24, "<B", 5, "server_ip: bad address family 5"),
        (57, "<I", 0, "sampling_rate must be >= 1"),
        (44, "<B", 2, "bad direction 2"),
        (43, "<B", 7, "bad transport 7"),
    ])
    @pytest.mark.parametrize("later", [(), ((11, 8, "<B", 0xFF),)], ids=["alone", "later"])
    def test_first_bad_record_on_a_scanner_line(self, tmp_path, index, offset, fmt, value,
                                                message, later):
        """Record 9, on the scanner line and with a line and address seen
        before, is the first bad one, alone or with record 11 bad in the
        line field, which is checked first. Every pass names record 9, as
        the record reader does: the contact-set pass, the aggregation pass
        with S1 excluded or not, and the whole analysis."""
        from backmap.pipeline import analyze_flows

        path = self.write_scanner_trace(tmp_path / "flows.bmf", (9, offset, fmt, value),
                                        *later)
        runs = {
            "read": lambda: list(read_flows(path)),
            "contacts": lambda: line_contact_sets(read_flows(path), index.all_server_ips),
            "aggregate": lambda: aggregate_flows(read_flows(path), index),
            "aggregate without S1": lambda: aggregate_flows(
                exclude_scanner_lines(read_flows(path), {"S1"}), index),
            "analysis": lambda: analyze_flows(path, index, 5),
        }
        for name, run in runs.items():
            with pytest.raises(ValueError) as error:
                run()
            assert str(error.value) == f"{path}:9: {message}", name

    TS_OUT_OF_RANGE = [2 ** 64 - 1,            # beyond the platform's time_t
                       LocalDays.MAX_TS + 1]    # past 9999-12-29 UTC, no day in +14:00

    def ts_runs(self, path, index):
        from backmap.pipeline import analyze_flows

        return {
            "read": lambda: list(read_flows(path)),
            "contacts": lambda: line_contact_sets(read_flows(path), index.all_server_ips),
            "aggregate": lambda: aggregate_flows(read_flows(path), index),
            "analysis": lambda: analyze_flows(path, index, 5),
        }

    @pytest.mark.parametrize("ts", TS_OUT_OF_RANGE)
    def test_binary_ts_without_a_local_date(self, tmp_path, index, ts):
        """Record 2 is a backend flow whose ts has no local date: the reader
        and every pass name its file, record and field."""
        path = self.write_binary(tmp_path / "flows.bmf", (0, "<Q", ts))
        for name, run in self.ts_runs(path, index).items():
            with pytest.raises(ValueError) as error:
                run()
            assert str(error.value) == f"{path}:2: field 'ts': {ts} is out of range", name

    @pytest.mark.parametrize("ts", TS_OUT_OF_RANGE + [LocalDays.MIN_TS - 1, -2 ** 63])
    def test_jsonl_ts_without_a_local_date(self, tmp_path, index, ts):
        path = self.write_jsonl(tmp_path / "flows.jsonl", ts=ts)
        for name, run in self.ts_runs(path, index).items():
            with pytest.raises(ValueError) as error:
                run()
            assert str(error.value) == f"{path}:2: field 'ts': {ts} is out of range", name

    @pytest.mark.parametrize("ts", TS_OUT_OF_RANGE)
    def test_record_ts_without_a_local_date(self, index, ts):
        flows = [flow(), flow()._replace(ts=ts)]
        for run in (lambda: contacts(flows, index), lambda: aggregate_flows(flows, index)):
            with pytest.raises(ValueError, match=rf"^field 'ts': {ts} is out of range$"):
                run()

    def test_record_is_a_plain_tuple(self):
        rec = flow()
        values = (to_epoch(T0), "L1", "10.1.0.1", 8883, "tcp", DOWN, 1500, 1, 1)
        assert rec == values
        ts, line, ip, port, transport, direction, sampled_bytes, packets, rate = rec
        assert (rec.ts, rec.line_id, rec.server_ip, rec.sampling_rate) == (ts, line, ip, rate)


ZONES = ("UTC", "Asia/Kolkata", "Asia/Kathmandu", "America/St_Johns",
         "Australia/Lord_Howe", "Europe/Berlin", "America/Santiago")


class TestLocalDay:
    """Dates follow the zone's own midnights, also for offsets that are not a
    whole hour: in Asia/Kolkata (+05:30), 18:10 and 18:40 UTC on 2022-03-01
    fall on either side of local midnight."""

    def flows(self):
        return [flow(ip="10.1.0.1", hours=24 + 18 + 10 / 60),
                flow(ip="10.1.0.2", hours=24 + 18 + 40 / 60)]

    def test_contact_sets(self, index):
        assert line_contact_sets(self.flows(), index.all_server_ips, "Asia/Kolkata") == {
            ("L1", "2022-03-01"): {"10.1.0.1"}, ("L1", "2022-03-02"): {"10.1.0.2"}}

    def test_line_day_profiles(self, index):
        profiles = line_day_profiles(aggregate_flows(self.flows(), index, "Asia/Kolkata"))
        assert [(p.date, p.distinct_backend_ips) for p in profiles] == [
            ("2022-03-01", 1), ("2022-03-02", 1)]

    @pytest.mark.parametrize("tz", ZONES)
    def test_every_quarter_hour_of_2022(self, tz):
        days = LocalDays(tz)
        for ts in range(to_epoch(utc(2022, 1, 1)), to_epoch(utc(2023, 1, 1)), 900):
            assert days.date(ts) == local_date(from_epoch(ts), tz), ts

    def test_every_zone_dates_the_ends_of_the_range_readers_accept(self):
        from zoneinfo import available_timezones

        for tz in sorted(available_timezones()):
            days = LocalDays(tz)
            for ts in (LocalDays.MIN_TS, LocalDays.MAX_TS):
                _date, start, end = days.day(ts)
                assert start <= ts < end, (tz, ts)


FIRST, LAST = to_epoch(utc(2020, 1, 1)), to_epoch(utc(2025, 1, 1)) - 1


@settings(max_examples=200, deadline=None)
@given(tz=st.sampled_from(ZONES), day=st.dates(date(2020, 1, 2), date(2024, 12, 30)),
       near=st.lists(st.integers(-3 * 3600, 3 * 3600), max_size=30),
       spread=st.lists(st.integers(FIRST, LAST), max_size=30), rnd=st.randoms())
def test_local_days_agree_with_local_date(tz, day, near, spread, rnd):
    """Epochs spread over 2020-2024 plus epochs within 3 hours of one local
    midnight, in sorted order (the day bounds are reused and crossed) and in
    shuffled order."""
    midnight = int(datetime.combine(day, time(), ZoneInfo(tz)).timestamp())
    epochs = [midnight + offset for offset in near] + spread
    shuffled = list(epochs)
    rnd.shuffle(shuffled)
    for order in (sorted(epochs), shuffled):
        days = LocalDays(tz)
        assert [days.date(ts) for ts in order] == [
            local_date(from_epoch(ts), tz) for ts in order]


def test_regional_series_uses_region_tokens():
    idx = ServerIndex([server("10.1.0.1", token="us-east-1"),
                       server("10.1.0.2", token="eu-west-1")])
    flows = [flow(ip="10.1.0.1", sampled_bytes=100),
             flow(ip="10.1.0.2", sampled_bytes=300)]
    series = regional_down_series(aggregate_flows(flows, idx), normalize=False)
    assert set(series) == {("p1", "us-east-1"), ("p1", "eu-west-1")}


# --- aggregation against a record-by-record reference ---------------------------------


def reference_aggregate(flows, index, tz_name="UTC", cert_ips=None):
    """Every FlowAggregate field updated record by record, with no memo and
    no rollup."""
    agg = FlowAggregate(tz_name=tz_name)
    cert_ips = cert_ips or set()
    days = LocalDays(tz_name)
    for f in flows:
        pid = index.attribute(f.server_ip, f.server_port, f.transport)
        if pid is None:
            agg.unattributed_records += 1
            continue
        facts = index.facts[f.server_ip]
        agg.attributed_records += 1
        est = f.sampled_bytes * f.sampling_rate
        hour = f.ts // 3600
        down = f.direction == DOWN
        if down:
            agg.provider_hour_down[(pid, hour)] += est
            agg.provider_down[pid] += est
            agg.provider_region_hour_down[(pid, facts.token, hour)] += est
        else:
            agg.provider_hour_up[(pid, hour)] += est
            agg.provider_up[pid] += est
        agg.provider_hour_lines[(pid, hour)].add(f.line_id)
        agg.provider_port_bytes[(pid, f.server_port, f.transport)] += est
        agg.provider_contacted[(pid, facts.family)].add(f.server_ip)
        agg.provider_lines_full[pid].add(f.line_id)
        if f.server_ip in cert_ips:
            agg.provider_lines_cert[pid].add(f.line_id)
        agg.line_regions[f.line_id].add(facts.region)
        agg.region_bytes[facts.region] += est
        slot = agg.line_day.setdefault((f.line_id, days.date(f.ts)), [set(), {}, {}])
        slot[0].add(f.server_ip)
        for per, key in ((slot[1], pid), (slot[2], (f.server_port, f.transport))):
            d, u = per.get(key, (0, 0))
            per[key] = (d + est, u) if down else (d, u + est)
    return agg


def in_order(value):
    """Dicts as their item lists, so key order is compared too."""
    if isinstance(value, dict):
        return [(key, in_order(v)) for key, v in value.items()]
    if isinstance(value, list):
        return [in_order(v) for v in value]
    return value


EQUIVALENCE_SERVERS = (
    server("10.1.0.1", token="eu-central-1"),
    server("10.1.0.2", country="US"),
    server("2001:db8::1", country="JP", token="ap-1"),
    server("10.2.0.1", pid="google", country="US", token="us-east1"),
    server("2001:db8::2", pid="google"),
    server("10.3.0.1", pid="p3", country="BR", sharing="shared"),
    server("2001:db8::3", pid="p3", country="US", sharing="shared", token="us-1"),
)
SERVER_IPS = [s.ip for s in EQUIVALENCE_SERVERS]

equivalence_flows = st.lists(st.builds(
    flow,
    ip=st.sampled_from(SERVER_IPS + ["203.0.113.9", "2001:db8:ffff::9"]),
    line=st.sampled_from(("L1", "L2", "L3", "L4")),
    port=st.sampled_from((443, 8883, 80, 5683)),
    transport=st.sampled_from(("tcp", "udp")),
    direction=st.sampled_from((DOWN, UP)),
    sampled_bytes=st.one_of(st.just(0), st.integers(0, 5000)),
    sampled_packets=st.integers(0, 5),
    rate=st.sampled_from((1, 10, 1000)),
    hours=st.integers(0, 3 * 24 * 60).map(lambda minutes: minutes / 60),
), max_size=60)


@settings(max_examples=300, deadline=None)
@given(flows=equivalence_flows, include_shared=st.booleans(),
       cert_ips=st.one_of(st.none(), st.sets(st.sampled_from(SERVER_IPS))),
       tz=st.sampled_from(("UTC", "Asia/Kolkata")))
def test_aggregate_matches_record_by_record_reference(catalog_profiles, flows,
                                                      include_shared, cert_ips, tz):
    """Same fields, same types, same keys in the same order, same counters:
    a port-filtered provider (google), shared servers with include_shared
    on and off, partial cert coverage, zero-byte records, both families,
    unattributed addresses, and a zone whose midnight is at :30 UTC."""
    google = next(p for p in catalog_profiles if p.provider_id == "google")
    index = ServerIndex(EQUIVALENCE_SERVERS, {"google": google},
                        include_shared=include_shared)
    got = aggregate_flows(flows, index, tz, cert_ips)
    want = reference_aggregate(flows, index, tz, cert_ips)
    for f in dataclasses.fields(FlowAggregate):
        value = getattr(got, f.name)
        assert type(value) is type(getattr(want, f.name)), f.name
        assert in_order(value) == in_order(getattr(want, f.name)), f.name


def reference_contacts(flows, backend_ips, tz_name):
    out = {}
    for f in flows:
        if f.server_ip in backend_ips:
            out.setdefault((f.line_id, local_date(from_epoch(f.ts), tz_name)), set()).add(
                f.server_ip)
    return out


def records_analysis(flows, index, threshold, tz_name, cert_ips):
    """What `analyze_flows` does to a trace, done to its records in memory."""
    from backmap.pipeline import DEFAULT_SWEEP_THRESHOLDS, FlowAnalysis

    contacts = line_contact_sets(flows, index.all_server_ips, tz_name)
    verdicts = detect_scanners(contacts, threshold)
    sweep = threshold_sweep(contacts, index.all_server_ips, DEFAULT_SWEEP_THRESHOLDS)
    agg = aggregate_flows(exclude_scanner_lines(flows, scanner_line_ids(verdicts)), index,
                          tz_name, cert_ips)
    return FlowAnalysis(verdicts, sweep, agg)


@settings(max_examples=150, deadline=None)
@given(flows=equivalence_flows.map(lambda flows: flows + [
           flow(ip=ip, line="S1", hours=i) for i, ip in enumerate(SERVER_IPS)]),
       include_shared=st.booleans(),
       cert_ips=st.one_of(st.none(), st.sets(st.sampled_from(SERVER_IPS))),
       tz=st.sampled_from(("UTC", "Asia/Kolkata")), threshold=st.integers(0, 4))
def test_analysis_is_the_same_from_bmf_jsonl_and_records(catalog_profiles, flows,
                                                         include_shared, cert_ips, tz,
                                                         threshold):
    """A trace written as `.bmf` and as JSONL gives the analysis its records
    give in memory, dict key order included: verdicts, sweep, contact sets
    and every aggregate field, which also match the record-by-record
    references with the scanner lines dropped. S1 contacts every server
    within a day, so it is a scanner at any threshold under 5; the other
    lines may be too."""
    import tempfile
    from pathlib import Path

    from backmap.pipeline import analyze_flows

    google = next(p for p in catalog_profiles if p.provider_id == "google")
    index = ServerIndex(EQUIVALENCE_SERVERS, {"google": google},
                        include_shared=include_shared)
    backend_ips = index.all_server_ips
    want = records_analysis(flows, index, threshold, tz, cert_ips)
    scanners = scanner_line_ids(want.verdicts)
    assert "S1" in scanners
    assert in_order(line_contact_sets(flows, backend_ips, tz)) == in_order(
        reference_contacts(flows, backend_ips, tz))
    reference = reference_aggregate([f for f in flows if f.line_id not in scanners], index,
                                    tz, cert_ips)
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"bmf": Path(tmp) / "flows.bmf", "jsonl": Path(tmp) / "flows.jsonl"}
        write_flows_binary(paths["bmf"], flows)
        write_flows_jsonl(paths["jsonl"], flows)
        for name, path in paths.items():
            got = analyze_flows(path, index, threshold, tz, cert_ips)
            assert got.verdicts == want.verdicts, name
            assert got.sweep == want.sweep, name
            assert in_order(line_contact_sets(read_flows(path), backend_ips, tz)) == in_order(
                line_contact_sets(flows, backend_ips, tz)), name
            for f in dataclasses.fields(FlowAggregate):
                value = getattr(got.agg, f.name)
                for expected in (want.agg, reference):
                    assert type(value) is type(getattr(expected, f.name)), (name, f.name)
                    assert in_order(value) == in_order(getattr(expected, f.name)), (name, f.name)
