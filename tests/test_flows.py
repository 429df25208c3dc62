import json
import math
import re
import socket
import struct
from datetime import date, datetime, time
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
        assert series == [(to_epoch(T0) // 3600, 2), (to_epoch(T0) // 3600 + 1, 1)]

    def test_suppression_drops_small_positive_counts(self):
        hour = to_epoch(T0) // 3600
        series = [(hour, 0), (hour + 1, 3), (hour + 2, 20)]
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

    # values a `.bmf` record cannot hold, which every flow format rejects
    BMF_LIMITS = [
        ("line_id", "L" * 17,
         f"field 'line_id': {'L' * 17!r} is not at most 16 ASCII characters without NUL"),
        ("line_id", "L\u00e9",
         "field 'line_id': 'L\u00e9' is not at most 16 ASCII characters without NUL"),
        ("line_id", "L\x00",
         "field 'line_id': 'L\\x00' is not at most 16 ASCII characters without NUL"),
        ("port", 70000, "field 'port': 70000 is out of range"),
        ("port", -1, "field 'port': -1 is out of range"),
        ("sampled_bytes", 2 ** 64, f"field 'sampled_bytes': {2 ** 64} is out of range"),
        ("sampled_packets", 2 ** 32, f"field 'sampled_packets': {2 ** 32} is out of range"),
        ("sampling_rate", 2 ** 32, f"field 'sampling_rate': {2 ** 32} is out of range"),
        ("ts", -1, "field 'ts': -1 is out of range"),
    ]

    @pytest.mark.parametrize("name, value, message", [
        ("direction", "sideways", "bad direction 'sideways'"),
        ("transport", "sctp", "bad transport 'sctp'"),
        ("server_ip", "10.1.0.999", "field 'server_ip': "),
        ("server_ip", 167837697, "field 'server_ip': address must be text, not int"),
        ("port", "https", "field 'port': "),
        ("sampled_bytes", -1, "sampled_bytes and sampled_packets must be >= 0"),
    ] + BMF_LIMITS)
    def test_jsonl_bad_value(self, tmp_path, name, value, message):
        path = self.write_jsonl(tmp_path / "flows.jsonl", **{name: value})
        with self.expect(path, re.escape(message)):
            list(read_flows(path))

    @pytest.mark.parametrize("name, value, message", BMF_LIMITS)
    def test_record_beyond_bmf_limits(self, tmp_path, index, name, value, message):
        """A record in memory that a `.bmf` record cannot hold fails both
        passes and the writer with the JSONL reader's message, also when
        its line and address have been seen before."""
        flows = [flow(), flow(line="L2"), flow(line="L2", hours=1)._replace(**{
            {"port": "server_port"}.get(name, name): value})]
        runs = {
            "contacts": lambda: contacts(flows, index),
            "aggregate": lambda: aggregate_flows(flows, index),
            "write": lambda: write_flows_binary(tmp_path / "flows.bmf", flows),
        }
        for run_name, run in runs.items():
            with pytest.raises(ValueError) as error:
                run()
            assert str(error.value) == message, run_name

    def test_failed_binary_write_leaves_the_file_as_it_was(self, tmp_path):
        """A bad record after the first chunks were written raises as the
        writer's records do and leaves no shorter file behind: the earlier
        file where there was one, else none."""
        good = [flow(hours=i / 3600) for i in range(5000)]
        bad = good + [flow()._replace(server_port=70000)]
        earlier = tmp_path / "earlier.bmf"
        write_flows_binary(earlier, [flow(), flow(line="L2")])
        before = earlier.read_bytes()
        for path in (earlier, tmp_path / "new.bmf"):
            with pytest.raises(ValueError, match="^field 'port': 70000 is out of range$"):
                write_flows_binary(path, bad)
        assert earlier.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["earlier.bmf"]

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
        (11, "<B", ord("X"), re.escape("line_id: 'L2\\x00X' has a NUL before its end")),
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
        (0, "<Q", 2 ** 64 - 1, f"field 'ts': {2 ** 64 - 1} is out of range"),
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
        """Record 2 is a flow whose ts has no local date, to a backend server
        or to an address no server has: the reader and every pass name its
        file, record and field."""
        for address in ("10.1.0.1", "203.0.113.9"):
            path = self.write_binary(tmp_path / "flows.bmf", (0, "<Q", ts),
                                     (25, "4s", socket.inet_aton(address)))
            for name, run in self.ts_runs(path, index).items():
                with pytest.raises(ValueError) as error:
                    run()
                assert str(error.value) == f"{path}:2: field 'ts': {ts} is out of range", \
                    (address, name)

    @pytest.mark.parametrize("ts", TS_OUT_OF_RANGE + [-1, -2 ** 63])
    def test_jsonl_ts_without_a_local_date(self, tmp_path, index, ts):
        path = self.write_jsonl(tmp_path / "flows.jsonl", ts=ts)
        for name, run in self.ts_runs(path, index).items():
            with pytest.raises(ValueError) as error:
                run()
            assert str(error.value) == f"{path}:2: field 'ts': {ts} is out of range", name

    @pytest.mark.parametrize("ts", TS_OUT_OF_RANGE)
    def test_record_ts_without_a_local_date(self, index, ts):
        for address in ("10.1.0.1", "203.0.113.9"):
            flows = [flow(), flow(ip=address)._replace(ts=ts)]
            for run in (lambda: contacts(flows, index), lambda: aggregate_flows(flows, index)):
                with pytest.raises(ValueError, match=rf"^field 'ts': {ts} is out of range$"):
                    run()

    CHUNK = 4096  # records per chunk the passes read of a `.bmf` file

    def write_long_trace(self, path, *changes):
        """2 * CHUNK + 200 records within one hour; every tenth is scanner
        line S1's, which contacts all ten backend servers. Each (record,
        offset, fmt, value) of `changes` is packed into that record."""
        flows = [flow(ip=f"10.1.0.{i // 10 % 10 + 1}", line="S1", hours=i / 10000)
                 if i % 10 == 0 else
                 flow(ip=f"10.1.0.{i % 3 + 1}", line=f"L{i % 4}", hours=i / 10000,
                      direction=(DOWN, UP)[i % 3 == 0])
                 for i in range(2 * self.CHUNK + 200)]
        write_flows_binary(path, flows)
        raw = bytearray(path.read_bytes())
        for number, offset, fmt, value in changes:
            struct.pack_into(fmt, raw, 8 + 64 * (number - 1) + offset, value)
        path.write_bytes(bytes(raw))
        return path

    @pytest.mark.parametrize("number, offset, fmt, value", [
        (2 * CHUNK + 52, 0, "<Q", LocalDays.MAX_TS + 1),
        (2 * CHUNK + 52, 57, "<I", 0),
        (2 * CHUNK + 52, 44, "<B", 2),
        (2 * CHUNK + 52, 43, "<B", 3),
        (2 * CHUNK + 52, 24, "<B", 5),
        (2 * CHUNK + 52, 23, "<B", 0xFF),
        (2 * CHUNK + 41, 57, "<I", 0),  # on scanner line S1
        (2 * CHUNK + 52, 11, "<B", ord("X")),  # a NUL inside the line id
    ], ids=["ts", "rate", "direction", "transport", "family", "line", "rate-on-scanner",
            "line-nul"])
    def test_bad_record_in_a_later_chunk(self, tmp_path, index, number, offset, fmt, value):
        """A bad record in the third chunk fails both passes as the record
        reader fails, with its number: the contact-set pass over the whole
        file and aggregation with the clean file's scanner lines excluded."""
        clean = self.write_long_trace(tmp_path / "clean.bmf")
        verdicts = detect_scanners(line_contact_sets(read_flows(clean),
                                                     index.all_server_ips), 5)
        assert scanner_line_ids(verdicts) == {"S1"}
        path = self.write_long_trace(tmp_path / "flows.bmf", (number, offset, fmt, value))
        with pytest.raises(ValueError) as want:
            list(read_flows(path))
        assert str(want.value).startswith(f"{path}:{number}: ")
        runs = {
            "contacts": lambda: line_contact_sets(read_flows(path), index.all_server_ips),
            "aggregate": lambda: aggregate_flows(
                exclude_scanner_lines(read_flows(path), scanner_line_ids(verdicts)), index),
        }
        for name, run in runs.items():
            with pytest.raises(ValueError) as error:
                run()
            assert str(error.value) == str(want.value), name

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
        assert [(line_day, per_provider) for line_day, (per_provider, _per_port) in profiles] == [
            (("L1", "2022-03-01"), {"p1": (1500, 0)}), (("L1", "2022-03-02"), {"p1": (1500, 0)})]

    @pytest.mark.parametrize("tz", ZONES)
    def test_every_quarter_hour_of_2022(self, tz):
        days = LocalDays(tz)
        for ts in range(to_epoch(utc(2022, 1, 1)), to_epoch(utc(2023, 1, 1)), 900):
            assert days.date(ts) == local_date(from_epoch(ts), tz), ts

    def test_every_zone_dates_the_ends_of_the_range_readers_accept(self):
        from zoneinfo import available_timezones

        for tz in sorted(available_timezones()):
            days = LocalDays(tz)
            for ts in (0, LocalDays.MAX_TS):
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
    series = regional_down_series(aggregate_flows(flows, idx))
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
        slot = agg.line_day.setdefault((f.line_id, days.date(f.ts)), [{}, {}])
        for per, key in ((slot[0], pid), (slot[1], (f.server_port, f.transport))):
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
    for field in FlowAggregate.__slots__:
        value = getattr(got, field)
        assert type(value) is type(getattr(want, field)), field
        assert in_order(value) == in_order(getattr(want, field)), field


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
            for field in FlowAggregate.__slots__:
                value = getattr(got.agg, field)
                for expected in (want.agg, reference):
                    assert type(value) is type(getattr(expected, field)), (name, field)
                    assert in_order(value) == in_order(getattr(expected, field)), (name, field)


def multi_chunk_trace(path):
    """12,500 records over two days in time order, so past three 4,096-record
    chunks; the records in each hour are shuffled. Scanner line S1 contacts
    every server each day, each other line three addresses."""
    import random

    rnd = random.Random(13)
    ips = SERVER_IPS + ["203.0.113.9", "2001:db8:ffff::9"]
    line_ips = [rnd.sample(ips, 3) for _ in range(12)]
    flows = []
    for hour in range(48):
        batch = [flow(ip=ip, line="S1", hours=hour + 0.5) for ip in SERVER_IPS] if hour in (
            3, 30) else []
        batch += [flow(ip=rnd.choice(line_ips[line]), line=f"L{line}",
                       port=rnd.choice((443, 8883, 80, 5683)),
                       transport=rnd.choice(("tcp", "udp")),
                       direction=rnd.choice((DOWN, UP)),
                       sampled_bytes=rnd.randrange(5000), rate=rnd.choice((1, 10, 1000)),
                       hours=hour + rnd.randrange(3600) / 3600)
                  for line in rnd.choices(range(12), k=260)]
        rnd.shuffle(batch)
        flows += batch
    write_flows_binary(path, flows)
    return flows


def test_multi_chunk_trace_matches_the_references(catalog_profiles, tmp_path):
    """`analyze_flows` over a `.bmf` trace of three chunks and more gives
    what its records give in memory and the record-by-record references,
    key order included. In Asia/Kolkata a local midnight (18:30 UTC) falls
    inside the second chunk and another inside the third."""
    from backmap.pipeline import analyze_flows

    tz = "Asia/Kolkata"
    flows = multi_chunk_trace(tmp_path / "flows.bmf")
    assert len(flows) > 3 * 4096
    days = LocalDays(tz)
    for chunk in (1, 2):
        part = flows[chunk * 4096:(chunk + 1) * 4096]
        assert days.date(min(f.ts for f in part)) != days.date(max(f.ts for f in part))
    google = next(p for p in catalog_profiles if p.provider_id == "google")
    index = ServerIndex(EQUIVALENCE_SERVERS, {"google": google})
    cert_ips = {"10.1.0.1", "2001:db8::2"}
    want = records_analysis(flows, index, 4, tz, cert_ips)
    assert scanner_line_ids(want.verdicts) == {"S1"}
    reference = reference_aggregate([f for f in flows if f.line_id != "S1"], index, tz,
                                    cert_ips)
    got = analyze_flows(tmp_path / "flows.bmf", index, 4, tz, cert_ips)
    assert got.verdicts == want.verdicts
    assert got.sweep == want.sweep
    assert in_order(line_contact_sets(flows, index.all_server_ips, tz)) == in_order(
        reference_contacts(flows, index.all_server_ips, tz))
    for field in FlowAggregate.__slots__:
        value = getattr(got.agg, field)
        for expected in (want.agg, reference):
            assert type(value) is type(getattr(expected, field)), field
            assert in_order(value) == in_order(getattr(expected, field)), field


def test_untraced_analysis_of_a_bmf_trace_builds_no_record(catalog_profiles, tmp_path,
                                                             monkeypatch):
    """Both passes over a `.bmf` trace read its rows: neither the record
    reader nor the record packer runs."""
    from backmap import flows as flows_module
    from backmap.pipeline import analyze_flows

    flows = multi_chunk_trace(tmp_path / "flows.bmf")
    index = ServerIndex(EQUIVALENCE_SERVERS)
    want = records_analysis(flows, index, 4, "UTC", None)

    def boom(*args):
        raise AssertionError("a record was built")

    monkeypatch.setattr(flows_module, "_record_chunks", boom)
    monkeypatch.setattr(flows_module, "read_flows_binary", boom)
    got = analyze_flows(tmp_path / "flows.bmf", index, 4)
    assert got.verdicts == want.verdicts
    assert in_order(got.agg.line_day) == in_order(want.agg.line_day)


def synth_order_trace():
    """Three UTC days of records in synth's order: UTC day, then line, then
    hour. Each line has rows to two dedicated servers on two ports, to
    google on a port its profile filters and one it does not, and to an
    unattributed address, in both directions. Scanner line S1 contacts
    every server each hour."""
    pairs = (("10.1.0.1", 8883, DOWN), ("10.1.0.1", 443, UP), ("2001:db8::1", 8883, DOWN),
             ("10.2.0.1", 443, UP), ("10.2.0.1", 8883, DOWN), ("203.0.113.9", 443, DOWN))
    flows = []
    for day in range(3):
        for n, line in enumerate(("L0", "L1", "S1", "L2", "L3")):
            for hour in range(24):
                at = day * 24 + hour + 0.25
                if line == "S1":
                    flows += [flow(ip=ip, line=line, hours=at) for ip in SERVER_IPS]
                    continue
                flows += [flow(ip=ip, line=line, port=port, direction=direction,
                               sampled_bytes=100 * hour + n, rate=10, hours=at)
                          for i, (ip, port, direction) in enumerate(pairs)
                          if (hour + i + n) % 3]
    return flows


@pytest.mark.parametrize("tz", ["Asia/Kolkata", "America/St_Johns", "UTC"])
def test_a_pass_resolves_each_local_day_once(catalog_profiles, tmp_path, monkeypatch, tz):
    """In synth's order the rows go back and forth over a local midnight; a
    pass keeps the day it left and swaps back to it, so it asks zoneinfo
    for each local day once, plus at most once more."""
    flows = synth_order_trace()
    local_days = len({LocalDays(tz).date(f.ts) for f in flows})
    write_flows_binary(tmp_path / "flows.bmf", flows)
    google = next(p for p in catalog_profiles if p.provider_id == "google")
    index = ServerIndex(EQUIVALENCE_SERVERS, {"google": google})
    calls = []
    day = LocalDays.day
    monkeypatch.setattr(LocalDays, "day", lambda self, ts: calls.append(ts) or day(self, ts))
    for trace in (flows, read_flows(tmp_path / "flows.bmf")):
        for run_pass in (lambda: line_contact_sets(trace, index.all_server_ips, tz),
                         lambda: aggregate_flows(trace, index, tz)):
            calls.clear()
            run_pass()
            assert len(calls) <= local_days + 1


@pytest.mark.parametrize("tz", ["Asia/Kolkata", "America/St_Johns"])
def test_a_trace_in_synth_order_matches_the_references(catalog_profiles, tmp_path, tz):
    """In Asia/Kolkata (+05:30) and America/St_Johns (-03:30) each line's
    rows cross a local midnight, and the next line's rows go back to the day
    before it; later the rows of a (line, key) pair come back to a local day
    that other lines' rows came between, and must add to what that pair
    already holds for the day. Both passes, over the records and over a
    `.bmf` trace that excludes the scanner, match the record-by-record
    references, key order included."""
    from backmap.pipeline import analyze_flows

    flows = synth_order_trace()
    days = LocalDays(tz)
    dates = [days.date(f.ts) for f in flows]
    assert sum(later < earlier for earlier, later in zip(dates, dates[1:])) >= 12
    google = next(p for p in catalog_profiles if p.provider_id == "google")
    index = ServerIndex(EQUIVALENCE_SERVERS, {"google": google})
    backend_ips = index.all_server_ips
    cert_ips = {"10.1.0.1", "2001:db8::2"}
    write_flows_binary(tmp_path / "flows.bmf", flows)
    want = records_analysis(flows, index, 4, tz, cert_ips)
    assert scanner_line_ids(want.verdicts) == {"S1"}
    got = analyze_flows(tmp_path / "flows.bmf", index, 4, tz, cert_ips)
    assert got.verdicts == want.verdicts
    contacts = in_order(reference_contacts(flows, backend_ips, tz))
    for trace in (flows, read_flows(tmp_path / "flows.bmf")):
        assert in_order(line_contact_sets(trace, backend_ips, tz)) == contacts
    reference = reference_aggregate([f for f in flows if f.line_id != "S1"], index, tz,
                                    cert_ips)
    for field in FlowAggregate.__slots__:
        for agg in (got.agg, want.agg):
            value = getattr(agg, field)
            assert type(value) is type(getattr(reference, field)), field
            assert in_order(value) == in_order(getattr(reference, field)), field
