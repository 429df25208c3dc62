import ipaddress
import random
import re
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backmap.disruption import (BlocklistEntry, BlocklistIndex, InsufficientHistoryError,
                                RoutingEvent, blocklist_check, outage_scan,
                                read_blocklist, routing_event_overlap)
from backmap.footprint import BackendServer
from backmap.geo import Location
from backmap.ingest import StudyWindow
from backmap.timeutil import to_epoch, utc

SCAN = StudyWindow(utc(2022, 2, 28), utc(2022, 3, 1))
T0 = to_epoch(utc(2022, 2, 21)) // 3600  # baseline week start, in epoch hours
SCAN_HOUR = T0 + 7 * 24  # first hour of the scan day


def series(values, start=T0):
    """(epoch hour, value) points, one per hour from `start`."""
    return [(start + i, v) for i, v in enumerate(values)]


def full_series(outage_hours=(), baseline=100.0, dip=85.0):
    """7 baseline days at a flat level, then one scan day with optional dips."""
    values = [baseline] * (8 * 24)
    for h in outage_hours:
        values[7 * 24 + h] = dip
    return series(values)


class TestOutageScan:
    def test_fifteen_percent_dip_for_three_hours(self):
        data = {("p1", "us-east"): full_series(outage_hours=(10, 11, 12))}
        findings = outage_scan(data, SCAN)
        assert len(findings) == 1
        f = findings[0]
        assert f.provider_id == "p1"
        assert f.region == "us-east"
        assert f.max_drop_fraction == pytest.approx(0.15)
        assert f.window == (SCAN_HOUR + 10, SCAN_HOUR + 12)
        assert f.observed == (85.0, 85.0, 85.0)

    def test_no_finding_when_at_or_above_baseline(self):
        data = {("p1", "us-east"): full_series()}
        assert outage_scan(data, SCAN) == []

    def test_single_hour_dip_below_sustain_window(self):
        data = {("p1", "us-east"): full_series(outage_hours=(10,))}
        assert outage_scan(data, SCAN, sustain_hours=2) == []

    def test_a_missing_hour_breaks_the_stretch(self):
        data = {("p1", "us-east"): [point for point in full_series((10, 11, 13, 14))
                                    if point[0] != SCAN_HOUR + 12]}
        assert [f.window for f in outage_scan(data, SCAN)] == [
            (SCAN_HOUR + 10, SCAN_HOUR + 11), (SCAN_HOUR + 13, SCAN_HOUR + 14)]

    def test_insufficient_history_is_an_error(self):
        short = {("p1", "r"): series([100.0] * 24 * 3, start=SCAN_HOUR - 3 * 24)}
        with pytest.raises(InsufficientHistoryError):
            outage_scan(short, SCAN)

    @settings(max_examples=40, deadline=None)
    @given(scale=st.floats(min_value=0.01, max_value=1000.0))
    def test_scale_equivariance(self, scale):
        base = {("p1", "us-east"): full_series(outage_hours=(10, 11, 12))}
        scaled = {key: [(ts, v * scale) for ts, v in s] for key, s in base.items()}
        f1 = outage_scan(base, SCAN)
        f2 = outage_scan(scaled, SCAN)
        assert len(f1) == len(f2) == 1
        assert f1[0].max_drop_fraction == pytest.approx(f2[0].max_drop_fraction)
        assert f1[0].window == f2[0].window


def server(ip, pid="p1", asn=64500, prefix=None):
    return BackendServer(
        ip=ip, provider_id=pid, location=Location.of("DE"),
        location_confidence="unanimous", prefix=prefix or f"{ip}/32", asn=asn,
        sharing="dedicated", sources=frozenset({"tls-cert"}))


class TestBlocklist:
    def test_containment(self):
        index = BlocklistIndex([BlocklistEntry("l1", "192.0.2.0/24"),
                                BlocklistEntry("v4", "10.0.0.0/8"),
                                BlocklistEntry("v6", "::a00:0/104")])
        report = blocklist_check([server("192.0.2.7")], index)
        assert [m.ip for m in report.matches] == ["192.0.2.7"]
        assert report.matches[0].list_ids == {"l1"}
        # the two blocks share an integer network value; each matches its own family
        assert index.matches("10.5.5.5") == {"v4"}
        assert index.matches("::a05:505") == {"v6"}

    def test_a_v6_entry_is_parsed_once(self, monkeypatch):
        """The entry parses its CIDR and the index takes that parse; only
        the lookup parses the queried address."""
        calls = []
        ip_network = ipaddress.ip_network
        monkeypatch.setattr(ipaddress, "ip_network",
                            lambda *args, **kw: calls.append(args) or ip_network(*args, **kw))
        index = BlocklistIndex([BlocklistEntry("v6", "2001:DB8:0::/32")])
        assert calls == [("2001:DB8:0::/32",)]
        assert index.matches("2001:db8::7") == {"v6"}
        assert len(calls) == 1

    def test_multiple_lists_per_ip(self):
        index = BlocklistIndex([BlocklistEntry("l1", "192.0.2.0/24"),
                                BlocklistEntry("l2", "192.0.2.7")])
        report = blocklist_check([server("192.0.2.7")], index)
        assert report.matches[0].list_ids == {"l1", "l2"}

    def test_excluded_list_reported_separately(self):
        index = BlocklistIndex([BlocklistEntry("noisy", "192.0.2.0/24"),
                                BlocklistEntry("good", "192.0.2.128/25")])
        servers = [server("192.0.2.7"), server("192.0.2.200")]
        report = blocklist_check(servers, index, exclude_lists=["noisy"])
        assert [m.ip for m in report.matches] == ["192.0.2.200"]
        assert [m.ip for m in report.excluded_matches] == ["192.0.2.7"]

    def test_distinct_ip_and_per_provider_counts_disambiguate(self):
        # one IP on two lists, matched for two providers, still counts once
        index = BlocklistIndex([BlocklistEntry("l1", "10.0.0.0/8"),
                                BlocklistEntry("l2", "10.0.0.7")])
        servers = [server("10.0.0.7", pid="pa"), server("10.0.0.7", pid="pb"),
                   server("10.0.0.9", pid="pa")]
        report = blocklist_check(servers, index)
        assert report.distinct_ips() == {"10.0.0.7", "10.0.0.9"}

    def test_netset_parsing(self, tmp_path):
        path = tmp_path / "sample.netset"
        path.write_text("# comment\n192.0.2.0/24\n198.51.100.7  # host entry\n\n")
        entries = read_blocklist(path)
        assert [e.cidr for e in entries] == ["192.0.2.0/24", "198.51.100.7/32"]
        assert all(e.list_id == "sample" for e in entries)

    def test_netset_bad_entry_names_file_and_line(self, tmp_path):
        path = tmp_path / "sample.netset"
        path.write_text("# comment\n192.0.2.0/24\n\nnot-a-net  # typo\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:4: 'not-a-net' "):
            read_blocklist(path)

    def test_netset_not_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "sample.netset"
        path.write_bytes(b"192.0.2.0/24\n\xff\xfe\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: not UTF-8: "
                                             r"byte 0xff: invalid start byte$"):
            read_blocklist(path)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_netset_lines_counted_as_text_mode_splits_them(self, tmp_path, newline):
        path = tmp_path / "sample.netset"
        path.write_bytes(newline.join(["# c", "192.0.2.0/24", "", "not-a-net"]).encode()
                         + newline.encode() + b"\xff")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:5: not UTF-8"):
            read_blocklist(path)
        path.write_bytes(newline.join(["# c", "192.0.2.0/24", "", "not-a-net"]).encode())
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:4: 'not-a-net' "):
            read_blocklist(path)

    def test_matches_equal_numpy_bruteforce(self):
        rng = random.Random(11)
        cidrs = []
        for i in range(300):
            length = rng.choice([8, 16, 24, 32])
            base = rng.randrange(0, 2 ** 32) >> (32 - length) << (32 - length)
            cidrs.append((base, length, f"l{i % 7}"))
        index = BlocklistIndex([
            BlocklistEntry(lid, f"{ipaddress.ip_address(base)}/{length}")
            for base, length, lid in cidrs])
        addrs = np.array([rng.randrange(0, 2 ** 32) for _ in range(20_000)],
                         dtype=np.uint64)
        # vectorized brute force: every (address, cidr) containment pair
        hits = {}
        for base, length, lid in cidrs:
            mask = np.uint64(((1 << length) - 1) << (32 - length) if length else 0)
            contained = (addrs & mask) == np.uint64(base)
            for pos in np.nonzero(contained)[0]:
                hits.setdefault(int(addrs[pos]), set()).add(lid)
        for value in addrs:
            ip = str(ipaddress.ip_address(int(value)))
            assert index.matches(ip) == hits.get(int(value), set()), ip

    @settings(max_examples=30, deadline=None)
    @given(st.sets(st.sampled_from(["l1", "l2", "l3"]), max_size=2))
    def test_removing_lists_never_adds_matches(self, removed):
        index = BlocklistIndex([BlocklistEntry("l1", "10.0.0.0/8"),
                                BlocklistEntry("l2", "10.1.0.0/16"),
                                BlocklistEntry("l3", "192.0.2.0/24")])
        servers = [server("10.1.2.3"), server("192.0.2.9"), server("198.51.100.1")]
        baseline = {m.ip: m.list_ids for m in blocklist_check(servers, index).matches}
        shrunk = {m.ip: m.list_ids
                  for m in blocklist_check(servers, index, exclude_lists=removed).matches}
        assert set(shrunk) <= set(baseline)
        for ip, lists in shrunk.items():
            assert lists <= baseline[ip]


class TestRoutingEvents:
    def window(self, offset_h=0, dur=4):
        start = SCAN.start + timedelta(hours=offset_h)
        return (start, start + timedelta(hours=dur))

    def test_unrelated_asn_no_overlap(self):
        events = [RoutingEvent(kind="as-outage", asn=999, window=self.window())]
        reports = routing_event_overlap([server("10.0.0.1", asn=64500)], events, SCAN)
        assert reports[0].affected_servers == ()

    def test_covering_prefix_hits_contained_servers(self):
        events = [RoutingEvent(kind="hijack", prefix="10.0.0.0/8", window=self.window())]
        servers = [server("10.0.0.1"), server("10.0.0.2"), server("192.0.2.1")]
        reports = routing_event_overlap(servers, events, SCAN)
        assert reports[0].affected_servers == ("10.0.0.1", "10.0.0.2")

    def test_event_outside_study_window_skipped(self):
        past = (SCAN.start - timedelta(days=30), SCAN.start - timedelta(days=29))
        events = [RoutingEvent(kind="leak", prefix="10.0.0.0/8", window=past)]
        assert routing_event_overlap([server("10.0.0.1")], events, SCAN) == []

    def test_planted_overlaps_exactly_reported(self):
        servers = [server(f"10.0.0.{i}", asn=64500) for i in range(1, 4)]
        events = [
            RoutingEvent(kind="hijack", prefix="10.0.0.0/30", window=self.window()),
            RoutingEvent(kind="as-outage", asn=64500, window=self.window()),
            RoutingEvent(kind="leak", prefix="203.0.113.0/24", window=self.window()),
        ]
        reports = routing_event_overlap(servers, events, SCAN)
        affected_counts = [len(r.affected_servers) for r in reports]
        assert affected_counts == [3, 3, 0]


def v4_networks():
    return st.builds(lambda value, length: ipaddress.ip_network((0x0A000000 + value, length),
                                                                strict=False),
                     st.integers(0, 0xFFFF), st.integers(8, 32))


def v6_networks():
    return st.builds(lambda value, length: ipaddress.ip_network(
        (0x20010DB8 << 96 | value, length), strict=False),
        st.integers(0, 0xFFFF), st.sampled_from([32, 64, 100, 112, 120, 127, 128]))


NETWORKS = st.one_of(v4_networks(), v6_networks())


@settings(max_examples=200, deadline=None)
@given(server_nets=st.lists(NETWORKS, min_size=1, max_size=20),
       event_nets=st.lists(NETWORKS, min_size=1, max_size=6))
def test_prefix_overlap_agrees_with_ipaddress(server_nets, event_nets):
    """Integer-range overlap against `ipaddress` overlaps, server by server."""
    servers = [server(str(net[-1]), pid=f"p{i % 3}", prefix=str(net))
               for i, net in enumerate(server_nets)]
    window = (SCAN.start, SCAN.start + timedelta(hours=1))
    events = [RoutingEvent(kind="hijack", prefix=str(net), window=window)
              for net in event_nets]
    reports = routing_event_overlap(servers, events, SCAN)
    assert [r.event for r in reports] == events
    for report, enet in zip(reports, event_nets):
        hit = [s for s, snet in zip(servers, server_nets)
               if snet.version == enet.version and snet.overlaps(enet)]
        assert report.affected_servers == tuple(sorted({s.ip for s in hit}))
        assert report.affected_providers == tuple(sorted({s.provider_id for s in hit}))
