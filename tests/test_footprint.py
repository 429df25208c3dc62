import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backmap.footprint import (BackendServer, LocationHint, PrefixTable,
                               UnlocatableError, UnroutedError, diff_snapshots,
                               diversity_report, load_prefix_table,
                               locate, map_prefix_asn)
from backmap.fusion import fuse
from backmap.geo import Location
from backmap.ingest import Observation
from backmap.pipeline import read_servers, write_servers
from backmap.timeutil import LocalDays, to_epoch, utc

T0 = to_epoch(utc(2022, 2, 28))
UTC_DATE = LocalDays("UTC").date  # the day of an instant, as fuse takes it


def hint(country, source="scan-metadata", city=None):
    return LocationHint(ip="192.0.2.1", source=source,
                        location=Location.of(country, city))


class TestLocate:
    def test_region_token_wins_unanimously(self):
        region_map = {"eu-west-1": Location.of("IE", "Dublin")}
        location, confidence = locate("eu-west-1", region_map, [hint("US")])
        assert location == Location.of("IE", "Dublin")
        assert confidence == "unanimous"

    def test_strict_majority(self):
        location, confidence = locate(None, {}, [hint("US"), hint("US"), hint("DE")])
        assert location.country == "US"
        assert confidence == "majority"

    def test_tie_broken_by_source_priority(self):
        hints = [hint("US", source="prefix-announcement"),
                 hint("DE", source="scan-metadata")]
        location, confidence = locate(None, {}, hints)
        assert location.country == "US"
        assert confidence == "tiebreak"

    def test_all_agree_is_unanimous_with_city(self):
        hints = [hint("DE", city="Frankfurt"), hint("DE", city="Frankfurt")]
        location, confidence = locate(None, {}, hints)
        assert confidence == "unanimous"
        assert location.city == "Frankfurt"

    def test_city_dropped_without_unanimity(self):
        hints = [hint("DE", city="Frankfurt"), hint("DE", city="Berlin")]
        location, confidence = locate(None, {}, hints)
        assert location.city is None

    def test_unknown_token_falls_back_to_hints(self):
        location, confidence = locate("xx-new-9", {}, [hint("SE")])
        assert location.country == "SE"

    def test_no_token_no_hints_is_error(self):
        with pytest.raises(UnlocatableError, match="unlocatable"):
            locate(None, {}, [])

    @settings(max_examples=100, deadline=None)
    @given(st.randoms())
    def test_deterministic_under_hint_permutation(self, rng):
        hints = [hint("US", source="prefix-announcement"),
                 hint("DE", source="scan-metadata"),
                 hint("US", source="latency-probe"),
                 hint("FR", source="latency-probe")]
        baseline = locate(None, {}, hints)
        shuffled = list(hints)
        rng.shuffle(shuffled)
        assert locate(None, {}, shuffled) == baseline


class TestPrefixTable:
    def make_table(self):
        table = PrefixTable()
        table.add("10.0.0.0/8", [100])
        table.add("10.1.0.0/16", [200])
        return table

    def test_longest_prefix_wins(self):
        prefix, asn, origins = map_prefix_asn("10.1.2.3", self.make_table())
        assert prefix == "10.1.0.0/16"
        assert asn == 200

    def test_fallback_to_shorter(self):
        prefix, asn, _ = map_prefix_asn("10.2.2.3", self.make_table())
        assert prefix == "10.0.0.0/8"
        assert asn == 100

    def test_unrouted_is_an_error(self):
        with pytest.raises(UnroutedError, match="unrouted"):
            map_prefix_asn("203.0.113.9", self.make_table())

    def test_multi_origin_primary_is_lowest(self, tmp_path):
        path = tmp_path / "prefix2as.tsv"
        # ::a00:0/104 has the same integer network value as 10.0.0.0/8
        path.write_text("10.0.0.0\t8\t300_100_200\n2001:db8::\t32\t65000\n"
                        "::a00:0\t104\t64999\n")
        table = load_prefix_table(path)
        prefix, asn, origins = map_prefix_asn("10.5.5.5", table)
        assert prefix == "10.0.0.0/8"
        assert origins == (100, 200, 300)
        assert asn == 100
        prefix, asn, _ = map_prefix_asn("2001:db8::77", table)
        assert prefix == "2001:db8::/32"
        assert map_prefix_asn("::a05:505", table) == ("::a00:0/104", 64999, (64999,))

    @pytest.mark.parametrize("row, field, reason", [
        ("10.0.0.300\t24\t1", "prefix",
         "'10.0.0.300' does not appear to be an IPv4 or IPv6 address"),
        ("10.0.0.0\t33\t1", "length",
         "'10.0.0.0/33' does not appear to be an IPv4 or IPv6 network"),
        ("10.0.0.0\tx\t1", "length", "invalid literal for int() with base 10: 'x'"),
        ("10.0.0.0\t8\tAS1", "asn", "invalid literal for int() with base 10: 'AS1'"),
        ("10.0.0.0\t8\t64500_0", "asn", "asn must be positive"),
    ])
    def test_bad_row_names_its_file_line_and_field(self, tmp_path, row, field, reason):
        path = tmp_path / "prefix2as.tsv"
        path.write_text(f"# header\n10.0.0.0\t8\t1\n{row}\n")
        with pytest.raises(ValueError) as err:
            load_prefix_table(path)
        assert str(err.value) == f"{path}:3: field '{field}': {reason}"

    def test_bruteforce_agreement_on_fixture_table(self, tmp_path):
        import ipaddress
        import random
        rng = random.Random(17)
        rows = []
        for i in range(50):
            length = rng.choice([8, 12, 16, 20, 24])
            base = ipaddress.ip_network(
                (rng.randrange(0, 2 ** 32) >> (32 - length) << (32 - length), length))
            rows.append((str(base.network_address), length, str(100 + i)))
        path = tmp_path / "prefix2as.tsv"
        path.write_text("".join(f"{p}\t{l}\t{a}\n" for p, l, a in rows))
        table = load_prefix_table(path)
        nets = [(ipaddress.ip_network(f"{p}/{l}"), int(a)) for p, l, a in rows]
        for _ in range(300):
            ip = ipaddress.ip_address(rng.randrange(0, 2 ** 32))
            covering = [(n, a) for n, a in nets if ip in n]
            if not covering:
                with pytest.raises(UnroutedError):
                    table.lookup(str(ip))
                continue
            best_len = max(n.prefixlen for n, _ in covering)
            best_asns = sorted(a for n, a in covering if n.prefixlen == best_len)
            entry = table.lookup(str(ip))
            assert entry.primary_asn == best_asns[0]


def server(ip, pid="p1", asn=100, country="DE", sharing="dedicated", prefix=None,
           city=None):
    return BackendServer(
        ip=ip, provider_id=pid, location=Location.of(country, city),
        location_confidence="unanimous", prefix=prefix or f"{ip}/32", asn=asn,
        sharing=sharing, sources=frozenset({"tls-cert"}))


def candidate_set(pid, ips):
    return fuse([Observation(provider_id=pid, fqdn=f"d.{pid}.example", ip=ip,
                             source="tls-cert", seen_at=T0) for ip in ips], UTC_DATE)[0]


class TestDiffSnapshots:
    def test_basic_partition(self):
        diff = diff_snapshots(candidate_set("p1", ["10.0.0.1", "10.0.0.2"]),
                              candidate_set("p1", ["10.0.0.2", "10.0.0.3"]))["p1"]
        assert diff.in_both == {"10.0.0.2"}
        assert diff.only_a == {"10.0.0.1"}
        assert diff.only_b == {"10.0.0.3"}

    def test_identity(self):
        snap = candidate_set("p1", ["10.0.0.1"])
        diff = diff_snapshots(snap, snap)["p1"]
        assert diff.only_a == diff.only_b == frozenset()

    @settings(max_examples=200, deadline=None)
    @given(a=st.sets(st.integers(min_value=1, max_value=60), max_size=30),
           b=st.sets(st.integers(min_value=1, max_value=60), max_size=30))
    def test_partition_identities_hold(self, a, b):
        snap_a = candidate_set("p1", [f"10.0.0.{i}" for i in a] or ["10.9.9.9"])
        snap_b = candidate_set("p1", [f"10.0.0.{i}" for i in b] or ["10.9.9.9"])
        diff = diff_snapshots(snap_a, snap_b)["p1"]
        set_a = {ip for _, ip in snap_a}
        set_b = {ip for _, ip in snap_b}
        assert diff.in_both | diff.only_a == set_a
        assert diff.in_both | diff.only_b == set_b
        assert not (diff.in_both & diff.only_a)
        assert not (diff.in_both & diff.only_b)
        assert not (diff.only_a & diff.only_b)


class TestDiversity:
    def test_three_ips_one_slash24(self):
        servers = [server(f"10.0.0.{i}") for i in (1, 2, 3)]
        assert diversity_report(servers)["p1"].v4_prefix_count == 1

    def test_two_slash24(self):
        servers = [server("10.0.0.1"), server("10.0.1.1")]
        assert diversity_report(servers)["p1"].v4_prefix_count == 2

    def test_v6_slash56_and_locations(self):
        servers = [
            server("2001:db8::1", prefix="2001:db8::/64"),
            server("2001:db8:0:0:1::1", prefix="2001:db8::/48"),   # same /56
            server("2001:db8:0:ff00::1", prefix="2001:db8::/48"),  # other /56
            server("10.0.0.1", country="FR", city="Paris"),
        ]
        row = diversity_report(servers)["p1"]
        assert row.v6_prefix_count == 2
        assert row.country_count == 2
        assert row.location_count == 2

    def test_counts_nondecreasing_under_growth(self):
        base = [server("10.0.0.1")]
        grown = base + [server("10.1.0.1", asn=700, country="SE")]
        first = diversity_report(base)["p1"]
        second = diversity_report(grown)["p1"]
        assert second.asn_count >= first.asn_count
        assert second.v4_prefix_count >= first.v4_prefix_count
        assert second.country_count >= first.country_count


def backend_server(tmp_path, ip, prefix):
    """The server of one servers.jsonl row, as `read_servers` reads it back."""
    path = tmp_path / "servers.jsonl"
    write_servers(path, [BackendServer(
        ip=ip, provider_id="p1", location=Location.of("DE"),
        location_confidence="unanimous", prefix=prefix, asn=64500,
        sharing="dedicated", sources=frozenset({"tls-cert"}))])
    [server] = read_servers(path)
    return server


class TestBackendServerPrefixCheck:
    """The servers reader's containment check skips `ipaddress` for
    canonical IPv4 text and keeps its messages for everything else."""

    @pytest.mark.parametrize("ip, prefix", [
        ("192.0.2.7", "192.0.2.0/24"), ("192.0.2.7", "192.0.2.7/32"), ("10.1.2.3", "0.0.0.0/0"),
        ("2001:db8::7", "2001:db8::/64"),
    ])
    def test_address_inside_its_prefix(self, tmp_path, ip, prefix):
        assert backend_server(tmp_path, ip, prefix).prefix == prefix

    @pytest.mark.parametrize("ip, prefix", [
        ("192.0.3.7", "192.0.2.0/24"), ("10.0.0.2", "10.0.0.1/32"),
        ("2001:db9::7", "2001:db8::/64"), ("192.0.2.7", "2001:db8::/64"),
        ("2001:db8::7", "0.0.0.0/0"),
    ])
    def test_address_outside_its_prefix(self, tmp_path, ip, prefix):
        with pytest.raises(ValueError, match=rf":1: prefix {re.escape(prefix)} does not contain "
                                             rf"{re.escape(ip)}$"):
            backend_server(tmp_path, ip, prefix)

    @pytest.mark.parametrize("ip, prefix, message", [
        ("192.0.2.7", "192.0.2.1/24", "192.0.2.1/24 has host bits set"),
        ("2001:db8::7", "2001:db8::1/64", "2001:db8::1/64 has host bits set"),
        ("192.0.2.7", "192.0.2.0/33",
         "'192.0.2.0/33' does not appear to be an IPv4 or IPv6 network"),
        ("192.0.2.7", "not-a-net", "'not-a-net' does not appear to be an IPv4 or IPv6 network"),
        ("999.0.2.7", "192.0.2.0/24", "'999.0.2.7' does not appear to be an IPv4 or IPv6 address"),
    ])
    def test_bad_prefix_or_address_keeps_the_ipaddress_message(self, tmp_path, ip, prefix,
                                                                message):
        with pytest.raises(ValueError, match=re.escape(message)):
            backend_server(tmp_path, ip, prefix)
