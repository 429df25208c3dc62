"""The parse and match fast paths against the general code they skip.

`timeutil.parse_iso`, `netutil.canonical_ip`/`ip_family`,
`netutil.prefix_contains`/`network_range`/`truncate_prefix`,
`PrefixIndex.containing` and the prefix table and blocklist inserts take a
shortcut for the one spelling this program writes; `ingest._match_name` and
`fusion.classify_sharing` ask only the catalog patterns a name could match;
`ingest.NameMatches` answers a repeated name from memory;
`timeutil.epoch_second` passes an in-range int as it is; catalogs are
parsed by libyaml's loader where PyYAML has it. Each must give what the
general code gives, value for value and error for error. The general
code is kept here as the reference.
"""

import importlib.util
import ipaddress
import string
import sys
import types
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from backmap import catalog, ingest
from backmap.catalog import default_catalog_path, match_fqdn, normalize_fqdn
from backmap.disruption import BlocklistEntry, BlocklistIndex
from backmap.footprint import PrefixTable, RouteEntry, UnroutedError, _region_token
from backmap.fusion import classify_sharing
from backmap.netutil import (PrefixIndex, _v4_int, canonical_ip, ip_family, network_range,
                             parse_prefix, prefix_contains, truncate_prefix)
from backmap.synth import write_synthetic_catalog
from backmap.jsonl import Memo
from backmap.timeutil import (UTC, ensure_utc, epoch_second, fmt_epoch, fmt_iso, from_epoch,
                              parse_iso, to_epoch)

DATA_DIR = Path(__file__).parent / "data"


def outcome(fn, arg):
    """What a call gives: ("value", result) or ("raises", exception type)."""
    try:
        return "value", fn(arg)
    except Exception as exc:  # the exception type is part of the behaviour
        return "raises", type(exc)


# --- timestamps ------------------------------------------------------------------


def reference_parse_iso(text):
    if text.endswith("Z"):
        return datetime.strptime(text, "%Y-%m-%dT%H:%M:%SZ").replace(tzinfo=UTC)
    return ensure_utc(datetime.fromisoformat(text))


def assert_same_parse(text):
    got, want = outcome(parse_iso, text), outcome(reference_parse_iso, text)
    if want[0] == "value" and got[0] == "value":
        # isoformat() spells every field and the offset; tzinfo and fold too
        got, want = [(kind, v.isoformat(), v.tzinfo, v.fold) for kind, v in (got, want)]
    assert got == want, text


@pytest.mark.parametrize("text", [
    "2022-03-01T12:34:56Z",
    "2024-02-29T23:59:59Z",             # leap day
    "2023-02-29T00:00:00Z",             # not a leap year
    "2022-02-30T00:00:00Z",             # Feb 30
    "2022-13-01T00:00:00Z",             # month 13
    "2022-00-10T00:00:00Z",
    "2022-03-00T00:00:00Z",
    "2022-03-01T24:00:00Z",             # hour 24
    "2022-03-01T23:60:00Z",
    "2022-03-01T23:59:60Z",             # leap second
    "2022-03-01T23:59:61Z",
    "2022-3-1T1:2:3Z",                  # single-digit fields
    "2022-03-01T1:02:03Z",
    "0000-01-01T00:00:00Z",             # year 0
    "9999-12-31T23:59:59Z",
    "٢٠٢٢-03-01T00:00:00Z",   # Arabic-Indic digits
    "２０２２-03-01T00:00:00Z",   # fullwidth digits
    "2022-03-01T00:00:0٥Z",
    "2022-03-01T00:00:00Z\n",           # trailing newline
    "2022-03-01T00:00:00ZZ",
    " 2022-03-01T00:00:00Z",
    "2022-03-01t00:00:00Z",
    "2022-03-01 00:00:00Z",
    "2022-03-01T00:00:00z",
    "2022-03-01T00:00:00+00:00",
    "2022-03-01T05:30:00+05:30",
    "2022-03-01T00:00:00",              # naive
    "20220301T000000Z",
    "",
    "Z",
])
def test_parse_iso_edge_cases(text):
    assert_same_parse(text)


def test_parse_iso_rejects_non_text_as_before():
    for value in (None, 20220301, b"2022-03-01T00:00:00Z"):
        assert outcome(parse_iso, value) == outcome(reference_parse_iso, value)


FIELD = st.one_of(
    st.integers(0, 99).map("{:02d}".format),
    st.integers(0, 9).map(str),
    st.sampled_from(["60", "61", "24", "13", "29", "30", "31", "٣", "0３", "123"]),
)
YEAR = st.one_of(st.integers(0, 9999).map("{:04d}".format),
                 st.sampled_from(["22", "20222", "٢٠٢٢"]))


@st.composite
def iso_texts(draw):
    year, month, day, hour, minute, second = (draw(YEAR), draw(FIELD), draw(FIELD),
                                              draw(FIELD), draw(FIELD), draw(FIELD))
    sep = draw(st.sampled_from(["T", "T", "t", " "]))
    tail = draw(st.sampled_from(["Z", "Z", "Z\n", "ZZ", "z", "", "+00:00", "+05:30", " Z"]))
    return f"{year}-{month}-{day}{sep}{hour}:{minute}:{second}{tail}"


@settings(max_examples=500, deadline=None)
@given(text=st.one_of(iso_texts(),
                      st.text(alphabet="0123456789-:TZ+ \n٣", max_size=24)))
def test_parse_iso_agrees_with_strptime(text):
    assert_same_parse(text)


# --- addresses -------------------------------------------------------------------


def reference_canonical_ip(text):
    return str(ipaddress.ip_address(text.strip()))


def reference_ip_family(ip):
    return ipaddress.ip_address(ip).version


def assert_same_address(text):
    assert outcome(canonical_ip, text) == outcome(reference_canonical_ip, text), text
    assert outcome(ip_family, text) == outcome(reference_ip_family, text), text


@pytest.mark.parametrize("text", [
    "1.2.3.4", "0.0.0.0", "255.255.255.255", "10.0.0.1",
    "01.2.3.4", "1.02.3.4", "1.2.3.00", "00.0.0.0",    # leading zeros
    "256.1.1.1", "1.2.3.256", "1.2.3.999", "1.2.3.1000",
    "1.2.3", "1.2.3.4.5", "1..2.3", "1.2.3.4.", ".1.2.3.4", "",
    " 1.2.3.4", "1.2.3.4\n", "\t1.2.3.4 ", "　1.2.3.4",   # surrounding whitespace
    "1.2.3.٤", "１.2.3.4", "1.2.3.4٠",          # Unicode digits
    "+1.2.3.4", "0x1.2.3.4", "1.2.3.4/32", "1.2.3.4%eth0",
    "::", "::1", "2001:db8::1", "2001:DB8:0:0:0:0:0:1", " 2001:db8::1 ",
    "::ffff:1.2.3.4", "::ffff:01.2.3.4", "::FFFF:10.0.0.1", "::1.2.3.4",
    "fe80::1%eth0", "1:2:3:4:5:6:7:8:9",
])
def test_address_edge_cases(text):
    assert_same_address(text)


def test_address_non_text_as_before():
    """ip_family hands non-text to `ipaddress` as before; canonical_ip, whose
    callers all pass text, rejects it with a ValueError naming the type."""
    for value in (None, 167772161, 2 ** 40, b"\x01\x02\x03\x04", b"\x00" * 16):
        with pytest.raises(ValueError, match=f"^address must be text, not {type(value).__name__}$"):
            canonical_ip(value)
        assert outcome(ip_family, value) == outcome(reference_ip_family, value)


OCTET = st.one_of(
    st.integers(0, 255).map(str),
    st.integers(0, 1200).map(str),
    st.integers(0, 99).map("0{}".format),
    st.sampled_from(["", "٣", "１", "1٠", "+1", "0x1", "00"]),
)
SPACE = st.sampled_from(["", "", "", " ", "\n", "\t ", "　"])


@st.composite
def address_texts(draw):
    quad = ".".join(draw(st.lists(OCTET, min_size=3, max_size=5)))
    v6 = str(draw(st.ip_addresses(v=6)))
    body = draw(st.sampled_from([quad, quad, v6, v6.upper(), "::ffff:" + quad,
                                 str(draw(st.ip_addresses(v=4)))]))
    return draw(SPACE) + body + draw(SPACE)


@settings(max_examples=500, deadline=None)
@given(text=address_texts())
def test_addresses_agree_with_ipaddress(text):
    assert_same_address(text)


# --- prefixes --------------------------------------------------------------------


def reference_prefix_contains(prefix, ip):
    return ipaddress.ip_address(ip) in ipaddress.ip_network(prefix)


def reference_network_range(text):
    net = ipaddress.ip_network(text.strip(), strict=False)
    return net.version, int(net.network_address), int(net.broadcast_address)


def outcome_with_message(fn, *args):
    """Like `outcome`, with the error message: callers match on it."""
    try:
        return "value", fn(*args)
    except Exception as exc:
        return "raises", type(exc), str(exc)


def assert_same_prefix(prefix, ip):
    assert outcome_with_message(prefix_contains, prefix, ip) == \
        outcome_with_message(reference_prefix_contains, prefix, ip), (prefix, ip)
    assert outcome_with_message(network_range, prefix) == \
        outcome_with_message(reference_network_range, prefix), prefix


@pytest.mark.parametrize("prefix, ip", [
    ("192.0.2.0/24", "192.0.2.7"), ("192.0.2.0/24", "192.0.3.7"),
    ("0.0.0.0/0", "255.255.255.255"), ("10.0.0.1/32", "10.0.0.1"), ("10.0.0.1/32", "10.0.0.2"),
    ("192.0.2.1/24", "192.0.2.7"),                       # host bits set
    ("192.0.2.0/33", "192.0.2.7"), ("192.0.2.0/024", "192.0.2.7"), ("192.0.2.0/", "192.0.2.7"),
    ("192.0.2.0/255.255.255.0", "192.0.2.7"), ("192.0.2.0", "192.0.2.0"),
    (" 192.0.2.0/24", "192.0.2.7"), ("192.0.2.0/24", " 192.0.2.7"), ("192.0.2.0/24", "01.0.2.7"),
    ("192.0.2.0/24", "999.0.2.7"), ("not-a-net", "192.0.2.7"), ("192.0.2.0/24", "not-an-ip"),
    ("192.0.2.0/24", "2001:db8::1"), ("2001:db8::/64", "192.0.2.7"),
    ("2001:db8::/64", "2001:db8::7"), ("2001:db8::/64", "2001:db9::7"),
    ("2001:db8::1/64", "2001:db8::7"),
])
def test_prefix_edge_cases(prefix, ip):
    assert_same_prefix(prefix, ip)


@settings(max_examples=500, deadline=None)
@given(address=st.integers(0, 2 ** 32 - 1), network=st.integers(0, 2 ** 32 - 1),
       length=st.integers(0, 32), masked=st.booleans(), v6=st.booleans())
def test_prefixes_agree_with_ipaddress(address, network, length, masked, v6):
    """Canonical prefixes with and without host bits set, the address in or
    out of them, and v6 prefixes the general code handles."""
    host = (1 << 32 - length) - 1
    if masked:
        network &= ~host
    if address % 3 == 0:
        address = network | address & host
    if v6:
        prefix = f"{ipaddress.IPv6Address(network << 96)}/{length * 4}"
        ip = str(ipaddress.IPv6Address(address << 96))
    else:
        prefix = f"{ipaddress.IPv4Address(network)}/{length}"
        ip = str(ipaddress.IPv4Address(address))
    assert_same_prefix(prefix, ip)


# --- catalog name matching -----------------------------------------------------------


def reference_match_name(patterns, name):
    """Every pattern asked, as before the prefilter."""
    wildcard = name.startswith("*.")
    probe = "wildcardprobe" + name[1:] if wildcard else name
    return [(r, wildcard) for p in patterns if (r := match_fqdn(p, probe)).matched]


def assert_same_matches(patterns, name):
    matches = ingest.NameMatches(patterns)
    assert outcome(lambda n: ingest._match_name(matches, n), name) == \
        outcome(lambda n: reference_match_name(patterns, n), name), name


def reference_counts(names, patterns):
    matching = non_matching = 0
    for name in {normalize_fqdn(n) for n in names}:
        if any(match_fqdn(p, name).matched for p in patterns):
            matching += 1
        else:
            non_matching += 1
    return matching, non_matching


def case_names():
    with open(DATA_DIR / "pattern_cases.yaml") as fh:
        providers = yaml.safe_load(fh)["providers"]
    return (sorted({c["fqdn"] for p in providers for c in p["positives"]}),
            sorted({n for p in providers for n in p["near_misses"]}))


POSITIVES, NEAR_MISSES = case_names()
LABEL = st.text(alphabet=string.ascii_lowercase + string.digits + "-", min_size=1,
                max_size=6)


@st.composite
def probe_names(draw):
    """Catalog positives and near misses, cut at a label, with extra labels,
    a wildcard star, a changed case and trailing dots, newlines or spaces."""
    labels = draw(st.sampled_from(POSITIVES) | st.sampled_from(NEAR_MISSES)).split(".")
    labels = labels[draw(st.just(0) | st.integers(0, len(labels) - 1)):]
    name = ".".join(draw(st.lists(LABEL, max_size=2)) + labels)
    name = draw(st.sampled_from(["", "*."])) + name
    name = draw(st.sampled_from([str, str.upper, str.title]))(name)
    return name + draw(st.sampled_from(["", "", ".", "..", "\n.", "\n", " ", "x"]))


@pytest.mark.parametrize("name", [
    "*.iot.sap", "*.azure-devices.net", "*.iot.us-east-1.amazonaws.com",
    "*.mqtt.googleapis.com", "a.iot.sap\n.", "A.IOT.SAP.", "a.iot.sap..",
    "iot.sap", "www.example.org", "", ".", "*.", "\n.", " ",
])
def test_match_name_edge_cases(catalog_patterns, name):
    assert_same_matches(catalog_patterns, name)


@settings(max_examples=500, deadline=None)
@given(name=probe_names())
def test_match_name_agrees_with_every_pattern_loop(catalog_patterns, name):
    assert_same_matches(catalog_patterns, name)


def assert_same_sharing_counts(patterns, names, threshold=2):
    ip = "192.0.2.7"
    matches = ingest.NameMatches(patterns)
    got = outcome(lambda n: classify_sharing(ip, "p", {ip: n}, matches, threshold), names)
    want = outcome(lambda n: reference_counts(n, patterns), names)
    if got[0] == "value" and want[0] == "value":
        got = ("value", (got[1].matching_domain_count, got[1].non_matching_domain_count))
    assert got == want, names


@pytest.mark.parametrize("names", [
    [], ["dev.iot.sap.."], ["dev1.iot.cn-shanghai.aliyuncs.com..", "DEV.IOT.SAP"],
    ["x.iot.sap\n.", "x.iot.sap"], ["*.azure-devices.net"], ["www.example.org", "."],
])
def test_sharing_count_edge_cases(catalog_patterns, names):
    assert_same_sharing_counts(catalog_patterns, names)


@settings(max_examples=300, deadline=None)
@given(names=st.lists(probe_names(), max_size=6), threshold=st.integers(0, 3))
def test_sharing_counts_agree_with_every_pattern_loop(catalog_patterns, names, threshold):
    assert_same_sharing_counts(catalog_patterns, names, threshold)


def test_match_name_asks_only_patterns_with_the_name_s_suffix(catalog_patterns,
                                                              monkeypatch):
    asked = []

    def counting(pattern, fqdn):
        asked.append(pattern.provider_id)
        return match_fqdn(pattern, fqdn)

    monkeypatch.setattr(ingest, "match_fqdn", counting)
    matches = ingest.NameMatches(catalog_patterns)
    assert ingest._match_name(matches, "www.example.org") == []
    assert asked == []
    assert [r.provider_id for r, _ in ingest._match_name(matches, "*.iot.sap")] == ["sap"]
    assert asked == ["sap"]


# --- memos -----------------------------------------------------------------------
# A memo must give, for every value of a call or run, what the code it
# remembers gives for that value alone, repeats included.


def repeated(values, rnd):
    """`values` twice, the second time shuffled, so that a memo answers
    repeats in and out of their first order."""
    again = list(values)
    rnd.shuffle(again)
    return list(values) + again


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.integers(-62135596800, 253402300799), max_size=12),
       rnd=st.randoms())
def test_iso_seconds_formats_each_second_as_fmt_iso(values, rnd):
    iso = Memo(fmt_epoch)
    values = repeated(values, rnd)
    assert [iso[v] for v in values] == [fmt_iso(from_epoch(v)) for v in values]


@settings(max_examples=300, deadline=None)
@given(dt=st.datetimes(datetime(1, 1, 2), datetime(9999, 12, 30),
                       timezones=st.sampled_from([UTC, timezone(timedelta(hours=5, minutes=30)),
                                                  timezone(timedelta(hours=-3, minutes=-30))])))
def test_fmt_iso_writes_four_year_digits_that_parse_iso_reads(dt):
    """What `strftime` wrote for years 1000 to 9999, and for any year a text
    that `parse_iso` reads back as the second it shows."""
    text = fmt_iso(dt)
    in_utc = dt.astimezone(UTC)
    if in_utc.year >= 1000:
        assert text == in_utc.strftime("%Y-%m-%dT%H:%M:%SZ")
    assert parse_iso(text) == in_utc.replace(microsecond=0)


# --- epoch seconds -----------------------------------------------------------------
# The export readers take every epoch value through `epoch_second`, which
# passes an in-range int as it is and sends any other value to `from_epoch`.

EPOCH_VALUES = st.one_of(
    st.integers(1_600_000_000, 1_600_000_005),          # a few distinct ints
    st.integers(1_600_000_000, 1_600_000_005).map(float),  # floats equal to them
    st.floats(1.6e9, 1.6e9 + 5), st.floats(-5, 5), st.booleans(),  # negative fractions too
    st.integers(-2 ** 70, 2 ** 70),                      # out of range too
    st.integers(-62135596802, -62135596798),             # around 0001-01-01T00:00:00Z
    st.integers(253402300797, 253402300801),             # around 9999-12-31T23:59:59Z
    st.sampled_from([float("nan"), float("inf"), None, "1600000000", [1], 2 ** 63]),
)


@settings(max_examples=500, deadline=None)
@given(value=EPOCH_VALUES)
def test_epoch_second_accepts_what_from_epoch_accepts_as_its_iso_second(value):
    """The same values are accepted, and rejected with the same error; an
    accepted one gives the int second its ISO-8601 line reads back as,
    which floors a fraction, also below zero."""
    got = outcome_with_message(epoch_second, value)
    want = outcome_with_message(from_epoch, value)
    if want[0] == "raises":
        assert got == want, value
        return
    second = to_epoch(parse_iso(fmt_iso(want[1])))
    assert got == ("value", second) and type(got[1]) is int, value


def reference_region_token(patterns_by_id, pid, fqdns):
    """enrich_candidates' token before the memo: the provider's own pattern
    asked name by name."""
    for fqdn in sorted(fqdns):
        result = match_fqdn(patterns_by_id[pid], fqdn)
        if result.matched and result.region_token:
            return result.region_token
    return None


@settings(max_examples=300, deadline=None)
@given(names=st.lists(probe_names(), max_size=8), rnd=st.randoms())
def test_one_name_memo_matches_each_name_as_alone(catalog_patterns, names, rnd):
    """One memo across the ingesters' names, then sharing and enrichment
    over the same memo, each against its un-memoized form."""
    memo = ingest.NameMatches(catalog_patterns)
    names = repeated(names, rnd)
    for name in names:
        assert outcome(lambda n: ingest._match_name(memo, n), name) == \
            outcome(lambda n: reference_match_name(catalog_patterns, n), name), name
    ips = [f"192.0.2.{i}" for i in range(3)]
    reverse = {ip: names[i::3] for i, ip in enumerate(ips)}
    for ip in ips:
        got = outcome(lambda r: classify_sharing(ip, "p", r, memo, 2), reverse)
        want = outcome(lambda r: reference_counts(r[ip], catalog_patterns), reverse)
        if got[0] == "value" == want[0]:
            got = ("value", (got[1].matching_domain_count, got[1].non_matching_domain_count))
        assert got == want, reverse[ip]
    by_id = {p.provider_id: p for p in catalog_patterns}
    for pid in sorted(by_id):
        assert outcome(lambda f: _region_token(memo, pid, f), names) == \
            outcome(lambda f: reference_region_token(by_id, pid, f), names), (pid, names)


def test_a_name_memo_stays_with_its_patterns(catalog_patterns):
    sap = [p for p in catalog_patterns if p.provider_id == "sap"]
    everyone, only_sap = ingest.NameMatches(catalog_patterns), ingest.NameMatches(sap)
    name = "dev.iot.us-east-1.amazonaws.com"
    assert [r.provider_id for r in everyone[name]] == ["amazon"]
    assert only_sap[name] == ()


# --- prefix truncation and lookups ----------------------------------------------------


def reference_truncate_prefix(ip, v4_bits=24, v6_bits=56):
    addr = ipaddress.ip_address(ip)
    bits = v4_bits if addr.version == 4 else v6_bits
    return str(ipaddress.ip_network(f"{addr}/{bits}", strict=False))


def assert_same_truncation(ip, *bits):
    assert outcome_with_message(truncate_prefix, ip, *bits) == \
        outcome_with_message(reference_truncate_prefix, ip, *bits), (ip, bits)


@pytest.mark.parametrize("ip, bits", [
    ("192.0.2.77", ()), ("192.0.2.77", (0,)), ("192.0.2.77", (32,)), ("192.0.2.77", (33,)),
    ("192.0.2.77", (-1,)), ("192.0.2.77", ("24",)), ("192.0.2.77", (True,)),
    ("255.255.255.255", (1,)), ("01.0.2.77", ()), (" 192.0.2.77", ()), ("192.0.2.256", ()),
    ("2001:db8::1", ()), ("2001:DB8::1", (24, 64)), ("::ffff:192.0.2.77", ()),
    (3221226061, ()), (b"\xc0\x00\x02\x4d", ()), ("", ()),
])
def test_truncate_prefix_edge_cases(ip, bits):
    assert_same_truncation(ip, *bits)


@settings(max_examples=500, deadline=None)
@given(ip=st.one_of(st.ip_addresses(v=4).map(str), st.ip_addresses(v=6).map(str),
                    address_texts()),
       v4_bits=st.integers(-1, 33), v6_bits=st.integers(0, 128))
def test_truncate_prefix_agrees_with_ipaddress(ip, v4_bits, v6_bits):
    assert_same_truncation(ip, v4_bits, v6_bits)


@settings(max_examples=500, deadline=None)
@given(address=st.ip_addresses(v=4))
def test_v4_int_reads_a_canonical_quad_as_ipaddress_does(address):
    assert _v4_int(str(address)) == int(address)


@pytest.mark.parametrize("quad", ["1.2.3", "127.1", "0x7f.0.0.1", "1.2.3.04", " 1.2.3.4"])
def test_quads_only_inet_aton_takes_reach_the_general_code(quad):
    """`_v4_int` reads a quad with `inet_aton`, which also takes these forms.
    Its four callers send them to `ipaddress` instead, so each gives the
    general code's value or error."""
    assert_same_truncation(quad)
    assert_same_prefix(f"{quad}/32", "127.0.0.1")  # parse_prefix, through network_range
    assert_same_prefix("0.0.0.0/0", quad)
    index = PrefixIndex()
    index.insert(parse_prefix("0.0.0.0/0"), lambda text, _: text)

    def reference(ip):
        ipaddress.ip_address(ip)  # every address is in 0.0.0.0/0; a bad one raises
        return ["0.0.0.0/0"]

    assert outcome_with_message(index.containing, quad) == outcome_with_message(reference, quad)


@settings(max_examples=300, deadline=None)
@given(networks=st.lists(st.tuples(st.ip_addresses(v=4), st.integers(8, 32)), max_size=8),
       queries=st.lists(st.one_of(st.ip_addresses(v=4).map(str), address_texts()),
                        max_size=8))
def test_prefix_index_agrees_with_ipaddress(networks, queries):
    """Lookups of canonical IPv4 text skip ipaddress; every other query goes
    through it, so the hits and the errors are the general code's."""
    index, nets = PrefixIndex(), []
    for address, length in networks:
        net = ipaddress.ip_network(f"{address}/{length}", strict=False)
        index.insert(parse_prefix(f"{address}/{length}"), lambda text, _: text)
        nets.append(net)

    def reference(ip):
        addr = ipaddress.ip_address(ip)
        return [str(n) for n in sorted(set(nets), key=lambda n: -n.prefixlen)
                if n.version == addr.version and addr in n]

    for ip in queries + [str(n.network_address) for n in nets]:
        assert outcome_with_message(index.containing, ip) == \
            outcome_with_message(reference, ip), ip


# --- prefix tables and blocklists ---------------------------------------------------------


def reference_network(text):
    """The network `parse_network` gives: stripped text, host bits masked."""
    return ipaddress.ip_network(text.strip(), strict=False)


@st.composite
def prefix_texts(draw):
    """Networks with and without host bits, /0 and full-length ones, in both
    families, and the same text made non-canonical or broken."""
    v6 = draw(st.booleans())
    bits = 128 if v6 else 32
    length = draw(st.sampled_from([0, bits]) | st.integers(0, bits))
    address = draw(st.integers(0, 2 ** bits - 1))
    if draw(st.booleans()):
        address &= ~((1 << bits - length) - 1)
    text = f"{(ipaddress.IPv6Address if v6 else ipaddress.IPv4Address)(address)}/{length}"
    spell = draw(st.sampled_from([
        lambda t: t, lambda t: t, lambda t: t, lambda t: f" {t}\t",
        lambda t: "0" + t, lambda t: t.upper(), lambda t: t.split("/")[0],
        lambda t: t.replace("/", "/0"), lambda t: t.replace("/", "/1"),
        lambda t: t + "/8", lambda t: t.replace(".", "..", 1),
    ]))
    return draw(st.sampled_from([spell(text)] * 6 + [
        "010.0.0.0/8", " 10.0.0.0/8 ", "10.0.0.0/255.0.0.0", "10.0.0.0/33", "::/129",
        "0.0.0.0/0", "::/0", "10.0.0.0/", "", "not-a-net"]))


def queries_for(networks):
    """Every network's first and last address, in and out of the others."""
    return [str(a) for n in networks for a in (n.network_address, n.broadcast_address)]


QUERIES = st.lists(st.one_of(st.ip_addresses(v=4).map(str), st.ip_addresses(v=6).map(str),
                             address_texts()), max_size=6)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(prefix_texts(), st.lists(st.integers(1, 9), min_size=1,
                                                         max_size=3)), max_size=8),
       queries=QUERIES)
def test_prefix_table_agrees_with_ipaddress(rows, queries):
    """Stored prefix text, longest-prefix lookups and the errors of `add` and
    `lookup` are those of a table built from ipaddress networks, where a
    later row for a network replaces an earlier one."""
    table, routes = PrefixTable(), {}
    for text, origins in rows:
        want = outcome_with_message(reference_network, text)
        if want[0] == "raises":
            assert outcome_with_message(table.add, text, origins) == want, text
            continue
        table.add(text, origins)
        routes[want[1]] = tuple(sorted(set(origins)))

    def reference_lookup(ip):
        addr = ipaddress.ip_address(ip)
        hits = [n for n in routes if n.version == addr.version and addr in n]
        if not hits:
            raise UnroutedError(f"unrouted: no covering prefix for {ip}")
        best = max(hits, key=lambda n: n.prefixlen)
        return RouteEntry(prefix=str(best), origins=routes[best])

    for ip in queries + queries_for(routes):
        assert outcome_with_message(table.lookup, ip) == \
            outcome_with_message(reference_lookup, ip), ip


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(st.sampled_from(["a", "b", "c"]), prefix_texts()), max_size=8),
       queries=QUERIES)
def test_blocklist_index_agrees_with_ipaddress(rows, queries):
    """Each entry's CIDR text and error, and the lists whose blocks contain
    an address, are those of ipaddress networks."""
    entries, blocks = [], []
    for list_id, text in rows:
        got = outcome_with_message(lambda t: BlocklistEntry(list_id, t), text)
        want = outcome_with_message(reference_network, text)
        if want[0] == "raises":
            assert got == want, text
            continue
        assert got[1].cidr == str(want[1]), text
        entries.append(got[1])
        blocks.append((list_id, want[1]))
    index = BlocklistIndex(entries)

    def reference_matches(ip):
        addr = ipaddress.ip_address(ip)
        return {lid for lid, n in blocks if n.version == addr.version and addr in n}

    for ip in queries + queries_for(n for _, n in blocks):
        assert outcome_with_message(index.matches, ip) == \
            outcome_with_message(reference_matches, ip), ip


# --- YAML loader --------------------------------------------------------------------------


def test_catalogs_load_alike_under_both_loaders(tmp_path, monkeypatch, catalog_profiles):
    """The bundled catalog and a fixture catalog as synth writes it give
    equal profiles under libyaml's loader and the pure-Python SafeLoader."""
    synthetic = tmp_path / "catalog.yaml"
    write_synthetic_catalog(synthetic, [p for p in catalog_profiles
                                        if p.region_grammar and p.region_grammar.tokens])
    paths = [default_catalog_path(), synthetic]
    fast = [catalog.load_catalog(path) for path in paths]
    monkeypatch.setattr(catalog, "YAML_LOADER", yaml.SafeLoader)
    assert [catalog.load_catalog(path) for path in paths] == fast


def test_catalog_loads_with_a_yaml_built_without_libyaml(monkeypatch):
    """With no CSafeLoader, a fresh copy of the catalog module falls back to
    SafeLoader and loads the bundled catalog as the module in use does."""
    no_libyaml = types.ModuleType("yaml")
    no_libyaml.__dict__.update((k, v) for k, v in vars(yaml).items() if k != "CSafeLoader")
    monkeypatch.setitem(sys.modules, "yaml", no_libyaml)
    spec = importlib.util.spec_from_file_location("backmap._catalog_without_libyaml",
                                                  catalog.__file__)
    copy = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, copy)
    spec.loader.exec_module(copy)
    assert copy.YAML_LOADER is yaml.SafeLoader
    assert repr(copy.load_catalog(default_catalog_path())) == \
        repr(catalog.load_catalog(default_catalog_path()))
