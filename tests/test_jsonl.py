import json
import re

import pytest

from backmap.flows import FlowRecord, read_flows_jsonl, write_flows_jsonl
from backmap.footprint import BackendServer
from backmap.fusion import classify_sharing, fuse, read_candidates, write_candidates
from backmap.geo import Location
from backmap.ingest import (CertScanRecord, MalformedRecord, NameMatches, Observation,
                            PassiveDnsRecord, ResolutionResult, read_cert_scan_export,
                            read_observations, read_pdns_export, read_resolutions,
                            write_observations, write_resolutions)
from backmap.jsonl import read_jsonl
from backmap.pipeline import _read_sharing, read_servers, write_servers, write_sharing
from backmap.timeutil import LocalDays, fmt_iso, from_epoch, to_epoch, utc

T0 = to_epoch(utc(2022, 2, 28, 6))
IPS = ("192.0.2.1", "192.0.2.2")
UTC_DATE = LocalDays("UTC").date  # the day of an instant, as fuse takes it


def observations():
    return [Observation(provider_id="p1", fqdn="a.p1.example", ip=ip, source="tls-cert",
                        seen_at=T0) for ip in IPS]


def write_two_resolutions(path):
    write_resolutions(path, [
        ResolutionResult(fqdn="a.p1.example", vantage_id=vantage, answers=IPS,
                         resolved_at=T0, status="ok") for vantage in ("v1", "v2")])


def write_two_flows(path):
    write_flows_jsonl(path, [
        FlowRecord(ts=T0, line_id="L1", server_ip=ip, server_port=443,
                   transport="tcp", direction="downstream", sampled_bytes=100,
                   sampled_packets=1, sampling_rate=1) for ip in IPS])


def write_two_servers(path):
    write_servers(path, [
        BackendServer(ip=ip, provider_id="p1", location=Location.of("DE"),
                      location_confidence="unanimous", prefix=f"{ip}/32", asn=64500,
                      sharing="dedicated", sources=frozenset({"tls-cert"})) for ip in IPS])


# strict reader -> (reader, writer of a two-record file, a field the reader needs)
STRICT_READERS = {
    "resolutions": (read_resolutions, write_two_resolutions, "vantage_id"),
    "observations": (read_observations, lambda p: write_observations(p, observations()),
                     "ip"),
    "candidates": (read_candidates,
                   lambda p: write_candidates(p, fuse(observations(), UTC_DATE)[0]),
                   "first_seen"),
    "flows": (read_flows_jsonl, write_two_flows, "sampling_rate"),
    "sharing": (_read_sharing,
                lambda p: write_sharing(p, fuse(observations(), UTC_DATE)[0], {},
                                        NameMatches([]), 2),
                "verdict"),
    "servers": (read_servers, write_two_servers, "prefix"),
}

BREAKS = {
    "missing-field": lambda doc, field: json.dumps({k: v for k, v in doc.items() if k != field}),
    "not-json": lambda doc, field: json.dumps(doc)[:-1],
    "not-object": lambda doc, field: json.dumps(list(doc.values())),
}


@pytest.mark.parametrize("how", sorted(BREAKS))
@pytest.mark.parametrize("name", sorted(STRICT_READERS))
def test_strict_readers_name_file_line_and_field(tmp_path, name, how):
    read, write, field = STRICT_READERS[name]
    path = tmp_path / f"{name}.jsonl"
    write(path)
    assert len(list(read(path))) == 2
    # a blank line, then the second record broken: it is line 3
    first, second = path.read_text().splitlines()
    path.write_text(f"{first}\n\n{BREAKS[how](json.loads(second), field)}\n")
    message = {"missing-field": f"missing field {field!r}",
               "not-json": "Expecting ',' delimiter: line 1",
               "not-object": "record is not a JSON object"}[how]
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:3: {re.escape(message)}"):
        list(read(path))


# (reader, field, wrong-typed value, the check's reason)
WRONG_TYPES = [
    ("resolutions", "resolved_at", "noon", "'str' object cannot be interpreted as an integer"),
    ("resolutions", "resolved_at", 1e20, "timestamp out of range for platform time_t"),
    ("resolutions", "answers", "192.0.2.1", "expected a list, not str"),
    ("resolutions", "fqdn", 5, "expected text, not int"),
    ("resolutions", "status", ["ok"], "expected text, not list"),
    ("observations", "seen_at", "noon", "Invalid isoformat string: 'noon'"),
    ("observations", "seen_at", 5, "expected text, not int"),
    ("observations", "ip", 3221225985, "address must be text, not int"),
    ("observations", "source", ["tls-cert"], "expected text, not list"),
    ("candidates", "first_seen", "noon", "Invalid isoformat string: 'noon'"),
    ("candidates", "sources", 5, "expected a list, not int"),
    ("candidates", "fqdns", None, "expected a list, not NoneType"),
    ("sharing", "provider_id", ["p1"], "expected text, not list"),
    ("sharing", "verdict", 1, "expected text, not int"),
    ("servers", "asn", "64500", "expected an integer, not str"),
    ("servers", "country", 5, "expected text, not int"),
    ("servers", "prefix", 5, "expected text, not int"),
    ("servers", "ip", None, "expected text, not NoneType"),
    # values the records' constructors would keep
    ("candidates", "sources", "tls-cert", "expected a list, not str"),
    ("candidates", "fqdns", "a.p1.example", "expected a list, not str"),
    ("candidates", "fqdns", ["a.p1.example", 5], "expected text, not int"),
    ("candidates", "provider_id", 7, "expected text, not int"),
    ("candidates", "ip", 3221225986, "expected text, not int"),
    ("servers", "sources", "tls-cert", "expected a list, not str"),
    ("servers", "sources", ["tls-cert", 5], "expected text, not int"),
    ("servers", "provider_id", 7, "expected text, not int"),
    ("servers", "location_confidence", 1, "expected text, not int"),
    ("servers", "city", 5, "expected text or null, not int"),
    ("servers", "region_token", ["eu"], "expected text or null, not list"),
    ("observations", "provider_id", 7, "expected text, not int"),
    ("observations", "fqdn", ["a.p1.example"], "expected text, not list"),
    ("observations", "wildcard", "no", "expected true or false, not str"),
]


@pytest.mark.parametrize("name, field, value, reason", WRONG_TYPES)
def test_wrong_typed_value_names_its_field(tmp_path, name, field, value, reason):
    read, write, _ = STRICT_READERS[name]
    path = tmp_path / f"{name}.jsonl"
    write(path)
    first, second = path.read_text().splitlines()
    path.write_text(f"{first}\n{json.dumps({**json.loads(second), field: value})}\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: field {field!r}: "
                                         rf"{re.escape(reason)}$"):
        list(read(path))


def test_an_observation_without_wildcard_reads_as_no_wildcard(tmp_path):
    path = tmp_path / "observations.jsonl"
    first, second = observations()
    write_observations(path, [first._replace(wildcard=True), second])
    flagged, unflagged = path.read_text().splitlines()
    unflagged = json.dumps({k: v for k, v in json.loads(unflagged).items() if k != "wildcard"})
    path.write_text(f"{flagged}\n{unflagged}\n")
    assert [o.wildcard for o in read_observations(path)] == [True, False]


# (reader, field, a well-typed value the record's constructor rejects, its reason)
WRONG_VALUES = [
    ("observations", "source", "carrier-pigeon", "bad source 'carrier-pigeon'"),
    ("resolutions", "status", "lost", "bad status 'lost'"),
    ("servers", "prefix", "198.51.100.0/24", "prefix 198.51.100.0/24 does not contain 192.0.2.2"),
]


@pytest.mark.parametrize("name, field, value, reason", WRONG_VALUES)
def test_well_typed_bad_value_keeps_the_record_s_reason(tmp_path, name, field, value, reason):
    read, write, _ = STRICT_READERS[name]
    path = tmp_path / f"{name}.jsonl"
    write(path)
    first, second = path.read_text().splitlines()
    path.write_text(f"{first}\n{json.dumps({**json.loads(second), field: value})}\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: {re.escape(reason)}$"):
        list(read(path))


# (reader, field, a well-typed value a record check rejects, its reason): the
# checks the records' constructors used to run, now run by their readers
RECORD_CHECKS = [
    ("candidates", "sources", [], "sources must be non-empty"),
    ("candidates", "first_seen", "2022-03-01T00:00:00Z", "first_seen after last_seen"),
    ("servers", "asn", 0, "asn must be positive"),
    ("servers", "sharing", "maybe", "bad sharing class 'maybe'"),
    ("sharing", "verdict", "maybe", "bad sharing class 'maybe'"),
]


@pytest.mark.parametrize("name, field, value, reason", RECORD_CHECKS)
def test_strict_reader_runs_the_record_checks(tmp_path, name, field, value, reason):
    read, write, _ = STRICT_READERS[name]
    path = tmp_path / f"{name}.jsonl"
    write(path)
    first, second = path.read_text().splitlines()
    path.write_text(f"{first}\n{json.dumps({**json.loads(second), field: value})}\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: {re.escape(reason)}$"):
        list(read(path))


EXPORT_ROWS = {
    "pdns": (read_pdns_export, PassiveDnsRecord, "rdata",
             {"rrname": "a.p1.example", "rrtype": "A", "rdata": "192.0.2.1",
              "time_first": T0, "time_last": T0}),
    "cert": (read_cert_scan_export, CertScanRecord, "port",
             {"ip": "192.0.2.1", "port": 443, "names": ["a.p1.example"],
              "validity": {"start": T0, "end": T0},
              "observed_at": T0}),
}


@pytest.mark.parametrize("name", sorted(EXPORT_ROWS))
def test_export_row_without_a_field_is_quarantined_by_name(tmp_path, name):
    read, record_type, field, good = EXPORT_ROWS[name]
    path = tmp_path / f"{name}.jsonl"
    bad = {k: v for k, v in good.items() if k != field}
    path.write_text(f"{json.dumps(bad)}\n{json.dumps(good)}\n")
    first, second = read(path)
    assert first == MalformedRecord(1, f"missing field {field!r}")
    assert isinstance(second, record_type)


def test_export_row_with_a_wrong_json_type_is_quarantined(tmp_path):
    """A number where the address text belongs fails the reader's address
    check with a ValueError that names the type; the row is still
    quarantined."""
    read, _, _, good = EXPORT_ROWS["cert"]
    path = tmp_path / "cert.jsonl"
    path.write_text(f"{json.dumps({**good, 'ip': 3221225985})}\n{json.dumps(good)}\n")
    first, second = read(path)
    assert isinstance(first, MalformedRecord) and first.line_no == 1
    assert "address must be text, not int" in first.reason
    assert isinstance(second, CertScanRecord)


# (export, field, wrong-typed value, the reason its row is quarantined with)
EXPORT_WRONG_TYPES = [
    ("pdns", "rrtype", 5, "expected text, not int"),
    ("pdns", "rrname", 5, "expected text, not int"),
    ("pdns", "rdata", 5, "address must be text, not int"),
    ("pdns", "time_first", "noon", "'str' object cannot be interpreted as an integer"),
    ("cert", "validity", 5, "expected an object, not int"),
    ("cert", "ip", 3221225985, "address must be text, not int"),
    ("cert", "port", "https", "expected an integer, not str"),
    ("cert", "names", ["a.p1.example", 5], "expected text, not int"),
    ("cert", "observed_at", "noon", "'str' object cannot be interpreted as an integer"),
    ("cert", "port", 443.9, "expected an integer, not float"),
    ("cert", "port", True, "expected an integer, not bool"),
    ("cert", "port", "443", "expected an integer, not str"),
]


@pytest.mark.parametrize("name, field, value, reason", EXPORT_WRONG_TYPES)
def test_export_row_with_a_wrong_typed_value_is_quarantined_by_field(tmp_path, name, field,
                                                                      value, reason):
    read, record_type, _, good = EXPORT_ROWS[name]
    path = tmp_path / f"{name}.jsonl"
    path.write_text(f"{json.dumps({**good, field: value})}\n{json.dumps(good)}\n")
    first, second = read(path)
    assert first == MalformedRecord(1, f"field {field!r}: {reason}")
    assert isinstance(second, record_type)


# (export, field, a well-typed value a record check rejects, its reason)
EXPORT_RECORD_CHECKS = [
    ("cert", "port", 0, "port out of range: 0"),
    ("cert", "validity", {"start": T0 + 1, "end": T0}, "certificate validity interval is inverted"),
    ("pdns", "time_first", T0 + 1, "first_seen after last_seen"),
    ("pdns", "rdata", "2001:db8::1", "rdata 2001:db8::1 inconsistent with rrtype A"),
    ("pdns", "rdata", "192.0.2.300", "field 'rdata': '192.0.2.300' does not appear to be an "
                                     "IPv4 or IPv6 address"),
]


@pytest.mark.parametrize("name, field, value, reason", EXPORT_RECORD_CHECKS)
def test_export_reader_quarantines_what_a_record_check_rejects(tmp_path, name, field, value,
                                                                reason):
    read, record_type, _, good = EXPORT_ROWS[name]
    path = tmp_path / f"{name}.jsonl"
    path.write_text(f"{json.dumps({**good, field: value})}\n{json.dumps(good)}\n")
    first, second = read(path)
    assert first == MalformedRecord(1, reason)
    assert isinstance(second, record_type)


@pytest.mark.parametrize("names", ["ab", "a.p1.example"])
def test_cert_names_given_as_text_are_quarantined(tmp_path, names):
    """A JSON string is no list of names: its characters are not names."""
    read, _, _, good = EXPORT_ROWS["cert"]
    path = tmp_path / "cert.jsonl"
    path.write_text(f"{json.dumps({**good, 'names': names})}\n")
    assert list(read(path)) == [MalformedRecord(1, "field 'names': expected a list, not str")]


@pytest.mark.parametrize("empty", ["", ".", " "])
def test_cert_row_with_an_empty_name_is_quarantined(tmp_path, empty):
    read, _, _, good = EXPORT_ROWS["cert"]
    path = tmp_path / "cert.jsonl"
    path.write_text(f"{json.dumps({**good, 'names': ['a.p1.example', empty]})}\n")
    assert list(read(path)) == [MalformedRecord(1, "field 'names': fqdn must be non-empty")]


@pytest.mark.parametrize("empty", ["", ".", " "])
def test_pdns_row_with_an_empty_rrname_is_quarantined(tmp_path, empty):
    read, _, _, good = EXPORT_ROWS["pdns"]
    path = tmp_path / "pdns.jsonl"
    path.write_text(f"{json.dumps({**good, 'rrname': empty})}\n{json.dumps(good)}\n")
    first, second = read(path)
    assert first == MalformedRecord(1, "field 'rrname': fqdn must be non-empty")
    assert isinstance(second, PassiveDnsRecord)


@pytest.mark.parametrize("empty", ["", ".", " "])
def test_resolution_with_an_empty_fqdn_names_the_field(tmp_path, empty):
    path = tmp_path / "resolutions.jsonl"
    write_two_resolutions(path)
    first, second = path.read_text().splitlines()
    path.write_text(f"{first}\n{json.dumps({**json.loads(second), 'fqdn': empty})}\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: field 'fqdn': "
                                         rf"fqdn must be non-empty$"):
        list(read_resolutions(path))


# a quote, a backslash, a control character and a non-ASCII letter
ODD = 'p"1\\x\x01\u00fc'


def hostile_observations():
    return [
        Observation(provider_id=ODD, fqdn="z\u00fcrich.p1.example", ip="192.0.2.1",
                    source="tls-cert", seen_at=T0, wildcard=True),
        Observation(provider_id="p1", fqdn=ODD, ip="192.0.2.1", source="passive-dns",
                    seen_at=T0 + 3600),
        Observation(provider_id="p1", fqdn="z\u00fcrich.p1.example", ip="192.0.2.1",
                    source="active-dns", seen_at=T0 + 2 * 3600),
        Observation(provider_id="p1", fqdn="b.p1.example", ip="2001:db8::1",
                    source="tls-cert", seen_at=T0 + 3 * 3600),
    ]


def hostile_servers():
    return [
        BackendServer(ip="192.0.2.1", provider_id=ODD,
                      location=Location.of("CH", "Z\u00fcrich"), location_confidence="majority",
                      prefix="192.0.2.0/24", asn=64500, sharing="shared",
                      sources=frozenset({"tls-cert", "passive-dns", "active-dns"}),
                      region_token=ODD),
        BackendServer(ip="2001:db8::1", provider_id="p1", location=Location.of("DE"),
                      location_confidence="unanimous", prefix="2001:db8::/32", asn=64501,
                      sharing="dedicated", sources=frozenset({"tls-cert"})),
    ]


# reverse names for one candidate address; with no patterns none of them matches
REVERSE = {"192.0.2.1": {"z\u00fcrich.example", "x.other.example", "q.example"}}


@pytest.mark.parametrize("year", [5, 999])
def test_lines_of_a_window_before_year_1000_read_back(tmp_path, year):
    """`fmt_iso` writes the year in four digits, which `parse_iso` reads."""
    seen = (to_epoch(utc(year, 1, 1)), to_epoch(utc(year, 12, 31, 23, 59, 59)))
    obs = [Observation(provider_id="p1", fqdn="a.p1.example", ip=ip, source="tls-cert",
                       seen_at=at) for ip in IPS for at in seen]
    write_observations(tmp_path / "observations.jsonl", obs)
    assert list(read_observations(tmp_path / "observations.jsonl")) == obs
    candidates = fuse(obs, UTC_DATE)[0]
    write_candidates(tmp_path / "candidates.jsonl", candidates)
    assert read_candidates(tmp_path / "candidates.jsonl") == candidates
    assert {(c.first_seen, c.last_seen) for c in candidates.values()} == {seen}


def observation_docs(observations):
    return [{"provider_id": o.provider_id, "fqdn": o.fqdn, "ip": o.ip,
             "source": o.source, "seen_at": fmt_iso(from_epoch(o.seen_at)), "wildcard": o.wildcard}
            for o in observations]


def candidate_docs(candidates):
    return [{"provider_id": c.provider_id, "ip": c.ip, "sources": sorted(c.sources),
             "first_seen": fmt_iso(from_epoch(c.first_seen)),
             "last_seen": fmt_iso(from_epoch(c.last_seen)),
             "fqdns": sorted(c.fqdns)} for _, c in sorted(candidates.items())]


def sharing_docs(candidates, reverse, threshold):
    docs = []
    for pid, ip in sorted(candidates):
        non_matching, matching, verdict = 0, 0, "dedicated"
        if ip in reverse:
            v = classify_sharing(ip, pid, reverse, NameMatches([]), threshold)
            non_matching, matching, verdict = (v.non_matching_domain_count,
                                               v.matching_domain_count, v.verdict)
        docs.append({"provider_id": pid, "ip": ip,
                     "non_matching_domain_count": non_matching,
                     "matching_domain_count": matching, "verdict": verdict,
                     "threshold_used": threshold, "reverse_data": ip in reverse})
    return docs


def server_docs(servers):
    return [{"ip": s.ip, "provider_id": s.provider_id, "country": s.location.country,
             "city": s.location.city, "continent": s.location.continent,
             "location_confidence": s.location_confidence, "prefix": s.prefix,
             "asn": s.asn, "sharing": s.sharing, "sources": sorted(s.sources),
             "region_token": s.region_token} for s in servers]


# writer -> (write the hostile rows, the documents json.dumps wrote them from)
HOT_WRITERS = {
    "observations": (lambda p: write_observations(p, hostile_observations()),
                     lambda: observation_docs(hostile_observations())),
    "candidates": (lambda p: write_candidates(p, fuse(hostile_observations(), UTC_DATE)[0]),
                   lambda: candidate_docs(fuse(hostile_observations(), UTC_DATE)[0])),
    "sharing": (lambda p: write_sharing(p, fuse(hostile_observations(), UTC_DATE)[0],
                                        REVERSE, NameMatches([]), 1),
                lambda: sharing_docs(fuse(hostile_observations(), UTC_DATE)[0], REVERSE, 1)),
    "servers": (lambda p: write_servers(p, hostile_servers()),
                lambda: server_docs(hostile_servers())),
}


@pytest.mark.parametrize("name", sorted(HOT_WRITERS))
def test_hot_writer_lines_are_json_dumps_of_their_documents(tmp_path, name):
    write, docs = HOT_WRITERS[name]
    path = tmp_path / f"{name}.jsonl"
    write(path)
    expected = [json.dumps(doc) + "\n" for doc in docs()]
    with open(path, encoding="utf-8", newline="") as fh:
        assert fh.readlines() == expected
    # every hostile value and both branches of each flag were written
    text = path.read_text()
    assert json.dumps(ODD) in text
    for flag in {"observations": ["wildcard"], "sharing": ["reverse_data"]}.get(name, []):
        assert f'"{flag}": true' in text and f'"{flag}": false' in text
    if name == "servers":
        assert '"city": null' in text and '"region_token": null' in text


# a bad line -> the reason `json.loads` gives for it, or "record is not a
# JSON object"
BAD_LINES = {
    "text-after-the-object": ('{} x', "Extra data: line 1 column 4 (char 3)"),
    "two-objects": ('{}{}', "Extra data: line 1 column 3 (char 2)"),
    "stray-bracket": ('{"a": 1}]', "Extra data: line 1 column 9 (char 8)"),
    "no-value": ('{"a": }', "Expecting value: line 1 column 7 (char 6)"),
    "unclosed": ('{"a": 1', "Expecting ',' delimiter: line 1 column 8 (char 7)"),
    "no-json": ('nul', "Expecting value: line 1 column 1 (char 0)"),
    "list": ('[1, 2]', "record is not a JSON object"),
    "string": ('"text"', "record is not a JSON object"),
    "byte-order-mark": ('\ufeff{"a": 1}',
                        "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
}


@pytest.mark.parametrize("name", sorted(BAD_LINES))
def test_a_bad_line_gives_the_reason_json_loads_gives(tmp_path, name):
    """Each line is decoded by one scan; a line the scan rejects, or one with
    text after its value, keeps `json.loads`' error, raised or quarantined."""
    line, reason = BAD_LINES[name]
    path = tmp_path / "bad.jsonl"
    path.write_text(f'{{"a": 0}}\n\n  {line}  \n{{"a": 3}}\n', encoding="utf-8")
    with pytest.raises(ValueError) as raised:
        list(read_jsonl(path, dict))
    assert str(raised.value) == f"{path}:3: {reason}"
    assert list(read_jsonl(path, dict, lambda n, why: (n, why))) == [
        {"a": 0}, (3, reason), {"a": 3}]


@pytest.mark.parametrize("value, expected", [
    ("NaN", "nan"), ("-Infinity", "-inf"), ("1e400", "inf"), ("-0.0", "-0.0")])
def test_values_json_loads_accepts_read_as_it_reads_them(tmp_path, value, expected):
    path = tmp_path / "odd.jsonl"
    path.write_text(f'{{"a": {value}}}\n', encoding="utf-8")
    [doc] = read_jsonl(path, dict)
    assert repr(doc["a"]) == expected == repr(json.loads(f'{{"a": {value}}}')["a"])
