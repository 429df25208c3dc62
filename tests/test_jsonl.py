import json
import re

import pytest

from backmap.flows import FlowRecord, read_flows_jsonl, write_flows_jsonl
from backmap.footprint import BackendServer
from backmap.fusion import fuse, read_candidates, write_candidates
from backmap.geo import Location
from backmap.ingest import (CertScanRecord, MalformedRecord, Observation, PassiveDnsRecord,
                            ResolutionResult, read_cert_scan_export, read_observations,
                            read_pdns_export, read_resolutions, write_observations,
                            write_resolutions)
from backmap.pipeline import _read_sharing, read_servers, write_servers, write_sharing
from backmap.timeutil import to_epoch, utc

T0 = utc(2022, 2, 28, 6)
IPS = ("192.0.2.1", "192.0.2.2")


def observations():
    return [Observation(provider_id="p1", fqdn="a.p1.example", ip=ip, source="tls-cert",
                        seen_at=T0) for ip in IPS]


def write_two_resolutions(path):
    write_resolutions(path, [
        ResolutionResult(fqdn="a.p1.example", vantage_id=vantage, answers=IPS,
                         resolved_at=T0, status="ok") for vantage in ("v1", "v2")])


def write_two_flows(path):
    write_flows_jsonl(path, [
        FlowRecord(ts=to_epoch(T0), line_id="L1", server_ip=ip, server_port=443,
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
    "candidates": (read_candidates, lambda p: write_candidates(p, fuse(observations())),
                   "first_seen"),
    "flows": (read_flows_jsonl, write_two_flows, "sampling_rate"),
    "sharing": (_read_sharing, lambda p: write_sharing(p, fuse(observations()), {}, [], 2),
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


EXPORT_ROWS = {
    "pdns": (read_pdns_export, PassiveDnsRecord, "rdata",
             {"rrname": "a.p1.example", "rrtype": "A", "rdata": "192.0.2.1",
              "time_first": to_epoch(T0), "time_last": to_epoch(T0)}),
    "cert": (read_cert_scan_export, CertScanRecord, "port",
             {"ip": "192.0.2.1", "port": 443, "names": ["a.p1.example"],
              "validity": {"start": to_epoch(T0), "end": to_epoch(T0)},
              "observed_at": to_epoch(T0)}),
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
    """A number where the address text belongs fails inside the record's
    constructor with a ValueError that names the type; the row is still
    quarantined."""
    read, _, _, good = EXPORT_ROWS["cert"]
    path = tmp_path / "cert.jsonl"
    path.write_text(f"{json.dumps({**good, 'ip': 3221225985})}\n{json.dumps(good)}\n")
    first, second = read(path)
    assert isinstance(first, MalformedRecord) and first.line_no == 1
    assert "address must be text, not int" in first.reason
    assert isinstance(second, CertScanRecord)
