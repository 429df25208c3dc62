import re
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from backmap.catalog import DomainPattern
from backmap.disruption import BlocklistEntry, RoutingEvent
from backmap.footprint import LocationHint
from backmap.fusion import GroundTruthSet
from backmap.geo import Location
from backmap.ingest import StudyWindow
from backmap.netutil import parse_prefix
from backmap.pipeline import RunConfig
from backmap.timeutil import utc

START, END = utc(2022, 2, 28), utc(2022, 3, 1)
WINDOW = StudyWindow(START, END)
EXPRESSION = r"\.p1\.example$"

# a well-formed record of each checked type
GOOD = {
    "Location": Location.of("DE", "Berlin"),
    "DomainPattern": DomainPattern("p1", EXPRESSION, None, re.compile(EXPRESSION),
                                   ("p1.example", "p1.example\n")),
    "StudyWindow": WINDOW,
    "LocationHint": LocationHint("192.0.2.1", "scan-metadata", Location.of("DE")),
    "RoutingEvent": RoutingEvent("leak", (START, END), prefix="192.0.2.0/24"),
    "RunConfig": RunConfig(catalog=Path("catalog.yaml"), window=WINDOW, out_dir=Path("out")),
    "GroundTruthSet": GroundTruthSet("p1", ("10.0.0.0/16",)),
    "BlocklistEntry": BlocklistEntry("list1", "192.0.2.0/24"),
}

# (type, field, a value its constructor rejects, the message it rejects it with)
CHECKS = [
    ("Location", "continent", "XX", "unknown continent code: 'XX'"),
    ("Location", "continent", "NA", "continent NA inconsistent with country DE (expected EU)"),
    ("Location", "country", "ZZ", "unknown country code: 'ZZ'"),
    ("DomainPattern", "expression", r"\.p1\.example", "pattern expression must be suffix-anchored"),
    ("StudyWindow", "end", START, "window start must precede end"),
    ("StudyWindow", "start", datetime(2022, 2, 28),
     "naive datetime not allowed: datetime.datetime(2022, 2, 28, 0, 0)"),
    ("LocationHint", "source", "guess", "bad hint source 'guess'"),
    ("RoutingEvent", "kind", "flood", "bad event kind 'flood'"),
    ("RoutingEvent", "prefix", None, "event needs a prefix or an asn"),
    ("RoutingEvent", "prefix", "192.0.2.0/33",
     "'192.0.2.0/33' does not appear to be an IPv4 or IPv6 network"),
    ("RunConfig", "scanner_threshold", -1, "field 'scanner_threshold': must be >= 0"),
    ("RunConfig", "sharing_threshold", -1, "field 'sharing_threshold': must be >= 0"),
    ("RunConfig", "baseline_days", 0, "field 'baseline_days': must be >= 1"),
    ("RunConfig", "sustain_hours", 0, "field 'sustain_hours': must be >= 1"),
    ("GroundTruthSet", "prefixes", ("10.0.0.0/8", "10.1.0.0/16"),
     "overlapping truth prefixes: 10.0.0.0/8 and 10.1.0.0/16"),
    ("GroundTruthSet", "prefixes", ("10.0.0.0/40",),
     "'10.0.0.0/40' does not appear to be an IPv4 or IPv6 network"),
    ("BlocklistEntry", "cidr", "not-a-net",
     "'not-a-net' does not appear to be an IPv4 or IPv6 network"),
]


def with_value(good, field, value):
    return [value if name == field else old for name, old in zip(good._fields, good)]


@pytest.mark.parametrize("kind, field, value, message", CHECKS)
def test_every_construction_runs_the_type_s_checks(kind, field, value, message):
    """Positional and keyword calls, `_make` and `_replace` all reject the
    value, with the message the check has always given."""
    good = GOOD[kind]
    cls = type(good)
    values = with_value(good, field, value)
    for build in (lambda: cls(*values), lambda: cls(**dict(zip(good._fields, values))),
                  lambda: cls._make(values), lambda: good._replace(**{field: value})):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()


BERLIN = timezone(timedelta(hours=1))

# (type, field, a value the constructor canonicalises, the value it stores)
CANONICAL = [
    ("StudyWindow", "start", datetime(2022, 2, 27, 23, 30, tzinfo=BERLIN),
     utc(2022, 2, 27, 22, 30)),
    ("RoutingEvent", "prefix", "192.0.2.7/24", "192.0.2.0/24"),
    ("GroundTruthSet", "prefixes", ("10.0.0.1/16", "2001:DB8::/32"),
     ("10.0.0.0/16", "2001:db8::/32")),
    ("BlocklistEntry", "cidr", "192.0.2.7/24", "192.0.2.0/24"),
]


@pytest.mark.parametrize("kind, field, value, stored", CANONICAL)
def test_every_construction_canonicalises(kind, field, value, stored):
    good = GOOD[kind]
    cls = type(good)
    values = with_value(good, field, value)
    want = cls(*with_value(good, field, stored))
    for record in (cls(*values), cls(**dict(zip(good._fields, values))), cls._make(values),
                   good._replace(**{field: value})):
        assert type(record) is cls
        assert getattr(record, field) == stored
        assert record == want and hash(record) == hash(want)


def test_a_blocklist_entry_s_net_follows_its_cidr():
    entry = BlocklistEntry("list1", "192.0.2.0/24")
    assert entry.net == parse_prefix("192.0.2.0/24")
    moved = entry._replace(cidr="198.51.100.9/24")
    assert moved.net == parse_prefix("198.51.100.0/24")
    assert BlocklistEntry("list1", "192.0.2.0/24", net=moved.net) == entry
