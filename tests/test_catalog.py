import re
import string
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from backmap.catalog import (CatalogError, ProviderProfile, RegionGrammar,
                             SubdomainRule, compile_pattern, load_catalog, match_all,
                             match_fqdn, normalize_fqdn)

DATA_DIR = Path(__file__).parent / "data"


def load_pattern_cases():
    with open(DATA_DIR / "pattern_cases.yaml") as fh:
        return yaml.safe_load(fh)["providers"]


def test_default_catalog_loads_16_unique_providers(catalog_profiles):
    assert len(catalog_profiles) == 16
    ids = [p.provider_id for p in catalog_profiles]
    assert len(set(ids)) == len(ids)


def test_empty_catalog_rejected(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    with pytest.raises(CatalogError, match="empty catalog"):
        load_catalog(path)
    path.write_text("providers: []\n")
    with pytest.raises(CatalogError, match="empty catalog"):
        load_catalog(path)


def test_duplicate_provider_id_rejected(tmp_path):
    doc = {"providers": [
        {"provider_id": "a", "parent_domain": "a.example", "subdomain": {"kind": "wildcard"}},
        {"provider_id": "a", "parent_domain": "b.example", "subdomain": {"kind": "wildcard"}},
    ]}
    path = tmp_path / "dup.yaml"
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(CatalogError, match="duplicate provider_id"):
        load_catalog(path)


@pytest.mark.parametrize("bad,locus", [
    ({"provider_id": "x", "parent_domain": ".a.example",
      "subdomain": {"kind": "wildcard"}}, "parent_domain"),
    ({"provider_id": "x", "parent_domain": "a.example",
      "subdomain": {"kind": "nope"}}, "kind"),
    ({"provider_id": "x", "parent_domain": "a.example",
      "subdomain": {"kind": "wildcard"},
      "documented_protocols": [{"name": "MQTT", "port": 0}]}, "port"),
    ({"provider_id": "x", "parent_domain": "a.example",
      "subdomain": {"kind": "wildcard"},
      "documented_protocols": [{"name": "MQTT", "port": 70000}]}, "port"),
    ({"provider_id": "x", "parent_domain": "a.example",
      "subdomain": {"kind": "wildcard"},
      "region": {"tokens": ["r1", "r1"]}}, "distinct"),
    ({"provider_id": "x", "parent_domain": "a.example",
      "subdomain": {"kind": "wildcard"}, "region": {"tokens": []}}, "region"),
], ids=["leading-dot-parent", "bad-kind", "port-0", "port-high",
        "dup-tokens", "empty-region"])
def test_invariant_violations_name_the_field(tmp_path, bad, locus):
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump({"providers": [bad]}))
    with pytest.raises(CatalogError, match=locus):
        load_catalog(path)


def test_compile_error_for_declared_but_empty_region_slot():
    profile = ProviderProfile(
        provider_id="x", display_name="x", parent_domain="x.example",
        subdomain_rule=SubdomainRule(kind="wildcard"),
        region_grammar=RegionGrammar(tokens=(), token_pattern=None),
    )
    with pytest.raises(CatalogError, match="empty"):
        compile_pattern(profile)


def test_patterns_are_suffix_anchored(catalog_patterns):
    for pattern in catalog_patterns:
        assert pattern.expression.endswith("$")


def test_match_requires_nonempty_fqdn(patterns_by_id):
    with pytest.raises(ValueError):
        match_fqdn(patterns_by_id["amazon"], "")


def test_pattern_fixture_positives_and_near_misses(patterns_by_id):
    for case in load_pattern_cases():
        pattern = patterns_by_id[case["provider_id"]]
        for pos in case["positives"]:
            result = match_fqdn(pattern, pos["fqdn"])
            assert result.matched, (case["provider_id"], pos["fqdn"])
            assert result.region_token == pos["region"]
        assert len(case["near_misses"]) >= 20
        for miss in case["near_misses"]:
            result = match_fqdn(pattern, miss)
            assert not result.matched, (case["provider_id"], miss)


def test_multi_match_is_surfaced_not_resolved(catalog_patterns):
    # no default-catalog collisions expected; synthetic overlap must surface both
    overlap_a = compile_pattern(ProviderProfile(
        provider_id="a", display_name="a", parent_domain="shared.example",
        subdomain_rule=SubdomainRule(kind="wildcard"), region_grammar=None))
    overlap_b = compile_pattern(ProviderProfile(
        provider_id="b", display_name="b", parent_domain="shared.example",
        subdomain_rule=SubdomainRule(kind="wildcard"), region_grammar=None))
    results = match_all([overlap_a, overlap_b], "dev.shared.example")
    assert sorted(r.provider_id for r in results) == ["a", "b"]


def test_wildcard_never_matches_empty_label(patterns_by_id):
    assert not match_fqdn(patterns_by_id["microsoft"], "a..azure-devices.net").matched
    assert not match_fqdn(patterns_by_id["sap"], "..iot.sap").matched


LABEL = st.text(alphabet=string.ascii_lowercase + string.digits, min_size=1, max_size=8)


@settings(max_examples=200, deadline=None)
@given(sub=st.lists(LABEL, min_size=1, max_size=3), data=st.data())
def test_grammar_roundtrip_wildcard_providers(catalog_profiles, patterns_by_id,
                                              sub, data):
    """Any FQDN generated from a profile's grammar must match and return the
    generating region token."""
    candidates = [p for p in catalog_profiles
                  if p.subdomain_rule.kind == "wildcard" and p.region_grammar
                  and p.region_grammar.tokens]
    profile = data.draw(st.sampled_from(candidates))
    token = data.draw(st.sampled_from(sorted(profile.region_grammar.tokens)))
    fqdn = ".".join(sub) + f".{token}.{profile.parent_domain}"
    result = match_fqdn(patterns_by_id[profile.provider_id], fqdn)
    assert result.matched
    assert result.region_token == token


@settings(max_examples=200, deadline=None)
@given(sub=st.lists(LABEL, min_size=1, max_size=3),
       suffix=st.sampled_from(["not-a-provider.example", "example.org", "local"]))
def test_soundness_unrelated_suffix_never_matches(catalog_patterns, sub, suffix):
    fqdn = ".".join(sub) + "." + suffix
    assert match_all(list(catalog_patterns), fqdn) == []


@settings(max_examples=100, deadline=None)
@given(fqdn=st.text(alphabet=string.ascii_letters + string.digits + ".-", min_size=1,
                    max_size=40))
def test_matching_is_deterministic(patterns_by_id, fqdn):
    pattern = patterns_by_id["amazon"]
    first = match_fqdn(pattern, fqdn)
    second = match_fqdn(pattern, fqdn)
    assert first == second


@settings(max_examples=300, deadline=None)
@given(head=st.lists(LABEL, min_size=0, max_size=3),
       tail=st.sampled_from(["iot.us-east-1.amazonaws.com", "azure-devices.net",
                             "mqtt.googleapis.com", "example.org", "amazonaws.com"]),
       end=st.sampled_from(["", ".", "\n.", "\n\n.", "x"]))
def test_suffix_precheck_agrees_with_the_bare_regex(catalog_patterns, head, tail, end):
    fqdn = ".".join(head + [tail]) + end
    normalized = normalize_fqdn(fqdn)
    for pattern in catalog_patterns:
        m = pattern.compiled.search(normalized)
        result = match_fqdn(pattern, fqdn)
        assert result.matched == (m is not None)
        if m is not None and pattern.capture_map:
            assert result.region_token == m.group(pattern.capture_map)


def test_normalize_fqdn_lowercases_and_strips_one_dot():
    assert normalize_fqdn("MQTT.GoogleApis.COM.") == "mqtt.googleapis.com"
    assert normalize_fqdn("a.example..") == "a.example."  # only one trailing dot


def test_compiled_pattern_matches_table_equivalent_amazon(patterns_by_id):
    """Behavioral spot-check against the published flexible-search form."""
    published = re.compile(
        r"(.+)(\.iot\.)([0-9A-Za-z]+(-[0-9A-Za-z]+)+)?(\.amazonaws\.com$)")
    ours = patterns_by_id["amazon"]
    for fqdn in ["abcd.iot.eu-west-1.amazonaws.com", "a.b.iot.us-east-2.amazonaws.com",
                 "www.amazonaws.com", "x.iot.useast1.amazonaws.com",
                 "iot.eu-west-1.amazonaws.com", "x.iot.us-east-1.amazonaws.com.evil"]:
        assert bool(published.search(fqdn)) == match_fqdn(ours, fqdn).matched, fqdn
