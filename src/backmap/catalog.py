"""Provider catalog: naming-scheme grammars compiled to FQDN matchers.

Each provider record describes how that provider names its device-facing
gateway hosts: a subdomain rule, an optional region slot, and a parent
domain suffix. `compile_pattern` turns a record into one suffix-anchored
regular expression; `match_fqdn` applies it and extracts the region token.

The catalog is data, not code: naming schemes drift, so they live in a
versioned YAML file (see `data/catalog.yaml` for the bundled one and the
README for the schema).
"""

from __future__ import annotations

import re
from importlib.resources import files
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, NamedTuple

import yaml

from .geo import Location
from .records import Checked

SUBDOMAIN_KINDS = ("wildcard", "literal-set", "protocol-prefixed")
GROUPS = ("top", "cloud", "other")

# One or more dot-separated, non-empty labels. Deliberately never matches
# an empty label, so `a..iot.example.com` cannot satisfy a wildcard slot.
_LABELS = r"[^.]+(?:\.[^.]+)*"

_POSIX_CLASSES = {
    "[[:alnum:]]": "[0-9A-Za-z]",
    "[[:alpha:]]": "[A-Za-z]",
    "[[:digit:]]": "[0-9]",
}

_LABEL_RE = re.compile(r"^[a-z0-9_]([a-z0-9_-]*[a-z0-9_])?$")

YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)  # libyaml: same documents, faster


class CatalogError(ValueError):
    """Catalog file failed to parse or validate. Message carries the locus."""


class SubdomainRule(NamedTuple):
    """How the client-specific part of the FQDN is formed.

    kind "wildcard": any label sequence. kind "literal-set": one of a fixed
    set of subdomains (whole FQDN is then fixed up to the region slot).
    kind "protocol-prefixed": any label sequence followed by one of a fixed
    set of service labels (e.g. ``iot-mqtts``). `optional` permits the
    wildcard part to be absent entirely.
    """

    kind: str
    literals: tuple[str, ...] = ()
    protocols: tuple[str, ...] = ()
    optional: bool = False


class RegionGrammar(NamedTuple):
    """The region slot: explicit tokens, a token pattern, or both."""

    tokens: tuple[str, ...] = ()
    token_pattern: str | None = None
    optional: bool = False


class ProviderProfile(NamedTuple):
    provider_id: str
    display_name: str
    parent_domain: str
    subdomain_rule: SubdomainRule
    region_grammar: RegionGrammar | None
    # the default is read-only, as every profile that takes it shares it
    region_map: Mapping[str, Location] = MappingProxyType({})
    documented_protocols: tuple[tuple[str, int, str], ...] = ()
    dedicated_protocols: tuple[str, ...] = ()
    org_asns: frozenset[int] = frozenset()
    anycast: bool = False
    ipv6_supported: bool = False
    group: str = "other"

    def dedicated_ports(self) -> frozenset[tuple[int, str]] | None:
        """(port, transport) pairs eligible for traffic attribution.

        None means no restriction (all ports attribute).
        """
        if not self.dedicated_protocols:
            return None
        wanted = {name.lower() for name in self.dedicated_protocols}
        return frozenset(
            (port, transport)
            for name, port, transport in self.documented_protocols
            if name.lower() in wanted
        )


class _DomainPattern(NamedTuple):
    provider_id: str
    expression: str
    capture_map: str | None
    compiled: re.Pattern
    # Every match ends with one of these (``$`` also matches before a final
    # newline); lets `match_fqdn` skip the regex for foreign names.
    tails: tuple[str, ...] = ("",)


class DomainPattern(Checked, _DomainPattern):
    """A provider's compiled naming grammar. `compiled` and `tails` follow
    from `expression`, so two patterns compare as their first three fields
    do."""

    __slots__ = ()

    def _checked(self) -> DomainPattern:
        if not self.expression.endswith("$"):
            raise ValueError("pattern expression must be suffix-anchored")
        return self


class MatchResult(NamedTuple):
    provider_id: str
    matched: bool
    region_token: str | None
    normalized_fqdn: str


def normalize_fqdn(fqdn: str) -> str:
    """Lowercase and strip at most one trailing dot."""
    out = fqdn.strip().lower()
    if out.endswith("."):
        out = out[:-1]
    return out


def _translate_posix(pattern: str) -> str:
    for posix, py in _POSIX_CLASSES.items():
        pattern = pattern.replace(posix, py)
    return pattern


def compile_pattern(profile: ProviderProfile) -> DomainPattern:
    """Compile a profile's naming grammar into one anchored expression.

    The expression is anchored at the domain end; fixed-FQDN (literal-set)
    profiles are additionally anchored at the start so they match exactly.
    Optional leading pieces compile to ``(?:X\\.|^)`` so a bare form cannot
    match mid-label (``xparent.com`` never matches ``parent.com``).
    """
    rule = profile.subdomain_rule
    parts: list[str] = []

    if rule.kind == "wildcard":
        piece = _LABELS + r"\."
        parts.append(f"(?:{piece}|^)" if rule.optional else piece)
    elif rule.kind == "literal-set":
        alts = "|".join(re.escape(lit) for lit in rule.literals)
        parts.append(rf"^(?:{alts})\.")
    else:  # protocol-prefixed
        alts = "|".join(re.escape(p) for p in sorted(rule.protocols, key=len, reverse=True))
        client = _LABELS + r"\."
        lead = f"(?:{client}|^)" if rule.optional else client
        parts.append(lead + rf"(?:{alts})\.")

    capture_map: str | None = None
    grammar = profile.region_grammar
    if grammar is not None:
        alts = [re.escape(t) for t in sorted(grammar.tokens, key=len, reverse=True)]
        if grammar.token_pattern:
            alts.append(f"(?:{_translate_posix(grammar.token_pattern)})")
        if not alts:
            raise CatalogError(
                f"{profile.provider_id}: region slot declared but grammar is empty"
            )
        region = rf"(?P<region>{'|'.join(alts)})\."
        parts.append(f"(?:{region})?" if grammar.optional else region)
        capture_map = "region"

    parts.append(re.escape(profile.parent_domain) + "$")
    expression = "".join(parts)
    try:
        compiled = re.compile(expression)
    except re.error as exc:  # pragma: no cover - load_catalog validates first
        raise CatalogError(f"{profile.provider_id}: pattern does not compile: {exc}") from exc
    return DomainPattern(
        provider_id=profile.provider_id,
        expression=expression,
        capture_map=capture_map,
        compiled=compiled,
        tails=(profile.parent_domain, profile.parent_domain + "\n"),
    )


def match_fqdn(pattern: DomainPattern, fqdn: str) -> MatchResult:
    """Match one FQDN. Case-insensitive; one trailing dot is ignored."""
    if not fqdn:
        raise ValueError("fqdn must be non-empty")
    normalized = normalize_fqdn(fqdn)
    m = (pattern.compiled.search(normalized)
         if normalized and normalized.endswith(pattern.tails) else None)
    if m is None:
        return MatchResult(pattern.provider_id, False, None, normalized)
    region = m.group(pattern.capture_map) if pattern.capture_map else None
    return MatchResult(pattern.provider_id, True, region, normalized)


def match_all(patterns: list[DomainPattern], fqdn: str) -> list[MatchResult]:
    """All providers whose pattern matches. Multi-matches are surfaced,
    not resolved: precedence between providers is the caller's call."""
    return [r for p in patterns if (r := match_fqdn(p, fqdn)).matched]


def compile_catalog(profiles: list[ProviderProfile]) -> list[DomainPattern]:
    return [compile_pattern(p) for p in profiles]


def default_catalog_path() -> Path:
    return Path(str(files("backmap").joinpath("data/catalog.yaml")))


# --- loading & validation ---------------------------------------------------


def _require(cond: bool, locus: str, message: str) -> None:
    if not cond:
        raise CatalogError(f"{locus}: {message}")


def _valid_dns_suffix(name: str) -> bool:
    if not name or len(name) > 253:
        return False
    return all(len(lbl) <= 63 and _LABEL_RE.match(lbl) for lbl in name.split("."))


def _parse_subdomain(raw: dict, locus: str) -> SubdomainRule:
    kind = raw.get("kind")
    _require(kind in SUBDOMAIN_KINDS, locus, f"kind must be one of {SUBDOMAIN_KINDS}, got {kind!r}")
    optional = bool(raw.get("optional", False))
    literals = tuple(str(x).lower() for x in raw.get("literals", []) or [])
    protocols = tuple(str(x).lower() for x in raw.get("protocols", []) or [])
    if kind == "literal-set":
        _require(len(literals) >= 1, locus, "literal-set requires at least one literal")
        _require(not optional, locus, "literal-set subdomains cannot be optional")
        for lit in literals:
            _require(_valid_dns_suffix(lit), locus, f"invalid literal subdomain {lit!r}")
    if kind == "protocol-prefixed":
        _require(len(protocols) >= 1, locus, "protocol-prefixed requires at least one label")
        for p in protocols:
            _require(_valid_dns_suffix(p), locus, f"invalid protocol label {p!r}")
    return SubdomainRule(kind=kind, literals=literals, protocols=protocols, optional=optional)


def _parse_region(raw: dict | None, locus: str) -> RegionGrammar | None:
    if raw is None:
        return None
    tokens = tuple(str(t).lower() for t in raw.get("tokens", []) or [])
    _require(all(tokens), locus, "region tokens must be non-empty")
    _require(len(set(tokens)) == len(tokens), locus, "region tokens must be distinct")
    token_pattern = raw.get("token_pattern")
    if token_pattern is not None:
        token_pattern = str(token_pattern)
        try:
            re.compile(_translate_posix(token_pattern))
        except re.error as exc:
            raise CatalogError(f"{locus}: token_pattern does not compile: {exc}") from exc
    _require(bool(tokens) or token_pattern is not None, locus,
             "region slot needs tokens and/or token_pattern")
    return RegionGrammar(tokens=tokens, token_pattern=token_pattern,
                         optional=bool(raw.get("optional", False)))


def _parse_provider(raw: dict, index: int) -> ProviderProfile:
    locus = f"providers[{index}]"
    provider_id = str(raw.get("provider_id", "")).strip()
    _require(bool(provider_id), locus, "provider_id is required")
    locus = f"providers[{index}] ({provider_id})"

    parent = normalize_fqdn(str(raw.get("parent_domain", "")))
    _require(not parent.startswith("."), locus, "parent_domain must not start with a dot")
    _require(_valid_dns_suffix(parent), locus, f"parent_domain {parent!r} is not a valid DNS suffix")

    _require(isinstance(raw.get("subdomain"), dict), locus, "subdomain rule is required")
    subdomain = _parse_subdomain(raw["subdomain"], f"{locus}.subdomain")
    region = _parse_region(raw.get("region"), f"{locus}.region")

    region_map: dict[str, Location] = {}
    for token, loc in (raw.get("region_map") or {}).items():
        tl = f"{locus}.region_map[{token}]"
        _require(isinstance(loc, dict) and "country" in loc, tl, "needs a country")
        try:
            region_map[str(token).lower()] = Location.of(loc["country"], loc.get("city"))
        except ValueError as exc:
            raise CatalogError(f"{tl}: {exc}") from exc

    protocols: list[tuple[str, int, str]] = []
    for i, entry in enumerate(raw.get("documented_protocols") or []):
        pl = f"{locus}.documented_protocols[{i}]"
        _require(isinstance(entry, dict), pl, "must be a mapping")
        port = entry.get("port")
        _require(isinstance(port, int) and 1 <= port <= 65535, pl,
                 f"port must be in [1, 65535], got {port!r}")
        transport = str(entry.get("transport", "tcp")).lower()
        _require(transport in ("tcp", "udp"), pl, f"transport must be tcp or udp, got {transport!r}")
        protocols.append((str(entry.get("name", "")), port, transport))

    dedicated = tuple(str(x) for x in raw.get("dedicated_protocols") or [])
    documented_names = {name.lower() for name, _, _ in protocols}
    for name in dedicated:
        _require(name.lower() in documented_names, locus,
                 f"dedicated protocol {name!r} not in documented_protocols")

    org_asns = frozenset(int(a) for a in raw.get("org_asns") or [])
    _require(all(a > 0 for a in org_asns), locus, "org_asns must be positive")

    group = str(raw.get("group", "other"))
    _require(group in GROUPS, locus, f"group must be one of {GROUPS}, got {group!r}")

    profile = ProviderProfile(
        provider_id=provider_id,
        display_name=str(raw.get("display_name", provider_id)),
        parent_domain=parent,
        subdomain_rule=subdomain,
        region_grammar=region,
        region_map=region_map,
        documented_protocols=tuple(protocols),
        dedicated_protocols=dedicated,
        org_asns=org_asns,
        anycast=bool(raw.get("anycast", False)),
        ipv6_supported=bool(raw.get("ipv6_supported", False)),
        group=group,
    )
    # A validated profile must always compile.
    compile_pattern(profile)
    return profile


def load_catalog(path: str | Path) -> list[ProviderProfile]:
    """Load and validate a provider catalog file.

    Raises CatalogError naming the offending record and field; duplicate
    provider ids and empty catalogs are rejected.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CatalogError(f"{path}: cannot read catalog: {exc}") from exc
    try:
        doc = yaml.load(text, Loader=YAML_LOADER)
    except yaml.YAMLError as exc:
        raise CatalogError(f"{path}: parse error: {exc}") from exc
    if doc is None:
        raise CatalogError(f"{path}: empty catalog")
    _require(isinstance(doc, dict), str(path), "top level must be a mapping")
    records = doc.get("providers")
    if not records:
        raise CatalogError(f"{path}: empty catalog")

    profiles: list[ProviderProfile] = []
    seen: set[str] = set()
    for i, raw in enumerate(records):
        _require(isinstance(raw, dict), f"{path}: providers[{i}]", "must be a mapping")
        profile = _parse_provider(raw, i)
        _require(profile.provider_id not in seen, f"{path}: providers[{i}]",
                 f"duplicate provider_id {profile.provider_id!r}")
        seen.add(profile.provider_id)
        profiles.append(profile)
    return profiles
