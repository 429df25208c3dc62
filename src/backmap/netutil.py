"""IP address helpers: canonical text forms, families, prefix truncation, and
the prefix index behind the prefix2as table and the blocklists."""

from __future__ import annotations

import ipaddress
import re
from socket import inet_aton
from typing import Callable, Generic, TypeVar

V = TypeVar("V")

# a dotted quad exactly as `str(IPv4Address)` writes it: ASCII octets 0-255
# without leading zeros, which `ipaddress` would return unchanged (`ip_family`
# also takes ints and packed bytes, which skip the shortcut)
_OCTET = r"(?:25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])"
_CANONICAL_V4 = re.compile(rf"{_OCTET}(?:\.{_OCTET}){{3}}")
# such a quad, a slash and a prefix length 0-32 without leading zeros
_CANONICAL_V4_NET = re.compile(rf"({_OCTET}(?:\.{_OCTET}){{3}})/(3[0-2]|[12][0-9]|[0-9])")


def canonical_ip(text: str) -> str:
    """Canonical text form (IPv6 compressed, lowercase) of an address given
    as text. Raises ValueError, also for input that is not text, such as an
    int or packed bytes."""
    if not isinstance(text, str):
        raise ValueError(f"address must be text, not {type(text).__name__}")
    text = text.strip()
    if _CANONICAL_V4.fullmatch(text):
        return text
    return str(ipaddress.ip_address(text))


def ip_family(ip: str) -> int:
    """4 or 6."""
    if isinstance(ip, str) and _CANONICAL_V4.fullmatch(ip):
        return 4
    return ipaddress.ip_address(ip).version


def truncate_prefix(ip: str, v4_bits: int = 24, v6_bits: int = 56) -> str:
    """Covering prefix of an address at the per-family aggregation width.
    Canonical IPv4 text is masked without building ipaddress objects."""
    if (type(v4_bits) is int and 0 <= v4_bits <= 32 and isinstance(ip, str)
            and _CANONICAL_V4.fullmatch(ip)):
        network = _v4_int(ip) & ~((1 << 32 - v4_bits) - 1)
        return f"{_v4_text(network)}/{v4_bits}"
    addr = ipaddress.ip_address(ip)
    bits = v4_bits if addr.version == 4 else v6_bits
    net = ipaddress.ip_network(f"{addr}/{bits}", strict=False)
    return str(net)


def parse_network(text: str) -> ipaddress.IPv4Network | ipaddress.IPv6Network:
    """Parse an address or CIDR block; bare addresses become host routes."""
    text = text.strip()
    return ipaddress.ip_network(text, strict=False)


def _v4_int(quad: str) -> int:
    """The integer of a quad that `_CANONICAL_V4` matches; `inet_aton` would
    also take the shorter and hex forms, which never get here."""
    return int.from_bytes(inet_aton(quad), "big")


def _v4_text(value: int) -> str:
    return f"{value >> 24}.{value >> 16 & 255}.{value >> 8 & 255}.{value & 255}"


def parse_prefix(text: str) -> tuple[int, int, int, str]:
    """(family, prefix length, network integer, canonical text) of
    `parse_network(text)`. Canonical IPv4 text is read without ipaddress;
    every other form, and every error, is parse_network's."""
    m = _CANONICAL_V4_NET.fullmatch(text) if isinstance(text, str) else None
    if m is not None:
        length = int(m[2])
        address = _v4_int(m[1])
        network = address & ~((1 << 32 - length) - 1)
        if network != address:
            text = f"{_v4_text(network)}/{length}"
        return 4, length, network, text
    net = parse_network(text)
    return net.version, net.prefixlen, int(net.network_address), str(net)


def network_range(text: str) -> tuple[int, int, int]:
    """(family, first, last) integer bounds of `parse_network(text)`."""
    family, length, first, _ = parse_prefix(text)
    return family, first, first | (1 << (32 if family == 4 else 128) - length) - 1


def prefix_contains(prefix: str, ip: str) -> bool:
    """Whether the network `prefix` (strict: no host bits set) contains the
    address `ip`. Raises ipaddress's ValueError for a bad prefix or address;
    canonical IPv4 text is checked without building ipaddress objects."""
    m = _CANONICAL_V4_NET.fullmatch(prefix)
    if m is not None and _CANONICAL_V4.fullmatch(ip):
        host = (1 << 32 - int(m[2])) - 1
        network = _v4_int(m[1])
        if not network & host:
            return _v4_int(ip) & ~host == network
    return ipaddress.ip_address(ip) in ipaddress.ip_network(prefix)


class PrefixIndex(Generic[V]):
    """Values keyed by network, bucketed by (family, prefix length).

    A query masks the address at each populated length of its family,
    longest first, and looks the masked value up in that length's bucket.
    """

    def __init__(self) -> None:
        self._buckets: dict[tuple[int, int], dict[int, V]] = {}
        # per family: (shift, bucket) pairs, longest prefix (smallest shift) first
        self._levels: dict[int, list[tuple[int, dict[int, V]]]] = {4: [], 6: []}

    def insert(self, prefix: tuple, value: Callable[[str, V | None], V]) -> None:
        """Store `value(text, old)` for the network `parse_prefix` gave as
        `prefix`: text is its canonical form, old the value so far or None."""
        family, length, network, text = prefix
        bucket = self._buckets.get((family, length))
        if bucket is None:
            bucket = self._buckets[family, length] = {}
            levels = self._levels[family]
            levels.append(((32 if family == 4 else 128) - length, bucket))
            levels.sort(key=lambda level: level[0])
        bucket[network] = value(text, bucket.get(network))

    def containing(self, ip: str) -> list[V]:
        """Values of every indexed network that contains `ip`, longest first.
        Canonical IPv4 text is read without building an ipaddress object."""
        if isinstance(ip, str) and _CANONICAL_V4.fullmatch(ip):
            family, value = 4, _v4_int(ip)
        else:
            addr = ipaddress.ip_address(ip)
            family, value = addr.version, int(addr)
        hits = []
        for shift, bucket in self._levels[family]:
            hit = bucket.get(value >> shift << shift)
            if hit is not None:
                hits.append(hit)
        return hits
