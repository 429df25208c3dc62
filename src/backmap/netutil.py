"""IP address helpers: canonical text forms, families, prefix truncation, and
the prefix index behind the prefix2as table and the blocklists."""

from __future__ import annotations

import ipaddress
import re
from typing import Generic, TypeVar

V = TypeVar("V")
Network = ipaddress.IPv4Network | ipaddress.IPv6Network

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


def parse_network(text: str) -> Network:
    """Parse an address or CIDR block; bare addresses become host routes."""
    text = text.strip()
    return ipaddress.ip_network(text, strict=False)


def _v4_int(quad: str) -> int:
    a, b, c, d = quad.split(".")
    return int(a) << 24 | int(b) << 16 | int(c) << 8 | int(d)


def _v4_text(value: int) -> str:
    return f"{value >> 24}.{value >> 16 & 255}.{value >> 8 & 255}.{value & 255}"


def network_range(text: str) -> tuple[int, int, int]:
    """(family, first, last) integer bounds of `parse_network(text)`."""
    m = _CANONICAL_V4_NET.fullmatch(text)
    if m is not None:
        host = (1 << 32 - int(m[2])) - 1
        first = _v4_int(m[1]) & ~host
        return 4, first, first | host
    net = parse_network(text)
    return net.version, int(net.network_address), int(net.broadcast_address)


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

    def _bucket(self, net: Network) -> dict[int, V]:
        key = (net.version, net.prefixlen)
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = {}
            levels = self._levels[net.version]
            levels.append((net.max_prefixlen - net.prefixlen, bucket))
            levels.sort(key=lambda level: level[0])
        return bucket

    def __setitem__(self, net: Network, value: V) -> None:
        self._bucket(net)[int(net.network_address)] = value

    def setdefault(self, net: Network, default: V) -> V:
        """The value stored for `net`, storing `default` first if it has none."""
        return self._bucket(net).setdefault(int(net.network_address), default)

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
