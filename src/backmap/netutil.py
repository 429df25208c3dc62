"""IP address helpers: canonical text forms, families, prefix truncation."""

from __future__ import annotations

import ipaddress


def canonical_ip(text: str) -> str:
    """Canonical text form (IPv6 compressed, lowercase). Raises ValueError."""
    return str(ipaddress.ip_address(text.strip()))


def ip_family(ip: str) -> int:
    """4 or 6."""
    return ipaddress.ip_address(ip).version


def truncate_prefix(ip: str, v4_bits: int = 24, v6_bits: int = 56) -> str:
    """Covering prefix of an address at the per-family aggregation width."""
    addr = ipaddress.ip_address(ip)
    bits = v4_bits if addr.version == 4 else v6_bits
    net = ipaddress.ip_network(f"{addr}/{bits}", strict=False)
    return str(net)


def parse_network(text: str) -> ipaddress.IPv4Network | ipaddress.IPv6Network:
    """Parse an address or CIDR block; bare addresses become host routes."""
    text = text.strip()
    return ipaddress.ip_network(text, strict=False)
