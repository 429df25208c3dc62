"""UTC timestamp helpers shared across ingest, flow and disruption code.

All internal timestamps are timezone-aware UTC datetimes; exports carry
epoch seconds (ints) except observation files, which use ISO-8601.
"""

from __future__ import annotations

from datetime import datetime, timezone
from zoneinfo import ZoneInfo

UTC = timezone.utc

_ISO_FMT = "%Y-%m-%dT%H:%M:%SZ"


def utc(year: int, month: int, day: int, hour: int = 0, minute: int = 0,
        second: int = 0) -> datetime:
    return datetime(year, month, day, hour, minute, second, tzinfo=UTC)


def ensure_utc(dt: datetime) -> datetime:
    if dt.tzinfo is None:
        raise ValueError(f"naive datetime not allowed: {dt!r}")
    return dt.astimezone(UTC)


def from_epoch(seconds: int | float) -> datetime:
    return datetime.fromtimestamp(seconds, tz=UTC)


def to_epoch(dt: datetime) -> int:
    return int(ensure_utc(dt).timestamp())


def fmt_iso(dt: datetime) -> str:
    return ensure_utc(dt).strftime(_ISO_FMT)


def parse_iso(text: str) -> datetime:
    if text.endswith("Z"):
        return datetime.strptime(text, _ISO_FMT).replace(tzinfo=UTC)
    return ensure_utc(datetime.fromisoformat(text))


def local_date(dt: datetime, tz_name: str) -> str:
    """Calendar date (YYYY-MM-DD) of a UTC instant in the given timezone."""
    return ensure_utc(dt).astimezone(ZoneInfo(tz_name)).strftime("%Y-%m-%d")
