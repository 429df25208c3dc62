"""UTC timestamp helpers shared across ingest, flow and disruption code.

All internal timestamps are timezone-aware UTC datetimes, except flow
records, which keep the epoch seconds (ints) of their files; exports carry
epoch seconds except observation files, which use ISO-8601.
"""

from __future__ import annotations

import re
from datetime import date, datetime, time, timedelta, timezone
from zoneinfo import ZoneInfo

UTC = timezone.utc

_ISO_FMT = "%Y-%m-%dT%H:%M:%SZ"
# the exact shape `fmt_iso` writes, ASCII digits only; `strptime` reads
# every other spelling it accepts (single-digit fields, Unicode digits)
_ISO_Z = re.compile(r"([0-9]{4})-([0-9]{2})-([0-9]{2})T([0-9]{2}):([0-9]{2}):([0-9]{2})Z")


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
        m = _ISO_Z.fullmatch(text)
        if m is not None:
            # datetime() rejects the out-of-range fields strptime rejects
            return datetime(*map(int, m.groups()), tzinfo=UTC)
        return datetime.strptime(text, _ISO_FMT).replace(tzinfo=UTC)
    return ensure_utc(datetime.fromisoformat(text))


def local_date(dt: datetime, tz_name: str) -> str:
    """Calendar date (YYYY-MM-DD) of a UTC instant in the given timezone."""
    return ensure_utc(dt).astimezone(ZoneInfo(tz_name)).strftime("%Y-%m-%d")


class LocalDays:
    """Local calendar date (YYYY-MM-DD) of epoch seconds in one timezone.

    Remembers the [start, end) epoch bounds of the last local day it
    resolved, so a time-ordered trace pays for zoneinfo only when the day
    changes. The bounds are the zone's own midnights, so offsets that are
    not a whole hour and days of 23 or 25 hours come out right. Where a
    midnight falls in a DST gap or fold, the bounds shrink to the part of
    the day that is certain; instants outside them are converted afresh.
    """

    def __init__(self, tz_name: str) -> None:
        self._tz = ZoneInfo(tz_name)
        self._start = self._end = 0
        self._date = ""

    def _midnight(self, day: date, fold: int) -> int:
        return int(datetime.combine(day, time(fold=fold), self._tz).timestamp())

    def date(self, ts: int) -> str:
        if self._start <= ts < self._end:
            return self._date
        self._date, self._start, self._end = self.day(ts)
        return self._date

    def day(self, ts: int) -> tuple[str, int, int]:
        """(date, start, end) of the local day of `ts`: every instant in
        [start, end) has that date. A loop that keeps the bounds can test
        them inline and call this only when the day changes."""
        day = datetime.fromtimestamp(ts, self._tz).date()
        following = day + timedelta(days=1)
        # both folds name the same instant for an ordinary midnight; for one
        # in a gap or fold, the later start and the earlier end keep the
        # bounds inside the day
        start = max(self._midnight(day, 0), self._midnight(day, 1))
        end = min(self._midnight(following, 0), self._midnight(following, 1))
        return day.isoformat(), start, end
