"""UTC timestamp helpers shared across ingest, flow and disruption code.

All internal timestamps are timezone-aware UTC datetimes, except flow
records, which keep the epoch seconds (ints) of their files; exports carry
epoch seconds except observation files, which use ISO-8601.
"""

from __future__ import annotations

import re
from datetime import date, datetime, time, timedelta, timezone
from typing import Callable
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


# Memos for one call's or one run's timestamps, which repeat a few distinct
# values thousands of times. A memo keys only values whose equality is
# exact: two datetimes that differ only in `fold` under one zone compare and
# hash equal yet name different instants, so only UTC ones are kept; of
# epoch values only ints are, so anything else fails as `from_epoch` fails.


def _utc_memo(convert: Callable[[datetime], str]) -> Callable[[datetime], str]:
    memo: dict[datetime, str] = {}

    def converted(dt: datetime) -> str:
        if dt.tzinfo is not UTC:
            return convert(dt)
        text = memo.get(dt)
        if text is None:
            text = memo[dt] = convert(dt)
        return text
    return converted


def fmt_iso_memo() -> Callable[[datetime], str]:
    """`fmt_iso`, formatting each distinct UTC datetime once."""
    return _utc_memo(fmt_iso)


def local_date_memo(tz_name: str) -> Callable[[datetime], str]:
    """`local_date` in one timezone, converting each distinct UTC instant once."""
    return _utc_memo(lambda dt: local_date(dt, tz_name))


def from_epoch_memo() -> Callable[[int | float], datetime]:
    """`from_epoch`, converting each distinct int once."""
    memo: dict[int, datetime] = {}

    def converted(seconds: int | float) -> datetime:
        if type(seconds) is not int:
            return from_epoch(seconds)
        dt = memo.get(seconds)
        if dt is None:
            dt = memo[seconds] = from_epoch(seconds)
        return dt
    return converted


class LocalDays:
    """Local calendar date (YYYY-MM-DD) of epoch seconds in one timezone.

    Remembers the [start, end) epoch bounds of the last local day it
    resolved, so a time-ordered trace pays for zoneinfo only when the day
    changes. The bounds are the zone's own midnights, so offsets that are
    not a whole hour and days of 23 or 25 hours come out right. Where a
    midnight falls in a DST gap or fold, the bounds shrink to the part of
    the day that is certain; instants outside them are converted afresh.
    """

    # every epoch second from MIN_TS to MAX_TS has a local day, and a day
    # after it, in every zone (offsets stay within a day of UTC)
    MIN_TS = int(datetime(1, 1, 2, tzinfo=UTC).timestamp())
    MAX_TS = int(datetime(9999, 12, 30, tzinfo=UTC).timestamp()) - 1

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
