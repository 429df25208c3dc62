"""UTC timestamp helpers shared across ingest, flow and disruption code.

Records hold their instants as epoch seconds (ints): discovery records as
their readers floor them (`epoch_second`, or `iso_second` of ISO text),
flow records as their files hold them, and hourly series and outage
findings as epoch hours (`ts // 3600`). Datetimes are kept for study
windows, routing events and the edges: exports carry epoch seconds,
observation, candidate and report files ISO-8601 (`fmt_epoch`).
"""

from __future__ import annotations

import re
from datetime import date, datetime, time, timedelta, timezone
from zoneinfo import ZoneInfo

UTC = timezone.utc

_EPOCH = datetime(1970, 1, 1, tzinfo=UTC)
_SECOND = timedelta(seconds=1)
# the ints `from_epoch` accepts: 0001-01-01T00:00:00Z to 9999-12-31T23:59:59Z
_FIRST_SECOND = (datetime.min.replace(tzinfo=UTC) - _EPOCH) // _SECOND
_LAST_SECOND = (datetime.max.replace(tzinfo=UTC) - _EPOCH) // _SECOND

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
    """The epoch second `dt` falls in: floored, as `fmt_iso` shows it."""
    return (ensure_utc(dt) - _EPOCH) // _SECOND


def epoch_second(value: int | float) -> int:
    """An export's epoch value as the second it falls in: an int that
    `from_epoch` accepts as it is, any other value through `from_epoch`,
    which rejects what it rejects with its own message."""
    if type(value) is int and _FIRST_SECOND <= value <= _LAST_SECOND:
        return value
    return to_epoch(from_epoch(value))


def iso_second(text: str) -> int:
    """The epoch second an ISO-8601 instant falls in (`parse_iso`)."""
    return to_epoch(parse_iso(text))


def fmt_iso(dt: datetime) -> str:
    """`YYYY-MM-DDTHH:MM:SSZ`, the year in four digits, as `parse_iso` reads it."""
    return ensure_utc(dt).replace(tzinfo=None).isoformat(timespec="seconds") + "Z"


def fmt_epoch(seconds: int) -> str:
    return fmt_iso(from_epoch(seconds))


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

    # every epoch second from 0 to MAX_TS has a local day, and a day after
    # it, in every zone (offsets stay within a day of UTC)
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
