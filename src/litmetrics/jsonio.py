"""Canonical JSON and date formatting shared by the store, cache, and exports."""

from __future__ import annotations

import json
import re
from datetime import date, datetime, timezone
from functools import lru_cache
from typing import Any

DATE_FMT = "%Y-%m-%d"
TIMESTAMP_FMT = "%Y-%m-%dT%H:%M:%SZ"
# exact shapes of DATE_FMT and TIMESTAMP_FMT, decoded without strptime
_DATE_RE = re.compile(r"(\d{4})-(\d{2})-(\d{2})", re.ASCII)
_TIMESTAMP_RE = re.compile(r"(\d{4})-(\d{2})-(\d{2})T(\d{2}):(\d{2}):(\d{2})Z", re.ASCII)
# A snapshot repeats a few thousand distinct dates across its records and
# citation payloads; up to this many decoded strings are remembered. The
# results are immutable and can be shared; a string that raises is not.
_PARSE_CACHE_SIZE = 8192


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, unicode kept verbatim."""
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def format_date(d: date | None) -> str | None:
    """`DATE_FMT`, its year zero-padded to four digits as `parse_date` reads
    it, which `strftime` does not do for a year before 1000."""
    return None if d is None else date.isoformat(d)


@lru_cache(maxsize=_PARSE_CACHE_SIZE)
def parse_date(s: str | None) -> date | None:
    if s is None or s == "":
        return None
    head = s[:10]
    m = _DATE_RE.fullmatch(head)
    if m is not None:
        try:
            return date(*map(int, m.groups()))
        except ValueError:
            pass  # out-of-range field: strptime raises its own message below
    return datetime.strptime(head, DATE_FMT).date()


def format_timestamp(ts: datetime) -> str:
    """`TIMESTAMP_FMT` in UTC, zero-padded as `format_date` is."""
    if ts.tzinfo is not None:
        ts = ts.astimezone(timezone.utc).replace(tzinfo=None)
    return ts.isoformat(timespec="seconds") + "Z"


@lru_cache(maxsize=_PARSE_CACHE_SIZE)
def parse_timestamp(s: str) -> datetime:
    m = _TIMESTAMP_RE.fullmatch(s)
    if m is not None:
        try:
            return datetime(*map(int, m.groups()))
        except ValueError:
            pass
    return datetime.strptime(s, TIMESTAMP_FMT)


def utc_now() -> datetime:
    return datetime.now(timezone.utc).replace(tzinfo=None, microsecond=0)
