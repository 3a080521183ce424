"""Month-granularity calendar arithmetic.

Everything in this toolkit that touches time goes through the two value
types defined here: a calendar month (:class:`TimePoint`) and a validity
range (:class:`TimeInterval`). Months are the finest unit; there is no day
or timezone handling.

The canonical textual form is ``"Jul 2019"`` (3-letter English month
abbreviation, year without leading zeros). A bare ``"2019"`` is accepted on
input and resolved to a month chosen by the caller.

The module also holds the seeded draws that question generation, rendering
and masking share (:func:`below`, :func:`sample`), so masking needs no
question code.
"""

from __future__ import annotations

from functools import lru_cache
from math import ceil, log
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import random

MONTH_ABBREVS = (
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
)

_MONTH_NUMBERS = {abbrev.lower(): i + 1 for i, abbrev in enumerate(MONTH_ABBREVS)}

MIN_YEAR = 1

BEFORE = "before"
SAME = "same"
AFTER = "after"
DIRECTIONS = (BEFORE, AFTER)


class TimeParseError(ValueError):
    """A textual time could not be parsed."""


class TimeRangeError(ValueError):
    """An operation produced a calendar point before year 1."""


class TimePoint(NamedTuple):
    """A calendar month: (year, month) with month in 1..12. The tuple order
    (year, month) is the chronological order."""

    year: int
    month: int

    def __str__(self) -> str:
        return format_time(self)


class TimeInterval(NamedTuple):
    """An inclusive validity range. Ongoing facts are closed at the KB
    snapshot month when they are ingested."""

    start: TimePoint
    end: TimePoint

    def contains(self, point: TimePoint) -> bool:
        """Inclusive at both bounds."""
        return self.start <= point <= self.end


# The validating constructors, attached after each class is made: typing.NamedTuple
# refuses a __new__ in the class body. ``_replace`` and ``_make`` do not validate.

def _time_point(cls, year: int, month: int) -> TimePoint:
    if year < MIN_YEAR:
        raise TimeRangeError(f"year {year} is before the minimum supported year {MIN_YEAR}")
    if not 1 <= month <= 12:
        raise ValueError(f"month must be in 1..12, got {month}")
    return tuple.__new__(cls, (year, month))


def _time_interval(cls, start: TimePoint, end: TimePoint) -> TimeInterval:
    if end < start:
        raise ValueError(f"interval start {start} is after end {end}")
    return tuple.__new__(cls, (start, end))


TimePoint.__new__, TimeInterval.__new__ = _time_point, _time_interval

DEFAULT_SNAPSHOT = TimePoint(2022, 11)  # KB dump month used to close ongoing facts


def month_index(t: TimePoint) -> int:
    """Months elapsed since Jan of year 0 (Jan 0001 has index 12)."""
    return t.year * 12 + (t.month - 1)


@lru_cache(maxsize=1 << 14)
def time_from_month_index(index: int) -> TimePoint:
    """The month ``index`` months after Jan of year 0; a TimeRangeError before
    year 1. Each result is remembered, as :func:`parse_time_cached` does."""
    year, month0 = divmod(index, 12)
    if year < MIN_YEAR:
        raise TimeRangeError(f"month index {index} falls before year {MIN_YEAR}")
    return tuple.__new__(TimePoint, (year, month0 + 1))  # the month is in 1..12 by construction


def compare(a: TimePoint, b: TimePoint) -> str:
    """Chronological order of two points: 'before', 'same', or 'after'."""
    if a < b:
        return BEFORE
    if a > b:
        return AFTER
    return SAME


def is_year_text(text: str) -> bool:
    """A year is ASCII digits; ``str.isdigit`` alone also takes ``²`` and ``２０１９``."""
    return text.isascii() and text.isdigit()


def parse_time(text: str, bare_year_month: int = 1) -> TimePoint:
    """Parse ``"Jul 2019"`` or a bare ``"2019"``.

    A bare year resolves to ``bare_year_month`` (callers ingesting validity
    ranges pass 1 for starts and 12 for ends).
    """
    tokens = text.split()
    if len(tokens) == 1:
        (year_token,) = tokens
        month = bare_year_month
    elif len(tokens) == 2:
        month_token, year_token = tokens
        month = _MONTH_NUMBERS.get(month_token.lower())
        if month is None:
            raise TimeParseError(f"unrecognized month token {month_token!r} in {text!r}")
    else:
        raise TimeParseError(f"expected 'Mon YYYY' or 'YYYY', got {text!r}")
    if not is_year_text(year_token):
        raise TimeParseError(f"unrecognized year token {year_token!r} in {text!r}")
    return TimePoint(int(year_token), month)  # which raises TimeRangeError before year 1


@lru_cache(maxsize=1 << 14)
def parse_time_cached(text: str, bare_year_month: int) -> TimePoint:
    """:func:`parse_time`, remembering each successful result by ``(text,
    bare_year_month)`` for the life of the process.

    A fact file or a question file repeats a few thousand distinct time texts
    many times over. Results are immutable, so every caller may share them,
    and the memo is bounded. Failures are not remembered, so a bad text
    raises the same error every time it is read. Pass both arguments by
    position: the memo keys on the arguments as passed."""
    return parse_time(text, bare_year_month)


def format_time(t: TimePoint) -> str:
    """Canonical textual form, e.g. ``"Jul 2019"``."""
    return f"{MONTH_ABBREVS[t.month - 1]} {t.year}"


# Seeded draws. Generated files depend on every draw, so these make exactly the
# ``getrandbits`` calls CPython 3.10-3.13's ``random.Random`` makes for the same
# request, without its per-call argument handling.

def below(n: int, getrandbits) -> int:
    """A draw in ``range(n)``, ``n > 0``, from a ``Random``'s ``getrandbits``:
    the draws CPython 3.10-3.13 makes for ``randrange(n)``, so ``choice``,
    ``randint`` and ``shuffle`` go through it too, under more calls."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _shuffle(items: list, rng: random.Random) -> None:
    """``rng.shuffle(items)``: the same draws and swaps."""
    getrandbits = rng.getrandbits
    for i in range(len(items) - 1, 0, -1):
        j = below(i + 1, getrandbits)
        items[i], items[j] = items[j], items[i]


def sample(n: int, k: int, getrandbits) -> list[int]:
    """``Random.sample(range(n), k)``, ``0 <= k <= n``: the same draws and the
    same picks in the same order. Like CPython 3.10-3.13, it tracks the
    unpicked indices in a list while that is smaller than a set of ``k``
    picks, and redraws a repeated pick otherwise."""
    setsize = 21  # the size of a small set minus that of an empty list
    if k > 5:
        setsize += 4 ** ceil(log(k * 3, 4))  # the table size of a big set
    if n <= setsize:
        pool = list(range(n))
        picks = []
        for remaining in range(n, n - k, -1):
            j = below(remaining, getrandbits)
            picks.append(pool[j])
            pool[j] = pool[remaining - 1]  # the last unpicked index fills the vacancy
        return picks
    picks = []
    picked: set[int] = set()
    for _ in range(k):
        j = below(n, getrandbits)
        while j in picked:
            j = below(n, getrandbits)
        picked.add(j)
        picks.append(j)
    return picks
