"""Cell value parsing, canonical rendering, and column type annotation.

Cells arrive as raw strings. Columns are annotated as STRING, NUMBER or DATE,
and individual cells are parsed against the column type. Numbers use a fixed
locale: "," is a thousands separator, "." the decimal point. Dates keep track
of their precision (year, year+month, or full) because downstream comparisons
and differences are only defined between dates of equal precision.
"""

from __future__ import annotations

import calendar
import datetime
import re
from decimal import Decimal, InvalidOperation
from enum import Enum
from typing import NamedTuple, Sequence


class SemanticType(Enum):
    STRING = "string"
    NUMBER = "number"
    DATE = "date"


class NotANumber(ValueError):
    """The string is not a numeric cell. Not fatal; callers skip the cell."""


class NotADate(ValueError):
    """The string is not a recognized date."""


class IncomparablePrecision(ValueError):
    """Two dates cannot be subtracted because their precision differs."""


# Ratio of typed cells required before a column is annotated NUMBER or DATE.
# Tolerates footnote-ish cells; cells that fail to parse in a typed column are
# simply excluded from instantiation later on.
TYPE_RATIO = 0.85

_NUMBER_RE = re.compile(r"^([+-]?)[$€£]?\s?(\d[\d.]*(?:[eE][+-]?\d+)?)%?$")

MONTH_NAMES = [
    "January", "February", "March", "April", "May", "June",
    "July", "August", "September", "October", "November", "December",
]
_MONTH_INDEX = {name.lower(): i + 1 for i, name in enumerate(MONTH_NAMES)}
_MONTH_INDEX.update({name[:3].lower(): i + 1 for i, name in enumerate(MONTH_NAMES)})
_MONTH_INDEX["sept"] = 9

_DMY_RE = re.compile(r"^(\d{1,2})\s+([A-Za-z]+)\.?,?\s+(\d{3,4})$")
_MDY_RE = re.compile(r"^([A-Za-z]+)\.?\s+(\d{1,2}),?\s+(\d{3,4})$")
_MY_RE = re.compile(r"^([A-Za-z]+)\.?,?\s+(\d{3,4})$")
_ISO_RE = re.compile(r"^(\d{4})-(\d{1,2})-(\d{1,2})$")
_YEAR_RE = re.compile(r"^(\d{4})$")


class _DateFields(NamedTuple):
    year: int
    month: int | None = None
    day: int | None = None


class Date(_DateFields):
    """A calendar date with optional month and day (coarse dates allowed)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> Date:
        self = super().__new__(cls, *args, **kwargs)
        if self.day is not None and self.month is None:
            raise ValueError("day requires month")
        if self.month is not None and not 1 <= self.month <= 12:
            raise ValueError(f"month out of range: {self.month}")
        if self.day is not None:
            last = calendar.monthrange(self.year, self.month)[1]
            if not 1 <= self.day <= last:
                raise ValueError(f"day out of range: {self.day}")
        return self

    @property
    def precision(self) -> int:
        """1 = year only, 2 = year+month, 3 = full date."""
        if self.day is not None:
            return 3
        if self.month is not None:
            return 2
        return 1

    def key(self) -> tuple[int, int, int]:
        """Sort key; only meaningful among dates of equal precision."""
        return (self.year, self.month or 0, self.day or 0)


class Duration(NamedTuple):
    """Elapsed time between two dates, in calendar units."""

    years: int
    months: int = 0
    days: int = 0


def parse_number(raw: str) -> Decimal:
    """Parse a numeric cell, stripping thousands separators, a leading
    currency symbol and a trailing percent sign. Raises NotANumber."""
    text = " ".join(raw.split()).replace(",", "")
    match = _NUMBER_RE.match(text)
    if not match:
        raise NotANumber(raw)
    try:
        value = Decimal(match.group(1) + match.group(2))
    except InvalidOperation:
        raise NotANumber(raw) from None
    if not value.is_finite():
        raise NotANumber(raw)
    return value


def _month_number(name: str) -> int:
    try:
        return _MONTH_INDEX[name.lower()]
    except KeyError:
        raise NotADate(name) from None


def parse_date(raw: str) -> Date:
    """Parse day-month-year, month-day-year (named months), month-year,
    ISO yyyy-mm-dd, or a bare year in 1000..2999. Raises NotADate."""
    text = " ".join(raw.split())
    if not text:
        raise NotADate(raw)

    match = _DMY_RE.match(text)
    if match:
        day, month, year = match.groups()
        return _checked_date(int(year), _month_number(month), int(day), raw)
    match = _MDY_RE.match(text)
    if match:
        month, day, year = match.groups()
        return _checked_date(int(year), _month_number(month), int(day), raw)
    match = _MY_RE.match(text)
    if match:
        month, year = match.groups()
        return _checked_date(int(year), _month_number(month), None, raw)
    match = _ISO_RE.match(text)
    if match:
        year, month, day = (int(g) for g in match.groups())
        return _checked_date(year, month, day, raw)
    match = _YEAR_RE.match(text)
    if match:
        year = int(match.group(1))
        if 1000 <= year <= 2999:
            return Date(year)
    raise NotADate(raw)


def _checked_date(year: int, month: int | None, day: int | None, raw: str) -> Date:
    try:
        return Date(year, month, day)
    except ValueError:
        raise NotADate(raw) from None


def render_number(value: Decimal) -> str:
    """Canonical decimal rendering: no thousands separators, no exponent,
    no trailing fractional zeros."""
    text = format(value, "f")
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    if text in ("", "-0"):
        text = "0"
    return text


def render_date(date: Date) -> str:
    """Render at the date's own precision, e.g. "27 February 1991"."""
    if date.precision == 3:
        return f"{date.day} {MONTH_NAMES[date.month - 1]} {date.year}"
    if date.precision == 2:
        return f"{MONTH_NAMES[date.month - 1]} {date.year}"
    return str(date.year)


def render_duration(duration: Duration) -> str:
    """Largest unit first, zero components omitted: "47 years, 11 months,
    16 days". Returns "0 days" for an empty duration."""
    parts = []
    for amount, unit in (
        (duration.years, "year"),
        (duration.months, "month"),
        (duration.days, "day"),
    ):
        if amount:
            parts.append(f"{amount} {unit}" + ("" if amount == 1 else "s"))
    return ", ".join(parts) if parts else "0 days"


def compare_dates(a: Date, b: Date) -> int:
    """Three-way comparison at the shared precision. Returns 0 when the two
    dates cannot be distinguished at the precision both of them carry."""
    if a.year != b.year:
        return -1 if a.year < b.year else 1
    if a.month is None or b.month is None:
        return 0
    if a.month != b.month:
        return -1 if a.month < b.month else 1
    if a.day is None or b.day is None:
        return 0
    if a.day != b.day:
        return -1 if a.day < b.day else 1
    return 0


def _shift_months(year: int, month: int, day: int, count: int) -> tuple[int, int, int]:
    """Add whole months, clamping the day to the target month's length."""
    index = year * 12 + (month - 1) + count
    shifted_year, month_zero = divmod(index, 12)
    last = calendar.monthrange(shifted_year, month_zero + 1)[1]
    return shifted_year, month_zero + 1, min(day, last)


def date_difference(a: Date, b: Date) -> Duration:
    """Non-negative elapsed time between two dates of equal precision.

    Full dates yield the largest number of whole calendar months (split into
    years and months) that fits between the two dates, plus the remaining
    days; year+month dates yield years/months, bare years yield years only.
    """
    if a.precision != b.precision:
        raise IncomparablePrecision(f"{a} vs {b}")
    earlier, later = (a, b) if a.key() <= b.key() else (b, a)

    if a.precision == 1:
        return Duration(later.year - earlier.year)

    months = (later.year - earlier.year) * 12 + later.month - earlier.month
    if a.precision == 2:
        return Duration(months // 12, months % 12)

    anchor = _shift_months(earlier.year, earlier.month, earlier.day, months)
    if anchor > (later.year, later.month, later.day):
        months -= 1
        anchor = _shift_months(earlier.year, earlier.month, earlier.day, months)
    days = (datetime.date(later.year, later.month, later.day) - datetime.date(*anchor)).days
    return Duration(months // 12, months % 12, days)


def _parsed(parse, text: str):
    """`parse(text)`, or None where the text is empty or does not parse."""
    try:
        return parse(text) if text else None
    except (NotADate, NotANumber):
        return None


def annotate_column(cells: Sequence[str]
                    ) -> tuple[SemanticType, list[str], list[Decimal | Date | str | None]]:
    """Annotate a column from its raw cells and return (type, texts, parses):
    the cells stripped of surrounding whitespace, and each cell's parse under
    the type, in order, which is a Decimal for NUMBER, a Date for DATE or the
    stripped text for STRING, and None for a cell that is empty or does not
    parse under the type.

    DATE wins when at least `TYPE_RATIO` of the non-empty cells parse as dates
    and at least one of them carries a month or day; a column of bare years is
    NUMBER (years behave numerically, and every bare year parses as a number).
    Empty cells are excluded from the ratio; an all-empty column is STRING.
    """
    texts = [cell.strip() for cell in cells]
    dates = [_parsed(parse_date, text) for text in texts]
    numbers = [_parsed(parse_number, text) for text in texts]
    total = len(texts) - texts.count("")
    found = [date for date in dates if date is not None]
    if total and len(found) / total >= TYPE_RATIO and any(d.precision > 1 for d in found):
        return SemanticType.DATE, texts, dates
    if total and sum(number is not None for number in numbers) / total >= TYPE_RATIO:
        return SemanticType.NUMBER, texts, numbers
    return SemanticType.STRING, texts, [text or None for text in texts]
