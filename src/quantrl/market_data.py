"""Daily OHLCV ingestion: CSV loading, validation, date slicing.

The canonical file format is a UTF-8 CSV with the exact header
``Date,Open,High,Low,Close,Volume``, ``YYYY-MM-DD`` dates, ``.`` decimal
point and no thousands separators. ``Close`` is authoritative;
adjusted-close columns, if present in source exports, are not part of this
format.

A series is held as columns: the dates as int64 ordinals (``date.toordinal``)
and the five OHLCV fields as rows of one float64 array, all read-only.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from datetime import date
from functools import reduce
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .atomic import atomic_open
from .errors import EmptySeries, InvariantViolation, MalformedRow

CSV_HEADER = ["Date", "Open", "High", "Low", "Close", "Volume"]
_FIELDS = ("open", "high", "low", "close", "volume")
_ISO_DAY = "[0-9]{4}-[0-9]{2}-[0-9]{2}"
_ISO_DAY_LINES = re.compile(f"{_ISO_DAY}(?:\n{_ISO_DAY})*")
# csv.reader hands undecodable bytes through as lone surrogates (surrogateescape).
_UNDECODED = re.compile("[\udc80-\udcff]")
# Rows tokenised at a time by the bulk loader: its field strings live one block long.
_BLOCK_ROWS = 256


@dataclass(frozen=True)
class Bar:
    """One daily bar. Prices strictly positive, volume >= 0."""

    timestamp: date
    open: float
    high: float
    low: float
    close: float
    volume: float


# The bar rules in the order they are checked: (rule, mask over the (5, n)
# open/high/low/close/volume rows, or one (5,) bar, True where it is broken).
BAR_RULES = (
    ("non-finite field", lambda v: ~np.isfinite(v).all(axis=0)),
    ("price not strictly positive", lambda v: np.minimum(np.minimum(v[0], v[1]), np.minimum(v[2], v[3])) <= 0),
    ("negative volume", lambda v: v[4] < 0),
    ("low above min(open, close)", lambda v: v[2] > np.minimum(v[0], v[3])),
    ("high below max(open, close)", lambda v: v[1] < np.maximum(v[0], v[3])),
    ("low above high", lambda v: v[2] > v[1]),
)


def rule_mask(values: np.ndarray) -> np.ndarray:
    """Per bar of the (5, n) open/high/low/close/volume rows: True where a rule is broken."""
    return reduce(np.logical_or, (broken(values) for _, broken in BAR_RULES))


def _broken_rule(values: np.ndarray) -> str | None:
    """The first rule the (5,) open/high/low/close/volume bar breaks, or None."""
    return next((rule for rule, broken in BAR_RULES if broken(values)), None)


def bar_rule_violation(bar: Bar) -> str | None:
    """Return the violated invariant rule for ``bar``, or None if valid."""
    return _broken_rule(np.array([getattr(bar, f) for f in _FIELDS], dtype=float))


def _ordinals(days) -> np.ndarray:
    return np.fromiter(map(date.toordinal, days), np.int64)


def _invalid_rows(dates: np.ndarray, values: np.ndarray) -> np.ndarray:
    """True where a bar breaks a rule or its date is not after the previous one."""
    bad = rule_mask(values)
    bad[1:] |= dates[1:] <= dates[:-1]
    return bad


class OhlcvSeries:
    """Time-ordered daily bars for one symbol, held as read-only columns.

    ``OhlcvSeries(symbol, bars)`` checks on construction: timestamps strictly
    increasing (hence no duplicates), every bar valid, length >= 2.
    """

    __slots__ = ("symbol", "_dates", "_values")

    def __init__(self, symbol: str, bars):
        bars = tuple(bars)
        if len(bars) < 2:
            raise EmptySeries(f"{symbol}: need at least 2 bars, got {len(bars)}")
        dates = _ordinals(b.timestamp for b in bars)
        values = np.array([[getattr(b, f) for b in bars] for f in _FIELDS], dtype=float)
        bad = _invalid_rows(dates, values)
        if bad.any():
            i = int(bad.argmax())
            rule = _broken_rule(values[:, i])
            if rule is not None:
                raise InvariantViolation(None, f"bar {i} ({bars[i].timestamp}): {rule}")
            raise InvariantViolation(None, f"bar {i}: timestamps not strictly increasing")
        self._set(symbol, dates, values)

    @classmethod
    def _from_columns(cls, symbol: str, dates: np.ndarray, values: np.ndarray) -> OhlcvSeries:
        """A series over columns already known to be valid."""
        series = cls.__new__(cls)
        series._set(symbol, dates, values)
        return series

    def _set(self, symbol: str, dates: np.ndarray, values: np.ndarray) -> None:
        dates.flags.writeable = False
        values.flags.writeable = False
        self.symbol = symbol
        self._dates = dates
        self._values = values

    @property
    def bars(self) -> tuple[Bar, ...]:
        """The series as ``Bar``s, built on each access."""
        return tuple(map(Bar, self.dates(), *self._values.tolist()))

    def __len__(self) -> int:
        return len(self._dates)

    def __eq__(self, other) -> bool:
        if not isinstance(other, OhlcvSeries):
            return NotImplemented
        return (self.symbol == other.symbol and np.array_equal(self._dates, other._dates)
                and np.array_equal(self._values, other._values))

    def __repr__(self) -> str:
        first, last = map(date.fromordinal, self._dates[[0, -1]].tolist())
        return f"OhlcvSeries({self.symbol!r}, {len(self)} bars, {first}..{last})"

    def closes(self) -> np.ndarray:
        return self._values[3]

    def opens(self) -> np.ndarray:
        return self._values[0]

    def highs(self) -> np.ndarray:
        return self._values[1]

    def lows(self) -> np.ndarray:
        return self._values[2]

    def volumes(self) -> np.ndarray:
        return self._values[4]

    def dates(self) -> list[date]:
        return list(map(date.fromordinal, self._dates.tolist()))


def parse_date(text: str) -> date:
    """Exactly ``YYYY-MM-DD`` (CSV rows and config dates): ``date.fromisoformat``
    also takes ``20200102`` and ISO week dates from Python 3.11 on."""
    if not re.fullmatch(_ISO_DAY, text):
        raise ValueError(f"Invalid isoformat string: {text!r}")
    return date.fromisoformat(text)


def _parse_row(line_no: int, row: list[str]) -> Bar:
    if any(_UNDECODED.search(field) for field in row):
        raise MalformedRow(line_no, "not valid UTF-8")
    if len(row) != 6:
        raise MalformedRow(line_no, f"expected 6 fields, got {len(row)}")
    try:
        ts = parse_date(row[0].strip())
    except ValueError as exc:
        raise MalformedRow(line_no, f"bad date {row[0]!r}: {exc}") from exc
    numbers = []
    for field_name, text in zip(CSV_HEADER[1:], row[1:]):
        try:
            numbers.append(float(text))
        except ValueError as exc:
            raise MalformedRow(line_no, f"bad {field_name} {text!r}") from exc
    return Bar(ts, numbers[0], numbers[1], numbers[2], numbers[3], numbers[4])


def _is_header(row: list[str]) -> bool:
    return [field.strip() for field in row] == CSV_HEADER


def _bulk_columns(reader) -> tuple[np.ndarray, np.ndarray] | None:
    """Sorted dates and (5, n) values of a valid file with no blank-field
    rows, parsed column by column over blocks of rows; None for anything else."""
    if not _is_header(next(reader, [])):
        return None
    days, blocks = [], []
    while block := list(islice(reader, _BLOCK_ROWS)):
        body = [row for row in block if row]
        if set(map(len, body)) - {6}:
            return None
        fields = list(zip(*body)) or [()] * 6
        stamps = list(map(str.strip, fields[0]))
        if stamps and not _ISO_DAY_LINES.fullmatch("\n".join(stamps)):
            return None
        days.extend(map(date.fromisoformat, stamps))
        blocks.append(np.fromiter(map(float, chain.from_iterable(fields[1:])), float, 5 * len(body)).reshape(5, -1))
    if len(days) < 2:
        return None
    dates, values = _ordinals(days), np.concatenate(blocks, axis=1)
    order = np.argsort(dates, kind="stable")
    dates, values = dates[order], values[:, order]
    if _invalid_rows(dates, values).any():
        return None
    return dates, values


def _checked_bars(path: Path, reader) -> tuple[Bar, ...]:
    """Row-by-row load: the first failing line in file order raises; blank
    rows are skipped; bars come back sorted by date."""
    rows: list[tuple[int, Bar]] = []
    line_no = 0
    try:
        header = next(reader, None)
        if header is None:
            raise EmptySeries(f"{path}: empty file")
        if not _is_header(header):
            raise MalformedRow(1, f"expected header {','.join(CSV_HEADER)!r}, got {','.join(header)!r}")
        line_no = 1
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not field.strip() for field in row):
                continue
            bar = _parse_row(line_no, row)
            rule = bar_rule_violation(bar)
            if rule is not None:
                raise InvariantViolation(line_no, rule)
            rows.append((line_no, bar))
    except csv.Error as exc:  # raised while reading the record after line_no
        raise MalformedRow(line_no + 1, str(exc)) from None
    if len(rows) < 2:
        raise EmptySeries(f"{path}: {len(rows)} valid rows, need at least 2")
    rows.sort(key=lambda item: item[1].timestamp)
    for (_, prev), (line_no, cur) in zip(rows, rows[1:]):
        if cur.timestamp == prev.timestamp:
            raise InvariantViolation(line_no, f"duplicate date {cur.timestamp}")
    return tuple(bar for _, bar in rows)


def load_csv(path: str | Path, symbol: str | None = None) -> OhlcvSeries:
    """Load and validate an OHLCV CSV file.

    Rows are sorted by date if not already sorted. Blank rows are skipped.
    Raises MalformedRow for undecodable, untokenisable or unparsable rows,
    InvariantViolation (with the source line number) for bar-level
    violations or duplicate dates, EmptySeries for < 2 data rows. Each line
    is checked in turn (encoding, field count, date, numbers in column
    order, bar rules) and the first failing line in file order is reported.
    """
    path = Path(path)
    if symbol is None:
        symbol = path.stem
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            columns = _bulk_columns(csv.reader(handle))
    except (ValueError, csv.Error):  # a bad number or date; UnicodeDecodeError is a ValueError
        columns = None
    if columns is not None:
        return OhlcvSeries._from_columns(symbol, *columns)
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as handle:
        return OhlcvSeries(symbol, _checked_bars(path, csv.reader(handle)))


def save_csv(series: OhlcvSeries, path: str | Path) -> None:
    """Write the canonical CSV format (``\\r\\n`` line ends, ``repr`` floats).
    load_csv(save_csv(s)) == s."""
    days = map(date.isoformat, series.dates())
    rows = map(",".join, zip(days, *(map(repr, column) for column in series._values.tolist())))
    with atomic_open(path) as handle:
        handle.write("\r\n".join([",".join(CSV_HEADER), *rows, ""]))


def slice_by_date(series: OhlcvSeries, start: date, end: date) -> OhlcvSeries:
    """Bars with start <= timestamp < end, order preserved."""
    if start > end:
        raise ValueError(f"start {start} after end {end}")
    lo, hi = np.searchsorted(series._dates, [start.toordinal(), end.toordinal()])
    if hi - lo < 2:
        raise EmptySeries(f"{series.symbol}: {hi - lo} bars in [{start}, {end})")
    return OhlcvSeries._from_columns(series.symbol, series._dates[lo:hi], series._values[:, lo:hi])
