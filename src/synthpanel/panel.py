"""Panel data model: period calendar, dense country-by-period matrices,
transforms, and sample restrictions shared by every outcome, plus the
CSV row reader and UTC day offsets both inputs share."""

from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    ConfigurationError,
    DataError,
    InsufficientDonorsError,
    PanelRangeError,
    SchemaError,
)

DEFAULT_ANCHOR = dt.date(2018, 7, 1)
SUPPORTED_PERIOD_LENGTHS = (1, 7, 10, 28)

EPOCH = dt.date(1970, 1, 1)  # day number 0
_LAST_DAY = (dt.date(2100, 12, 31) - EPOCH).days


@dataclass(frozen=True)
class PeriodCalendar:
    """Maps UTC timestamps to integer period indices.

    Period t covers calendar days [anchor + t*L, anchor + (t+1)*L); the
    anchor date itself falls in period 0 and t = -1 is the block just
    before it.
    """

    anchor_date: dt.date = DEFAULT_ANCHOR
    period_length_days: int = 10

    def __post_init__(self):
        if self.period_length_days not in SUPPORTED_PERIOD_LENGTHS:
            raise ConfigurationError(
                f"period_length_days must be one of {SUPPORTED_PERIOD_LENGTHS}, "
                f"got {self.period_length_days}"
            )


def utf8_lines(path: Path | str) -> Iterator[str]:
    """Lines of a UTF-8 text file, line endings kept, less a leading byte
    order mark; other bytes are a DataError."""
    with open(path, encoding="utf-8-sig", newline="") as f:
        try:
            yield from f
        except UnicodeDecodeError:
            raise DataError(f"{path} is not UTF-8 text") from None


def csv_rows(path: Path | str, columns: tuple[str, ...], kind: str) -> Iterator[tuple[int, list[str]]]:
    """(row number, fields) of each data row of a UTF-8 CSV with header `columns`.

    Row 1 is the header; every later row must have one field per column.
    A malformed row, such as a field over the `csv` module's size limit,
    raises SchemaError with its row number. `kind` names the file when
    it is empty.
    """
    reader = csv.reader(utf8_lines(path))
    row_no = 0
    try:
        header = next(reader, None)
        row_no = 1
        if header is None:
            raise SchemaError(f"row 1: {kind} CSV is empty; header row required")
        if tuple(header) != columns:
            raise SchemaError(f"row 1: expected header {','.join(columns)}")
        for row in reader:
            row_no += 1
            if len(row) != len(columns):
                raise SchemaError(f"row {row_no}: expected {len(columns)} fields, got {len(row)}")
            yield row_no, row
    except csv.Error as exc:
        raise SchemaError(f"row {row_no + 1}: {exc}") from None


def day_offsets(days: np.ndarray, anchor: dt.date) -> np.ndarray:
    """Offsets from `anchor` of UTC day numbers, as int64.

    A day number counts UTC calendar days since 1970-01-01, so under any
    calendar anchored at `anchor` a day's period is its offset
    floor-divided by the period length. Days outside 1970-2100 raise
    PanelRangeError.
    """
    days = np.asarray(days, dtype=np.int64)
    outside = (days < 0) | (days > _LAST_DAY)
    if outside.any():
        raise _out_of_range(int(days[outside.argmax()]))
    return days - (anchor - EPOCH).days


def window_periods(window_days: tuple[int, int], length: int) -> tuple[int, int]:
    """The (t_min, t_max) periods of length `length` covering a window in days.

    `window_days` is (pre_days, post_days): the days [-pre_days,
    post_days) around the anchor. The periods round the window out to
    whole periods, so each length covers at least the same days.
    """
    pre_days, post_days = window_days
    return (-pre_days) // length, -(-post_days // length) - 1  # -ceil, ceil - 1


def _out_of_range(day: int, what: str = "timestamp") -> PanelRangeError:
    try:
        when = (EPOCH + dt.timedelta(days=day)).isoformat()
    except OverflowError:  # a UTC day can fall one day outside years 1-9999
        when = f"{day} days from 1970-01-01"
    return PanelRangeError(f"{what} {when} outside supported range 1970-2100")


@dataclass(frozen=True, eq=False)
class PanelSeries:
    """Dense country-by-period outcome matrix.

    Absent counts are zeros, never missing cells. `flagged` marks cells
    whose value was forced to 0 by a zero denominator (proportions only).
    """

    outcome_name: str
    countries: tuple[str, ...]
    periods: tuple[int, ...]
    values: np.ndarray
    flagged: np.ndarray | None = None
    _country_index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (len(self.countries), len(self.periods)):
            raise DataError(
                f"panel shape {values.shape} does not match "
                f"{len(self.countries)} countries x {len(self.periods)} periods"
            )
        if len(set(self.countries)) != len(self.countries):
            raise DataError("duplicate country codes in panel")
        if any(b - a != 1 for a, b in zip(self.periods, self.periods[1:])):
            raise DataError("panel periods must be a contiguous integer range")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if self.flagged is not None:
            flagged = np.asarray(self.flagged, dtype=bool)
            if flagged.shape != values.shape:
                raise DataError("flag mask shape does not match values")
            flagged.setflags(write=False)
            object.__setattr__(self, "flagged", flagged)
        object.__setattr__(
            self, "_country_index", {c: i for i, c in enumerate(self.countries)}
        )

    @property
    def t_min(self) -> int:
        return self.periods[0]

    @property
    def t_max(self) -> int:
        return self.periods[-1]

    def country_index(self, country: str) -> int:
        try:
            return self._country_index[country]
        except KeyError:
            raise DataError(f"country {country!r} not in panel") from None

    def country_rows(self, countries: Sequence[str]) -> list[int]:
        """Row indices of `countries`, in order; DataError for the first not in the panel."""
        try:
            return [self._country_index[country] for country in countries]
        except KeyError as exc:
            raise DataError(f"country {exc.args[0]!r} not in panel") from None

    def period_index(self, t: int) -> int:
        if not self.t_min <= t <= self.t_max:
            raise PanelRangeError(f"period {t} outside panel range {self.t_min}..{self.t_max}")
        return t - self.t_min

    def series(self, country: str) -> np.ndarray:
        return self.values[self.country_index(country)]

    def value(self, country: str, t: int) -> float:
        return float(self.values[self.country_index(country), self.period_index(t)])

    def select_countries(self, keep: Sequence[str]) -> "PanelSeries":
        rows = self.country_rows(keep)
        return PanelSeries(
            outcome_name=self.outcome_name,
            countries=tuple(keep),
            periods=self.periods,
            values=self.values[rows],
            flagged=None if self.flagged is None else self.flagged[rows],
        )

    def log1p(self) -> "PanelSeries":
        """Log of one plus the level, elementwise."""
        if np.any(self.values < 0):
            raise DataError("log1p transform requires nonnegative levels")
        return PanelSeries(
            outcome_name=self.outcome_name,
            countries=self.countries,
            periods=self.periods,
            values=np.log1p(self.values),
            flagged=self.flagged,
        )


@dataclass(frozen=True)
class SampleRestriction:
    """Which countries stay in the estimation sample.

    Keeps countries whose average unique active users per period lie in
    the top `parameter` share. The event outcome's restriction to
    countries observed in both event datasets happens when the event
    panel is built.
    """

    parameter: float = 0.8

    def __post_init__(self):
        if not 0.0 < self.parameter <= 1.0:
            raise ConfigurationError("restriction parameter must be in (0, 1]")


def restrict_sample(panel: PanelSeries, restriction: SampleRestriction) -> PanelSeries:
    """Drop countries outside the restriction, preserving panel order.

    Operates on a levels panel of unique active users. Retention quota is
    ceil(parameter * n); ties at the cutoff average are kept.
    """
    averages = panel.values.mean(axis=1)
    n = len(panel.countries)
    quota = min(n, max(1, math.ceil(restriction.parameter * n)))
    threshold = np.sort(averages)[::-1][quota - 1] if n else 0.0
    keep = [c for c, avg in zip(panel.countries, averages) if avg >= threshold]
    if len(keep) < 3:
        raise InsufficientDonorsError(
            f"sample restriction retains {len(keep)} countries; need at least 3"
        )
    return panel.select_countries(keep)


def normalize_at_reference(
    target: np.ndarray,
    comparison: np.ndarray,
    periods: Sequence[int],
    t_ref: int = -1,
) -> np.ndarray:
    """Shift `comparison` so it equals `target` at the reference period.

    Both series are aligned to `periods`. The target is untouched; the
    returned series is comparison + (target[t_ref] - comparison[t_ref]).
    """
    target = np.asarray(target, dtype=float)
    comparison = np.asarray(comparison, dtype=float)
    periods = list(periods)
    if target.shape != comparison.shape or len(target) != len(periods):
        raise DataError("series and period axis lengths disagree")
    if t_ref not in periods:
        raise PanelRangeError(f"reference period {t_ref} not in series range")
    i = periods.index(t_ref)
    return comparison + (target[i] - comparison[i])
