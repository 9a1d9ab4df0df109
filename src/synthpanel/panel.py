"""Panel data model: period calendar, dense country-by-period matrices,
transforms, and sample restrictions shared by every outcome."""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    AggregationError,
    ConfigurationError,
    DataError,
    InsufficientDonorsError,
    PanelRangeError,
)

DEFAULT_ANCHOR = dt.date(2018, 7, 1)
SUPPORTED_PERIOD_LENGTHS = (1, 7, 10, 28)

_MIN_DATE = dt.date(1970, 1, 1)
_MAX_DATE = dt.date(2100, 12, 31)


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

    def period_start(self, t: int) -> dt.date:
        return self.anchor_date + dt.timedelta(days=t * self.period_length_days)


def _as_utc_date(timestamp: dt.datetime | dt.date) -> dt.date:
    if isinstance(timestamp, dt.datetime):
        if timestamp.tzinfo is not None:
            timestamp = timestamp.astimezone(dt.timezone.utc)
        return timestamp.date()
    return timestamp


def assign_period(timestamp: dt.datetime | dt.date, cal: PeriodCalendar) -> int:
    """Integer period index of a UTC timestamp under `cal`.

    Day differences are taken on UTC calendar dates, so a timestamp at
    23:59 the day before the anchor lands in period -1.
    """
    day = _as_utc_date(timestamp)
    if not _MIN_DATE <= day <= _MAX_DATE:
        raise _out_of_range(day)
    return (day - cal.anchor_date).days // cal.period_length_days


def day_offsets(timestamps: Iterable[dt.datetime | dt.date], anchor: dt.date) -> np.ndarray:
    """UTC calendar-day offsets of timestamps from `anchor`, as int64.

    Days are taken as in `assign_period`, so under any calendar anchored
    at `anchor` a timestamp's period is its offset floor-divided by the
    period length. Dates outside 1970-2100 raise PanelRangeError.
    """
    days = np.array([(_as_utc_date(t) - anchor).days for t in timestamps], dtype=np.int64)
    outside = (days < (_MIN_DATE - anchor).days) | (days > (_MAX_DATE - anchor).days)
    if outside.any():
        raise _out_of_range(anchor + dt.timedelta(days=int(days[outside.argmax()])))
    return days


def _out_of_range(day: dt.date) -> PanelRangeError:
    return PanelRangeError(f"timestamp {day.isoformat()} outside supported range 1970-2100")


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

    def period_index(self, t: int) -> int:
        if not self.t_min <= t <= self.t_max:
            raise PanelRangeError(f"period {t} outside panel range {self.t_min}..{self.t_max}")
        return t - self.t_min

    def series(self, country: str) -> np.ndarray:
        return self.values[self.country_index(country)]

    def value(self, country: str, t: int) -> float:
        return float(self.values[self.country_index(country), self.period_index(t)])

    def select_countries(self, keep: Sequence[str]) -> "PanelSeries":
        rows = [self.country_index(c) for c in keep]
        return PanelSeries(
            outcome_name=self.outcome_name,
            countries=tuple(keep),
            periods=self.periods,
            values=self.values[rows],
            flagged=None if self.flagged is None else self.flagged[rows],
        )

    def window(self, t_min: int, t_max: int) -> "PanelSeries":
        if t_min > t_max:
            raise PanelRangeError(f"empty window {t_min}..{t_max}")
        if t_min < self.t_min or t_max > self.t_max:
            raise PanelRangeError(
                f"window {t_min}..{t_max} outside panel range {self.t_min}..{self.t_max}"
            )
        lo = self.period_index(t_min)
        hi = self.period_index(t_max) + 1
        return PanelSeries(
            outcome_name=self.outcome_name,
            countries=self.countries,
            periods=self.periods[lo:hi],
            values=self.values[:, lo:hi],
            flagged=None if self.flagged is None else self.flagged[:, lo:hi],
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


def build_panel(
    records: Iterable[tuple[str, int, float]],
    cal: PeriodCalendar,
    transform: str = "level",
    periods: tuple[int, int] | None = None,
    outcome_name: str = "",
) -> PanelSeries:
    """Assemble a dense PanelSeries from (country, period, count) triples.

    Counts must be pre-summed per cell; a duplicate (country, period) pair
    raises AggregationError. Cells without a record are zero. `periods`
    forces the (t_min, t_max) range, otherwise it is inferred from the
    records; records outside a forced range are dropped.
    """
    if transform not in ("level", "log1p"):
        raise ConfigurationError(f"unknown transform {transform!r}")
    cells: dict[tuple[str, int], float] = {}
    for country, t, count in records:
        if count < 0:
            raise DataError(f"negative count {count} for ({country}, {t})")
        key = (country, int(t))
        if key in cells:
            raise AggregationError(f"duplicate cell for country {country}, period {t}")
        cells[key] = float(count)
    if periods is None:
        if not cells:
            raise DataError("no records and no explicit period range")
        ts = [t for _, t in cells]
        t_min, t_max = min(ts), max(ts)
    else:
        t_min, t_max = periods
        if t_min > t_max:
            raise PanelRangeError(f"empty period range {t_min}..{t_max}")
        cells = {(c, t): v for (c, t), v in cells.items() if t_min <= t <= t_max}
    countries = tuple(sorted({c for c, _ in cells}))
    values = np.zeros((len(countries), t_max - t_min + 1))
    for (country, t), count in cells.items():
        values[countries.index(country), t - t_min] = count
    panel = PanelSeries(
        outcome_name=outcome_name,
        countries=countries,
        periods=tuple(range(t_min, t_max + 1)),
        values=values,
    )
    return panel.log1p() if transform == "log1p" else panel


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
