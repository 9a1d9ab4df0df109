"""Collective-action event outcome built from two event datasets averaged
per country-period."""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, PanelRangeError, SchemaError
from .panel import EPOCH, PanelSeries, PeriodCalendar, csv_rows, day_offsets

DATASETS = ("ACLED", "ICEWS")
EVENT_CSV_COLUMNS = ("dataset", "country_code", "date", "event_type")

_ACLED_KEEP = "Riots/protests"


@dataclass(frozen=True, eq=False)
class EventColumns:
    """Retained protest events as columns, one entry per event.

    `dataset` indexes DATASETS, `country` holds upper-case country codes
    and `day` the UTC day number (days since 1970-01-01) of each event.
    """

    dataset: np.ndarray
    country: np.ndarray
    day: np.ndarray

    def __len__(self) -> int:
        return len(self.day)


def _retained(dataset: str, event_type: str) -> bool:
    """ACLED keeps its exact riot/protest label, ICEWS any protest label."""
    if dataset == "ACLED":
        return event_type == _ACLED_KEEP
    return event_type.strip().lower() in ("protest", "protests")


def read_events_csv(path: Path | str) -> EventColumns:
    """Parse the event CSV schema; rows of non-protest types are dropped."""
    rows = []
    for row_no, (dataset, country, date_raw, event_type) in csv_rows(path, EVENT_CSV_COLUMNS, "event"):
        if dataset not in DATASETS:
            raise SchemaError(f"row {row_no}: dataset must be ACLED or ICEWS, got {dataset!r}")
        if len(country) != 2 or not country.isascii() or not country.isalpha():
            raise SchemaError(f"row {row_no}: country_code {country!r} is not two ASCII letters")
        try:
            date = dt.date.fromisoformat(date_raw)
        except ValueError:
            raise SchemaError(f"row {row_no}: date {date_raw!r} is not ISO-8601")
        if _retained(dataset, event_type):
            rows.append((DATASETS.index(dataset), country.upper(), (date - EPOCH).days))
    dataset, country, day = zip(*rows) if rows else ((), (), ())
    return EventColumns(
        dataset=np.array(dataset, dtype=np.int64),
        country=np.array(country, dtype=object),
        day=np.array(day, dtype=np.int64),
    )


def event_panel(
    events: EventColumns,
    cal: PeriodCalendar,
    periods: tuple[int, int] | None = None,
) -> PanelSeries:
    """Average of the two datasets' per-cell event counts, in levels.

    Countries must appear in both datasets anywhere in the sample.
    `periods` forces the (t_min, t_max) range, otherwise it spans the
    events.
    """
    missing = [d for i, d in enumerate(DATASETS) if not (events.dataset == i).any()]
    if missing:
        raise ConfigurationError(
            f"event dataset(s) entirely absent from input: {', '.join(missing)}"
        )
    period = day_offsets(events.day, cal.anchor_date) // cal.period_length_days
    if periods is None:
        periods = (int(period.min()), int(period.max()))
    lo, hi = periods
    if lo > hi:
        raise PanelRangeError(f"empty period range {lo}..{hi}")
    acled, icews = (set(events.country[events.dataset == i]) for i in range(len(DATASETS)))
    countries = tuple(sorted(acled & icews))
    code = {c: i for i, c in enumerate(countries)}
    row = np.array([code.get(c, -1) for c in events.country], dtype=np.int64)
    keep = (row >= 0) & (lo <= period) & (period <= hi)
    width = hi - lo + 1
    counts = np.bincount(row[keep] * width + period[keep] - lo, minlength=len(countries) * width)
    return PanelSeries(
        outcome_name="events",
        countries=countries,
        periods=tuple(range(lo, hi + 1)),
        values=0.5 * counts.reshape(len(countries), width),
    )
