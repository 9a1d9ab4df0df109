"""Collective-action event outcome built from two event datasets averaged
per country-period."""

from __future__ import annotations

import csv
import datetime as dt
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigurationError, PanelRangeError, SchemaError
from .panel import PanelSeries, PeriodCalendar, assign_period

DATASETS = ("ACLED", "ICEWS")
EVENT_CSV_COLUMNS = ("dataset", "country_code", "date", "event_type")

_ACLED_KEEP = "Riots/protests"
_ICEWS_KEEP = "Protest"


@dataclass(frozen=True)
class EventRecord:
    """One protest or riot event; only the retained event types exist here."""

    dataset: str
    country_code: str
    date: dt.date
    event_type: str

    def __post_init__(self):
        if self.dataset not in DATASETS:
            raise SchemaError(f"unknown dataset {self.dataset!r}")
        expected = _ACLED_KEEP if self.dataset == "ACLED" else _ICEWS_KEEP
        if self.event_type != expected:
            raise SchemaError(
                f"{self.dataset} records must have event_type {expected!r}"
            )


def _normalize_type(dataset: str, raw: str) -> str | None:
    """Map raw labels to the retained type, or None to drop the record."""
    if dataset == "ACLED":
        return _ACLED_KEEP if raw == _ACLED_KEEP else None
    if raw.strip().lower() in ("protest", "protests"):
        return _ICEWS_KEEP
    return None


def read_events_csv(path: Path | str) -> list[EventRecord]:
    """Parse the event CSV schema; rows of non-protest types are dropped."""
    records = []
    with open(path, encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("row 1: event CSV is empty; header row required")
        if tuple(header) != EVENT_CSV_COLUMNS:
            raise SchemaError(f"row 1: expected header {','.join(EVENT_CSV_COLUMNS)}")
        for row_no, row in enumerate(reader, start=2):
            if len(row) != len(EVENT_CSV_COLUMNS):
                raise SchemaError(f"row {row_no}: expected {len(EVENT_CSV_COLUMNS)} fields")
            dataset, country, date_raw, event_type = row
            if dataset not in DATASETS:
                raise SchemaError(f"row {row_no}: dataset must be ACLED or ICEWS, got {dataset!r}")
            if len(country) != 2 or not country.isascii() or not country.isalpha():
                raise SchemaError(f"row {row_no}: country_code {country!r} is not two ASCII letters")
            try:
                date = dt.date.fromisoformat(date_raw)
            except ValueError:
                raise SchemaError(f"row {row_no}: date {date_raw!r} is not ISO-8601")
            kept = _normalize_type(dataset, event_type)
            if kept is None:
                continue
            records.append(
                EventRecord(
                    dataset=dataset,
                    country_code=country.upper(),
                    date=date,
                    event_type=kept,
                )
            )
    return records


def event_panel(
    records: Sequence[EventRecord] | Iterable[EventRecord],
    cal: PeriodCalendar,
    transform: str = "level",
    periods: tuple[int, int] | None = None,
) -> PanelSeries:
    """Average of the two datasets' per-cell event counts.

    Countries must appear in both datasets anywhere in the sample; the
    transform (level or log1p) is applied after averaging.
    """
    records = list(records)
    present = {r.dataset for r in records}
    missing = [d for d in DATASETS if d not in present]
    if missing:
        raise ConfigurationError(
            f"event dataset(s) entirely absent from input: {', '.join(missing)}"
        )
    counts: dict[str, dict[tuple[str, int], int]] = {d: {} for d in DATASETS}
    countries_by_dataset: dict[str, set[str]] = {d: set() for d in DATASETS}
    ts = []
    for r in records:
        t = assign_period(dt.datetime(r.date.year, r.date.month, r.date.day, tzinfo=dt.timezone.utc), cal)
        ts.append(t)
        countries_by_dataset[r.dataset].add(r.country_code)
        cell = (r.country_code, t)
        counts[r.dataset][cell] = counts[r.dataset].get(cell, 0) + 1
    both = countries_by_dataset["ACLED"] & countries_by_dataset["ICEWS"]
    if periods is None:
        periods = (min(ts), max(ts))
    lo, hi = periods
    if lo > hi:
        raise PanelRangeError(f"empty period range {lo}..{hi}")
    countries = tuple(sorted(both))
    values = np.zeros((len(countries), hi - lo + 1))
    for dataset in DATASETS:
        for (c, t), n in counts[dataset].items():
            if c in both and lo <= t <= hi:
                values[countries.index(c), t - lo] += 0.5 * n
    panel = PanelSeries(
        outcome_name="events",
        countries=countries,
        periods=tuple(range(lo, hi + 1)),
        values=values,
    )
    return panel.log1p() if transform == "log1p" else panel
