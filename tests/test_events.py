import datetime as dt
import tempfile
from pathlib import Path

import numpy as np
import pytest

from synthpanel.errors import ConfigurationError, SchemaError
from oracles import Event, period, write_events
from synthpanel.events import event_panel, read_events_csv
from synthpanel.panel import PeriodCalendar

CAL10 = PeriodCalendar()
DATA = Path(__file__).parent / "data"


def protest(dataset, country, date):
    return Event(dataset, country, date, "Riots/protests" if dataset == "ACLED" else "Protest")


def ev(dataset, country, day, month=6, year=2018):
    return protest(dataset, country, dt.date(year, month, day))


def columns_of(events):
    """The events written as an event CSV and read back by the program."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "events.csv"
        write_events(path, events)
        return read_events_csv(path)


def panel_of(events, cal=CAL10, periods=None):
    return event_panel(columns_of(events), cal, periods=periods)


class TestEventPanel:
    def test_average_of_two_datasets(self):
        records = [ev("ACLED", "UG", 25)] * 3 + [ev("ICEWS", "UG", 24)]
        records += [ev("ACLED", "KE", 25), ev("ICEWS", "KE", 26)]
        panel = panel_of(records)
        assert panel.value("UG", -1) == 2.0  # (3 + 1) / 2

    def test_country_in_one_dataset_excluded(self):
        records = [
            ev("ACLED", "UG", 25), ev("ICEWS", "UG", 26),
            ev("ACLED", "TZ", 25),
        ]
        panel = panel_of(records)
        assert "TZ" not in panel.countries
        assert "UG" in panel.countries

    def test_missing_dataset_is_configuration_error(self):
        with pytest.raises(ConfigurationError):
            panel_of([ev("ACLED", "UG", 25)])

    def test_order_and_interleaving_invariance(self):
        records = [
            ev("ACLED", "UG", 25), ev("ICEWS", "UG", 24),
            ev("ACLED", "KE", 22), ev("ICEWS", "KE", 23),
            ev("ACLED", "UG", 26), ev("ICEWS", "KE", 2, month=7),
        ]
        a = panel_of(records)
        b = panel_of(list(reversed(records)))
        assert a.countries == b.countries
        assert np.array_equal(a.values, b.values)

    def test_log1p_against_two_pass_oracle(self):
        rng = np.random.default_rng(11)
        records = []
        for _ in range(200):
            dataset = str(rng.choice(["ACLED", "ICEWS"]))
            country = str(rng.choice(["UG", "KE", "GH"]))
            date = dt.date(2018, 7, 1) + dt.timedelta(days=int(rng.integers(-30, 30)))
            records.append(protest(dataset, country, date))
        panel = panel_of(records).log1p()
        # oracle: recount both datasets independently, average, then log
        for country in panel.countries:
            for t in panel.periods:
                acled = sum(
                    1 for r in records
                    if r.dataset == "ACLED" and r.country_code == country
                    and period(r.date, CAL10) == t
                )
                icews = sum(
                    1 for r in records
                    if r.dataset == "ICEWS" and r.country_code == country
                    and period(r.date, CAL10) == t
                )
                assert panel.value(country, t) == pytest.approx(
                    np.log1p((acled + icews) / 2), abs=1e-12
                )

    def test_average_bounded_by_dataset_counts(self):
        rng = np.random.default_rng(4)
        records = []
        for _ in range(150):
            dataset = str(rng.choice(["ACLED", "ICEWS"]))
            records.append(
                protest(dataset, "UG", dt.date(2018, 7, 1) + dt.timedelta(days=int(rng.integers(0, 20))))
            )
        records.append(ev("ICEWS", "UG", 25))
        panel = panel_of(records)
        for t in panel.periods:
            acled = sum(
                1 for r in records
                if r.dataset == "ACLED" and period(r.date, CAL10) == t
            )
            icews = sum(
                1 for r in records
                if r.dataset == "ICEWS" and period(r.date, CAL10) == t
            )
            avg = panel.value("UG", t)
            assert avg <= max(acled, icews)
            assert avg >= min(acled, icews) / 2


class TestEventRecordInvariants:
    """Each dataset keeps only its own protest label."""

    def test_acled_wrong_type_rejected(self):
        assert len(columns_of([Event("ACLED", "UG", dt.date(2018, 7, 1), "Protest")])) == 0

    def test_icews_wrong_type_rejected(self):
        assert len(columns_of([Event("ICEWS", "UG", dt.date(2018, 7, 1), "Riots/protests")])) == 0


class TestEventCsv:
    def test_fixture_filtering(self):
        events = read_events_csv(DATA / "events_fixture.csv")
        # 11 rows: one non-protest ACLED and one non-protest ICEWS dropped
        assert len(events) == 9
        assert events.dataset.tolist() == [0, 0, 1, 0, 1, 1, 0, 1, 0]  # ACLED 0, ICEWS 1

    def test_fixture_panel_values(self):
        panel = event_panel(read_events_csv(DATA / "events_fixture.csv"), CAL10, periods=(-2, 0))
        assert panel.countries == ("KE", "UG")
        assert panel.value("UG", -1) == 1.5  # ACLED 2, ICEWS 1
        assert panel.value("UG", 0) == 1.5   # ACLED 1, ICEWS 2
        assert panel.value("KE", -1) == 0.5
        assert panel.value("KE", 0) == 0.5
        assert panel.value("UG", -2) == 0.0

    def test_icews_label_normalized(self, tmp_path):
        path = tmp_path / "ev.csv"
        path.write_text(
            "dataset,country_code,date,event_type\n"
            "ICEWS,UG,2018-07-02,protests\n"
            "ACLED,UG,2018-07-03,Riots/protests\n"
        )
        events = read_events_csv(path)
        assert events.dataset.tolist() == [1, 0]  # ICEWS, ACLED: both kept
        assert events.day.tolist() == [17714, 17715]

    def test_bad_dataset_rejected(self, tmp_path):
        path = tmp_path / "ev.csv"
        path.write_text("dataset,country_code,date,event_type\nGDELT,UG,2018-07-02,Protest\n")
        with pytest.raises(SchemaError, match="row 2"):
            read_events_csv(path)

    def test_bad_date_rejected(self, tmp_path):
        path = tmp_path / "ev.csv"
        path.write_text("dataset,country_code,date,event_type\nACLED,UG,July 2,Riots/protests\n")
        with pytest.raises(SchemaError, match="row 2"):
            read_events_csv(path)
