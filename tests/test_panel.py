import datetime as dt
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import Event, Tweet, write_events, write_tweets
from synthpanel.classify import load_lexicons, read_tweets_csv, tweet_table
from synthpanel.errors import (
    DataError,
    InsufficientDonorsError,
    PanelRangeError,
)
from synthpanel.events import event_panel, read_events_csv
from synthpanel.panel import (
    PanelSeries,
    PeriodCalendar,
    SampleRestriction,
    normalize_at_reference,
    restrict_sample,
)

UTC = dt.timezone.utc
CAL10 = PeriodCalendar()
LEX = load_lexicons()


def ts(*args):
    return dt.datetime(*args, tzinfo=UTC)


def period_of(timestamp: dt.datetime, cal: PeriodCalendar) -> int:
    """The period of a tweet at `timestamp`, through the tweet reader and table."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "tweets.csv"
        write_tweets(path, [Tweet(timestamp=timestamp, user_created_at=timestamp)])
        table = tweet_table(read_tweets_csv(path), LEX, cal.anchor_date)
    return int(table.day[0]) // cal.period_length_days


def event_columns(cells, period_days: int = 1):
    """Events read back from a CSV: `count` per dataset on the first day of
    each (country, period, count) cell, periods counted from 2018-07-01."""
    events = []
    for country, t, count in cells:
        day = CAL10.anchor_date + dt.timedelta(days=t * period_days)
        events += [Event("ACLED", country, day, "Riots/protests"),
                   Event("ICEWS", country, day, "Protest")] * count
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "events.csv"
        write_events(path, events)
        return read_events_csv(path)


def count_panel(cells, cal: PeriodCalendar, periods=None) -> PanelSeries:
    """The event panel of (country, period, count) cells."""
    return event_panel(event_columns(cells, cal.period_length_days), cal, periods=periods)


def panel(values, countries=("UG",), periods=(0,)) -> PanelSeries:
    return PanelSeries("y", countries, periods, np.asarray(values, dtype=float))


class TestAssignPeriod:
    """A timestamp's period: its UTC calendar day's offset from the anchor, floored."""

    def test_anchor_day_is_period_zero(self):
        assert period_of(ts(2018, 7, 1, 0, 0), CAL10) == 0

    def test_minute_before_anchor_is_minus_one(self):
        assert period_of(ts(2018, 6, 30, 23, 59), CAL10) == -1

    def test_seven_day_hand_count(self):
        # days 0..24 since the anchor: floor(24 / 7) = 3
        cal = PeriodCalendar(period_length_days=7)
        assert period_of(ts(2018, 7, 25, 12, 0), cal) == 3

    def test_out_of_range_timestamp(self):
        with pytest.raises(PanelRangeError):
            period_of(ts(1969, 12, 31), CAL10)
        with pytest.raises(PanelRangeError):
            period_of(ts(2101, 1, 1), CAL10)

    def test_naive_timestamp_treated_as_utc(self):
        assert period_of(dt.datetime(2018, 7, 1, 5, 0), CAL10) == 0

    def test_nonutc_timezone_converted(self):
        # 02:00 UTC+3 on the anchor day is 23:00 UTC the day before
        eat = dt.timezone(dt.timedelta(hours=3))
        assert period_of(dt.datetime(2018, 7, 1, 2, 0, tzinfo=eat), CAL10) == -1

    @given(
        day=st.integers(min_value=-3000, max_value=3000),
        hour=st.integers(min_value=0, max_value=23),
        k=st.integers(min_value=-40, max_value=40),
        length=st.sampled_from([1, 7, 10, 28]),
    )
    def test_translation_consistency(self, day, hour, k, length):
        cal = PeriodCalendar(period_length_days=length)
        base = ts(2018, 7, 1, hour) + dt.timedelta(days=day)
        shifted = base + dt.timedelta(days=k * length)
        assert period_of(shifted, cal) == period_of(base, cal) + k


class TestBuildPanel:
    """Count panels: dense cells over a contiguous range, and their log1p."""

    def test_log1p_of_zero(self):
        assert panel([[0.0]]).log1p().value("UG", 0) == 0.0

    def test_log1p_of_nine(self):
        assert panel([[9.0]]).log1p().value("UG", 0) == pytest.approx(math.log(10), abs=1e-15)

    def test_negative_count_rejected(self):
        with pytest.raises(DataError):
            panel([[-1.0]]).log1p()

    def test_cells_without_records_are_zero(self):
        built = count_panel([("UG", -2, 5), ("KE", 1, 3)], CAL10)
        assert built.periods == (-2, -1, 0, 1)
        assert built.value("UG", -2) == 5.0
        assert built.value("UG", 0) == 0.0
        assert built.value("KE", -1) == 0.0

    def test_forced_range_drops_outside_records(self):
        built = count_panel([("UG", -5, 9), ("UG", 0, 4)], CAL10, periods=(-1, 1))
        assert built.periods == (-1, 0, 1)
        assert built.value("UG", 0) == 4.0
        assert built.value("UG", -1) == 0.0

    @given(
        records=st.lists(
            st.tuples(
                st.sampled_from(["UG", "KE", "TZ"]),
                st.integers(min_value=-5, max_value=5),
                st.integers(min_value=1, max_value=5),
            ),
            min_size=1,
            max_size=20,
            unique_by=lambda r: (r[0], r[1]),
        ),
        data=st.randoms(),
    )
    def test_order_invariance(self, records, data):
        a = count_panel(list(records), CAL10)
        shuffled = list(records)
        data.shuffle(shuffled)
        b = count_panel(shuffled, CAL10)
        assert a.countries == b.countries
        assert a.periods == b.periods
        assert np.array_equal(a.values, b.values)

    @given(
        st.lists(st.integers(min_value=0, max_value=1000), min_size=2, max_size=2),
    )
    def test_log1p_monotone(self, pair):
        lo, hi = sorted(pair)
        logged = panel([[lo], [hi]], countries=("UG", "KE")).log1p()
        assert logged.value("UG", 0) <= logged.value("KE", 0)


def test_one_day_counts_resum_to_ten_day():
    """Sum-consistency oracle: daily cell counts re-blocked by hand must
    equal the ten-day pipeline output."""
    rng = np.random.default_rng(3)
    cal1 = PeriodCalendar(period_length_days=1)
    daily: dict = {}
    for _ in range(300):
        cell = (str(rng.choice(["UG", "KE"])), int(rng.integers(-40, 40)))
        daily[cell] = daily.get(cell, 0) + int(rng.integers(0, 7))
    events = event_columns([(c, t, v) for (c, t), v in daily.items()])
    panel1 = event_panel(events, cal1)
    panel10 = event_panel(events, PeriodCalendar(period_length_days=10))
    for country in panel10.countries:
        for t10 in panel10.periods:
            block = [
                panel1.value(country, t1)
                for t1 in range(t10 * 10, (t10 + 1) * 10)
                if panel1.t_min <= t1 <= panel1.t_max
            ]
            assert sum(block) == panel10.value(country, t10)


class TestRestrictSample:
    @staticmethod
    def panel_with_averages(averages):
        countries = tuple(f"C{i:02d}" for i in range(len(averages)))
        values = np.tile(np.asarray(averages, dtype=float)[:, None], (1, 4))
        return PanelSeries("users", countries, (-2, -1, 0, 1), values)

    def test_exact_quota(self):
        panel = self.panel_with_averages(range(10, 0, -1))
        kept = restrict_sample(panel, SampleRestriction(parameter=0.8))
        assert len(kept.countries) == 8
        assert kept.countries == panel.countries[:8]

    def test_all_equal_all_retained(self):
        panel = self.panel_with_averages([7.0] * 6)
        kept = restrict_sample(panel, SampleRestriction(parameter=0.5))
        assert kept.countries == panel.countries

    def test_too_few_retained(self):
        panel = self.panel_with_averages([5.0, 1.0, 1.0])
        with pytest.raises(InsufficientDonorsError):
            restrict_sample(panel, SampleRestriction(parameter=0.1))

    @given(st.lists(st.integers(min_value=0, max_value=100), min_size=5, max_size=15))
    @settings(max_examples=60)
    def test_against_sort_and_cut_oracle(self, averages):
        panel = self.panel_with_averages(averages)
        parameter = 0.8
        kept = restrict_sample(panel, SampleRestriction(parameter=parameter))
        # independent oracle: sort (average, country) pairs and keep every
        # country tied with or above the quota cutoff
        pairs = sorted(zip(averages, panel.countries), key=lambda p: -p[0])
        quota = math.ceil(parameter * len(pairs))
        cutoff = pairs[quota - 1][0]
        expected = {c for avg, c in pairs if avg >= cutoff}
        assert set(kept.countries) == expected


class TestNormalizeAtReference:
    periods = (-3, -2, -1, 0, 1)

    def test_identical_series_zero_shift(self):
        target = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        shifted = normalize_at_reference(target, target, self.periods)
        assert np.array_equal(shifted, target)

    def test_shift_amount(self):
        target = np.array([0.0, 0.0, 2.0, 0.0, 0.0])
        comparison = np.array([1.0, 1.0, 5.0, 1.0, 1.0])
        shifted = normalize_at_reference(target, comparison, self.periods)
        assert np.array_equal(shifted, comparison - 3.0)

    def test_reference_outside_range(self):
        series = np.zeros(5)
        with pytest.raises(PanelRangeError):
            normalize_at_reference(series, series, self.periods, t_ref=7)

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=10,
            max_size=10,
        ),
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=10,
            max_size=10,
        ),
    )
    def test_matches_target_at_reference(self, a, b):
        periods = tuple(range(-5, 5))
        shifted = normalize_at_reference(np.array(a), np.array(b), periods, t_ref=-1)
        assert shifted[4] == pytest.approx(a[4], rel=0, abs=1e-6)


class TestPanelSeriesValidation:
    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            PanelSeries("y", ("UG",), (0, 1), np.zeros((2, 2)))

    def test_duplicate_countries(self):
        with pytest.raises(DataError):
            PanelSeries("y", ("UG", "UG"), (0, 1), np.zeros((2, 2)))

    def test_noncontiguous_periods(self):
        with pytest.raises(DataError):
            PanelSeries("y", ("UG",), (0, 2), np.zeros((1, 2)))

    def test_values_are_read_only(self):
        panel = PanelSeries("y", ("UG",), (0, 1), np.zeros((1, 2)))
        with pytest.raises(ValueError):
            panel.values[0, 0] = 1.0

    def test_window_and_select(self):
        panel = PanelSeries("y", ("UG", "KE"), (-2, -1, 0), np.arange(6.0).reshape(2, 3))
        sub = panel.select_countries(["KE"])
        assert sub.countries == ("KE",)
        assert list(sub.values[0]) == [3.0, 4.0, 5.0]
