import datetime as dt
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthpanel import classify
from synthpanel.classify import (
    APPLE_SOURCE,
    COLLECTIVE,
    INFREQUENT,
    NEW_ACCOUNT,
    OUTCOME_NAMES,
    POLITICAL,
    STUDENT,
    TAX,
    PhraseLexicon,
    ascii_lower,
    bot_filter,
    load_lexicons,
    match_phrases,
    read_tweets_csv,
    tweet_table,
    twitter_outcomes,
    user_period_flags,
)
from synthpanel.demo import CorpusSpec, write_corpus
from synthpanel.errors import ConfigurationError, PanelRangeError, SchemaError
from synthpanel.panel import PeriodCalendar
from oracles import Tweet, first_tweets, infrequent, period, read_tweets, write_tweets

UTC = dt.timezone.utc
CAL10 = PeriodCalendar()
DATA = Path(__file__).parent / "data"

LEX = load_lexicons()


def columns_of(tweets):
    """The tweets written as a tweet CSV and read back by the program."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "tweets.csv"
        write_tweets(path, tweets)
        return read_tweets_csv(path)


def table_of(records, anchor=CAL10.anchor_date):
    return tweet_table(columns_of(records), LEX, anchor)


def flags_of(records, cal=CAL10):
    return user_period_flags(table_of(records, cal.anchor_date), cal)


def panels_of(records, cal=CAL10, periods=None):
    table = table_of(records, cal.anchor_date)
    return twitter_outcomes(user_period_flags(table, cal), table, periods=periods)


class TestLexicons:
    def test_collective_political_disjoint(self):
        assert not set(LEX["collective"].phrases) & set(LEX["political"].phrases)

    def test_bot_lexicon_exact(self):
        assert set(LEX["bot"].phrases) == {"weather", "4:20", "job", "career", "hire", "hiring"}

    def test_apple_lexicon_exact(self):
        assert set(LEX["apple_source"].phrases) == {"ios", "ipad", "iphone"}

    def test_space_sensitive_phrases_preserved(self):
        assert " mp " in LEX["political"].phrases
        assert " mps " in LEX["political"].phrases
        assert " law " in LEX["political"].phrases
        assert " riot" in LEX["collective"].phrases
        assert " freedom of assembly " in LEX["collective"].phrases

    def test_uppercase_phrase_rejected(self):
        with pytest.raises(ConfigurationError):
            PhraseLexicon(name="x", phrases=("Bad",))

    def test_line_break_in_phrase_rejected(self):
        with pytest.raises(ConfigurationError, match="line break"):
            PhraseLexicon(name="x", phrases=("join\nus",))

    def test_overlapping_lexicons_rejected(self, tmp_path):
        src = Path(__file__).parents[1] / "src" / "synthpanel" / "lexicons" / "v1"
        for name in ("collective", "political", "bot", "apple_source", "student"):
            (tmp_path / f"{name}.txt").write_text(
                (src / f"{name}.txt").read_text(encoding="utf-8"), encoding="utf-8"
            )
        (tmp_path / "political.txt").write_text("protest\n", encoding="utf-8")
        with pytest.raises(ConfigurationError):
            load_lexicons(tmp_path)


class TestMatchPhrases:
    def test_uppercase_protest_matches(self):
        assert match_phrases("Join the PROTEST tomorrow", LEX["collective"])

    def test_empty_text(self):
        assert not match_phrases("", LEX["collective"])

    def test_champion_does_not_contain_spaced_mp(self):
        # independent substring check: no " mp " with flanking spaces
        assert " mp " not in ascii_lower("champion")
        assert not match_phrases("champion", LEX["political"])

    def test_spaced_mp_matches(self):
        assert match_phrases("our MP said so", LEX["political"])

    def test_riot_needs_leading_space(self):
        assert not match_phrases("patriots assemble", LEX["collective"])
        assert match_phrases("the riot began", LEX["collective"])

    def test_ascii_only_lowercasing(self):
        # dotted capital I must not fold into a plain i
        assert ascii_lower("İos device") == "İos device"
        assert not match_phrases("VİOLENCE", LEX["collective"])


class TestColumnMatcher:
    """`classify._matches` over a column agrees with `match_phrases` per text."""

    @staticmethod
    def matches(texts, lexicon):
        return classify._matches(np.array(texts, dtype=object), lexicon.phrases).tolist()

    @pytest.mark.parametrize("texts, name", [
        (["join the prot", "est"], "collective"),
        (["our", "mp said"], "political"),
        (["our MP", " said"], "political"),
    ])
    def test_adjacent_texts_never_form_one_phrase(self, texts, name):
        # joined by nothing or by a space, the two texts would hold a phrase
        assert any(match_phrases(sep.join(texts), LEX[name]) for sep in ("", " "))
        assert self.matches(texts, LEX[name]) == [False, False]
        # nor do adjacent tweets of the table
        bits = table_of([Tweet(tweet_id=str(i), text=t) for i, t in enumerate(texts)]).bits
        assert (bits & (COLLECTIVE | POLITICAL)).tolist() == [0, 0]

    def test_regex_metacharacters_are_literal(self):
        lexicon = PhraseLexicon(name="meta", phrases=("c++", "a.b", "(x", "\\d"))
        texts = ["c++", "cc", "C++ code", "a.b", "axb", "(x", "x)", "\\d", "7", "", "a.b\n(x"]
        expected = [match_phrases(t, lexicon) for t in texts]
        assert expected == [True, False, True, True, False, True, False, True, False, False, True]
        assert self.matches(texts, lexicon) == expected

    def test_empty_lexicon_matches_nothing(self):
        lexicon = PhraseLexicon(name="none", phrases=())
        assert self.matches(["protest", ""], lexicon) == [False, False]


class TestBotFilter:
    def test_hiring_description_dropped(self):
        kept = bot_filter(columns_of([Tweet(user_description="Hiring now!")]), LEX)
        assert len(kept) == 0

    def test_benign_description_kept(self):
        tweet = Tweet(user_description="Kampala resident")
        assert bot_filter(columns_of([tweet]), LEX).user_description.tolist() == [
            "Kampala resident"
        ]

    def test_bot_phrase_in_text_is_ignored(self):
        tweet = Tweet(text="lovely weather in Kampala")
        assert bot_filter(columns_of([tweet]), LEX).text.tolist() == ["lovely weather in Kampala"]

    @given(
        st.lists(
            st.sampled_from(
                ["Hiring now", "weather bot", "job alerts", "Kampala resident", "", "runner"]
            ),
            max_size=30,
        )
    )
    def test_count_oracle(self, descriptions):
        records = [
            Tweet(tweet_id=f"t{i}", user_description=d)
            for i, d in enumerate(descriptions)
        ]
        n_bots = sum(
            1 for d in descriptions
            if any(p in d.lower() for p in ("weather", "4:20", "job", "career", "hire", "hiring"))
        )
        assert len(bot_filter(columns_of(records), LEX)) == len(records) - n_bots


class TestUserPeriodFlags:
    def test_infrequent_long_lived_low_count(self):
        created = dt.datetime(2017, 5, 28, tzinfo=UTC)  # 400 days before the tweet
        tweet = Tweet(
            timestamp=dt.datetime(2018, 7, 2, 10, 0, tzinfo=UTC),
            user_created_at=created,
            statuses_count=100,
        )
        assert (flags_of([tweet]).bits & INFREQUENT != 0).tolist() == [True]

    def test_same_day_zero_statuses_is_infrequent(self):
        created = dt.datetime(2018, 7, 2, 0, 0, tzinfo=UTC)
        tweet = Tweet(
            timestamp=dt.datetime(2018, 7, 2, 10, 0, tzinfo=UTC),
            user_created_at=created,
            statuses_count=0,
        )
        assert (flags_of([tweet]).bits & INFREQUENT != 0).tolist() == [True]  # 0 / max(1, 0) < 1

    def test_same_day_several_statuses_not_infrequent(self):
        created = dt.datetime(2018, 7, 2, 0, 0, tzinfo=UTC)
        tweet = Tweet(
            timestamp=dt.datetime(2018, 7, 2, 10, 0, tzinfo=UTC),
            user_created_at=created,
            statuses_count=3,
        )
        assert (flags_of([tweet]).bits & INFREQUENT != 0).tolist() == [False]

    def test_infrequent_fixed_at_first_appearance(self):
        created = dt.datetime(2018, 1, 1, tzinfo=UTC)
        first = Tweet(
            tweet_id="a",
            timestamp=dt.datetime(2018, 6, 1, tzinfo=UTC),
            user_created_at=created,
            statuses_count=10,  # 10 / 151 days: infrequent
        )
        later = Tweet(
            tweet_id="b",
            timestamp=dt.datetime(2018, 7, 2, tzinfo=UTC),
            user_created_at=created,
            statuses_count=100000,  # would be frequent if re-evaluated
        )
        assert (flags_of([later, first]).bits & INFREQUENT != 0).tolist() == [True, True]

    def test_apple_source_flags_per_period(self):
        apple = Tweet(
            tweet_id="a",
            timestamp=dt.datetime(2018, 6, 25, tzinfo=UTC),
            source="Twitter for iPhone",
        )
        web = Tweet(
            tweet_id="b",
            timestamp=dt.datetime(2018, 7, 2, tzinfo=UTC),
            source="Twitter Web Client",
        )
        flags = flags_of([apple, web])
        assert flags.period.tolist() == [-1, 0]
        assert (flags.bits & APPLE_SOURCE == 0).tolist() == [False, True]

    def test_new_account_in_creation_period_only(self):
        created = dt.datetime(2018, 6, 28, tzinfo=UTC)
        early = Tweet(
            tweet_id="a",
            timestamp=dt.datetime(2018, 6, 29, tzinfo=UTC),
            user_created_at=created,
            statuses_count=1,
        )
        late = Tweet(
            tweet_id="b",
            timestamp=dt.datetime(2018, 7, 3, tzinfo=UTC),
            user_created_at=created,
            statuses_count=5,
        )
        flags = flags_of([early, late])
        assert flags.period.tolist() == [-1, 0]
        assert (flags.bits & NEW_ACCOUNT != 0).tolist() == [True, False]

    def test_student_from_location(self):
        tweet = Tweet(user_location="University of Nairobi")
        assert (flags_of([tweet]).bits & STUDENT != 0).tolist() == [True]

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_first_seen_tie_broken_by_tweet_id_string(self, order):
        created = dt.datetime(2018, 1, 1, tzinfo=UTC)
        same = dt.datetime(2018, 6, 1, tzinfo=UTC)
        tweets = [
            # "10" sorts before "9" as a string, so it is the first tweet
            Tweet(tweet_id="9", timestamp=same, user_created_at=created,
                       statuses_count=100000),
            Tweet(tweet_id="10", timestamp=same, user_created_at=created,
                       statuses_count=10),
        ]
        flags = flags_of([tweets[i] for i in order])
        assert (flags.bits & INFREQUENT != 0).tolist() == [True]

    def test_calendar_must_share_the_table_anchor(self):
        table = table_of([Tweet()])
        with pytest.raises(ConfigurationError):
            user_period_flags(table, PeriodCalendar(anchor_date=dt.date(2018, 7, 2)))


class TestTweetTable:
    def test_day_offsets_and_codes(self):
        records = [
            Tweet(tweet_id="a", user_id="u2", country_code="UG",
                       timestamp=dt.datetime(2018, 6, 30, 23, 59, tzinfo=UTC)),
            Tweet(tweet_id="b", user_id="u1", country_code="KE",
                       timestamp=dt.datetime(2018, 7, 11, tzinfo=UTC)),
        ]
        table = table_of(records)
        assert table.countries == ("KE", "UG")
        assert table.country.tolist() == [1, 0]
        assert table.user.tolist() == [1, 0]
        assert table.day.tolist() == [-1, 10]
        assert table.created_day.tolist() == [-546, -546]

    def test_each_text_is_classified(self):
        every = Tweet(
            tweet_id="a", text="Protest the TAX, says our MP ", source="Twitter for iPhone",
            user_description="student", user_location="",
        )
        # "tax" counts only inside a collective text
        plain = Tweet(tweet_id="b", text="the tax went up", user_location="university")
        table = table_of([every, plain])
        assert table.bits.tolist() == [
            APPLE_SOURCE | STUDENT | COLLECTIVE | POLITICAL | TAX, STUDENT,
        ]

    def test_no_tweets_give_an_empty_table(self):
        table = tweet_table(bot_filter(columns_of([]), LEX), LEX, CAL10.anchor_date)
        assert table.countries == ()
        for column in (table.day, table.created_day, table.user, table.country, table.bits,
                       table.infrequent):
            assert len(column) == 0
        assert table.bits.dtype == np.uint8

    @pytest.mark.parametrize("field, value", [
        ("timestamp", dt.datetime(2101, 1, 1, tzinfo=UTC)),
        ("user_created_at", dt.datetime(1969, 12, 31, tzinfo=UTC)),
    ])
    def test_dates_outside_supported_range(self, field, value):
        tweet = Tweet(**{field: value})
        with pytest.raises(PanelRangeError, match="outside supported range"):
            table_of([tweet])


class TestTwitterOutcomes:
    def test_hand_counted_small_cell(self):
        records = [
            Tweet(tweet_id="a", user_id="u1", text="protest now"),
            Tweet(tweet_id="b", user_id="u1", text="nothing much"),
            Tweet(tweet_id="c", user_id="u2", text="hello"),
        ]
        panels = panels_of(records)
        assert panels["users"].value("UG", 0) == 2
        assert panels["tweets"].value("UG", 0) == 3
        assert panels["collective_tweets"].value("UG", 0) == 1
        assert panels["prop_collective_tweets"].value("UG", 0) == pytest.approx(1 / 3)

    def test_tax_mention_counts_inside_collective(self):
        records = [
            Tweet(tweet_id="a", user_id="u1", text="ThisTaxMustGo protest"),
            Tweet(tweet_id="b", user_id="u2", text="rally today"),
        ]
        panels = panels_of(records)
        assert panels["tax_mention_share"].value("UG", 0) == pytest.approx(0.5)

    def test_zero_denominator_flagged(self):
        records = [Tweet(text="no phrases here")]
        panels = panels_of(records, periods=(-1, 0))
        share = panels["tax_mention_share"]
        assert share.value("UG", 0) == 0.0
        assert share.flagged is not None
        assert share.flagged[0, share.period_index(0)]
        assert not panels["prop_collective_users"].flagged[0, 1]

    def test_proportions_bounded(self):
        records = [
            Tweet(tweet_id=f"t{i}", user_id=f"u{i % 3}", text=text)
            for i, text in enumerate(["protest", "rally", "vote", "hi", "boycott them"])
        ]
        panels = panels_of(records)
        for name in ("prop_collective_users", "prop_collective_tweets", "tax_mention_share"):
            values = panels[name].values
            assert (values >= 0).all() and (values <= 1).all()
        assert (
            panels["activist_users"].values <= panels["users"].values
        ).all()
        assert (
            panels["collective_tweets"].values <= panels["tweets"].values
        ).all()


    def test_inverted_period_range_refused(self):
        with pytest.raises(PanelRangeError):
            panels_of([Tweet()], periods=(1, 0))


def reference_panels(records, cal):
    """Every outcome cell counted record by record, without the tweet table."""
    first = first_tweets(records)
    groups = {}
    counts = {name: Counter() for name in OUTCOME_NAMES}
    tax = Counter()
    for r in records:
        cell = (r.country_code, period(r.timestamp, cal))
        groups.setdefault((r.user_id, cell), []).append(r)
        collective = match_phrases(r.text, LEX["collective"])
        counts["tweets"][cell] += 1
        counts["collective_tweets"][cell] += collective
        counts["political_tweets"][cell] += match_phrases(r.text, LEX["political"])
        tax[cell] += collective and "tax" in ascii_lower(r.text)
    for (user, cell), tweets in groups.items():
        f = first[user]
        counts["users"][cell] += 1
        counts["new_accounts"][cell] += (
            min(period(t.user_created_at, cal) for t in tweets) == cell[1]
        )
        counts["infrequent_users"][cell] += infrequent(f)
        counts["not_apple_users"][cell] += not any(
            match_phrases(t.source, LEX["apple_source"]) for t in tweets
        )
        counts["student_users"][cell] += any(
            match_phrases(t.user_description, LEX["student"])
            or match_phrases(t.user_location, LEX["student"])
            for t in tweets
        )
        counts["activist_users"][cell] += any(
            match_phrases(t.text, LEX["collective"]) for t in tweets
        )
        counts["political_users"][cell] += any(
            match_phrases(t.text, LEX["political"]) for t in tweets
        )
    for name, numer, denom in (
        ("prop_collective_users", counts["activist_users"], counts["users"]),
        ("prop_collective_tweets", counts["collective_tweets"], counts["tweets"]),
        ("tax_mention_share", tax, counts["collective_tweets"]),
    ):
        counts[name] = {cell: numer[cell] / denom[cell] for cell in denom if denom[cell]}
    return counts


PARITY_SPEC = CorpusSpec(
    countries=("UG", "KE", "GH", "RW"), pre_days=60, post_days=30, base_users=4.0, seed=5,
)


def reference_bot_filter(records):
    return [r for r in records if not match_phrases(r.user_description, LEX["bot"])]


@pytest.fixture(scope="module")
def parity_corpus(tmp_path_factory):
    """The parity corpus's bot-filtered tweets: program columns and per-row records."""
    path = tmp_path_factory.mktemp("parity")
    write_corpus(path, PARITY_SPEC)
    return (
        bot_filter(read_tweets_csv(path / "tweets.csv"), LEX),
        reference_bot_filter(read_tweets(path / "tweets.csv")),
    )


@pytest.mark.parametrize("level", [1, 7, 10, 28])
@pytest.mark.parametrize("window", ["data", "clipped"])
def test_panels_match_per_record_counts(parity_corpus, level, window):
    tweets, parity_records = parity_corpus
    cal = PeriodCalendar(anchor_date=PARITY_SPEC.anchor, period_length_days=level)
    table = tweet_table(tweets, LEX, cal.anchor_date)
    periods = None if window == "data" else (-30 // level, 15 // level)
    panels = twitter_outcomes(user_period_flags(table, cal), table, periods=periods)
    if periods is None:
        ts = [period(r.timestamp, cal) for r in parity_records]
        periods = (min(ts), max(ts))
    expected = reference_panels(parity_records, cal)
    countries = tuple(sorted({r.country_code for r in parity_records}))
    lo, hi = periods
    for name in OUTCOME_NAMES:
        panel = panels[name]
        assert panel.countries == countries and panel.periods == tuple(range(lo, hi + 1)), name
        want = np.array([[expected[name].get((c, t), 0) for t in panel.periods] for c in countries])
        assert np.array_equal(panel.values, want), name
    for name, denom in (("prop_collective_users", "users"),
                        ("prop_collective_tweets", "tweets"),
                        ("tax_mention_share", "collective_tweets")):
        assert np.array_equal(panels[name].flagged, panels[denom].values == 0), name
    # the corpus exercises every flag
    assert all(panels[name].values.any() for name in OUTCOME_NAMES)


# Expected outcome table for the committed 20-tweet fixture, computed by
# hand from the raw rows (bots u03/u07/u11 dropped; see tweets_fixture.csv).
FIXTURE_EXPECTED = {
    "users": {("UG", -1): 3, ("UG", 0): 5, ("KE", -1): 3, ("KE", 0): 3},
    "new_accounts": {("UG", -1): 1, ("UG", 0): 2, ("KE", -1): 0, ("KE", 0): 0},
    "infrequent_users": {("UG", -1): 2, ("UG", 0): 3, ("KE", -1): 1, ("KE", 0): 1},
    "not_apple_users": {("UG", -1): 2, ("UG", 0): 5, ("KE", -1): 2, ("KE", 0): 2},
    "student_users": {("UG", -1): 1, ("UG", 0): 2, ("KE", -1): 0, ("KE", 0): 0},
    "activist_users": {("UG", -1): 1, ("UG", 0): 2, ("KE", -1): 2, ("KE", 0): 2},
    "political_users": {("UG", -1): 0, ("UG", 0): 3, ("KE", -1): 0, ("KE", 0): 0},
    "tweets": {("UG", -1): 3, ("UG", 0): 6, ("KE", -1): 4, ("KE", 0): 4},
    "collective_tweets": {("UG", -1): 1, ("UG", 0): 2, ("KE", -1): 2, ("KE", 0): 3},
    "political_tweets": {("UG", -1): 0, ("UG", 0): 3, ("KE", -1): 0, ("KE", 0): 0},
    "prop_collective_users": {
        ("UG", -1): 1 / 3, ("UG", 0): 2 / 5, ("KE", -1): 2 / 3, ("KE", 0): 2 / 3,
    },
    "prop_collective_tweets": {
        ("UG", -1): 1 / 3, ("UG", 0): 2 / 6, ("KE", -1): 2 / 4, ("KE", 0): 3 / 4,
    },
    "tax_mention_share": {
        ("UG", -1): 0.0, ("UG", 0): 1 / 2, ("KE", -1): 0.0, ("KE", 0): 1 / 3,
    },
}


def fixture_panels():
    table = tweet_table(bot_filter(read_tweets_csv(DATA / "tweets_fixture.csv"), LEX), LEX,
                        CAL10.anchor_date)
    return twitter_outcomes(user_period_flags(table, CAL10), table)


def test_fixture_golden_table():
    panels = fixture_panels()
    for outcome, cells in FIXTURE_EXPECTED.items():
        for (country, period), expected in cells.items():
            got = panels[outcome].value(country, period)
            assert got == pytest.approx(expected, abs=1e-12), (outcome, country, period)


def test_classification_is_order_independent():
    records = bot_filter(read_tweets_csv(DATA / "tweets_fixture.csv"), LEX)
    forward = tweet_table(records, LEX, CAL10.anchor_date)
    backward = tweet_table(records.take(np.arange(len(records))[::-1]), LEX, CAL10.anchor_date)
    flags_forward = user_period_flags(forward, CAL10)
    flags_reversed = user_period_flags(backward, CAL10)
    for column in ("user", "country", "period", "bits"):
        assert np.array_equal(getattr(flags_forward, column), getattr(flags_reversed, column)), column
    panels_a = twitter_outcomes(flags_forward, forward)
    panels_b = twitter_outcomes(flags_reversed, backward)
    for name in panels_a:
        assert (panels_a[name].values == panels_b[name].values).all(), name


def test_fixture_drops_exactly_the_bots():
    records = read_tweets_csv(DATA / "tweets_fixture.csv")
    kept = bot_filter(records, LEX)
    assert len(records) == 20
    assert set(records.user_id) - set(kept.user_id) == {"u03", "u07", "u11"}


class TestTweetCsvSchema:
    def test_fixture_parses(self):
        records = read_tweets_csv(DATA / "tweets_fixture.csv")
        assert len(records) == 20
        assert records.text[11] == "Nice weather today, friends"

    def test_missing_statuses_rejected_with_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        header = DATA.joinpath("tweets_fixture.csv").read_text().splitlines()[0]
        path.write_text(
            header + "\n"
            "t1,u1,2018-07-02T10:00:00Z,UG,hi,web,2017-01-01T00:00:00Z,,d,l,en,en\n"
        )
        with pytest.raises(SchemaError, match="row 2"):
            read_tweets_csv(path)

    def test_bad_country_code(self, tmp_path):
        path = tmp_path / "bad.csv"
        header = DATA.joinpath("tweets_fixture.csv").read_text().splitlines()[0]
        path.write_text(
            header + "\n"
            "t1,u1,2018-07-02T10:00:00Z,UGA,hi,web,2017-01-01T00:00:00Z,5,d,l,en,en\n"
        )
        with pytest.raises(SchemaError, match="row 2"):
            read_tweets_csv(path)

    def test_tweet_before_account_creation(self, tmp_path):
        path = tmp_path / "bad.csv"
        header = DATA.joinpath("tweets_fixture.csv").read_text().splitlines()[0]
        path.write_text(
            header + "\n"
            "t1,u1,2016-07-02T10:00:00Z,UG,hi,web,2017-01-01T00:00:00Z,5,d,l,en,en\n"
        )
        with pytest.raises(SchemaError, match="row 2"):
            read_tweets_csv(path)

    def test_field_past_the_csv_size_limit_reports_its_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        header = DATA.joinpath("tweets_fixture.csv").read_text().splitlines()[0]
        path.write_text(
            header + "\n"
            "t1,u1,2018-07-02T10:00:00Z,UG,hi,web,2017-01-01T00:00:00Z,5,d,l,en,en\n"
            't2,u1,2018-07-02T10:00:00Z,UG,"' + "x\n" * 70_000 + '",web,2017-01-01T00:00:00Z,5,d,l,en,en\n'
        )
        with pytest.raises(SchemaError, match=r"^row 3: field larger than field limit \(131072\)$"):
            read_tweets_csv(path)

    def test_repeated_bad_creation_time_reports_its_first_row(self, tmp_path):
        # each distinct creation time is parsed once; a bad one still raises on its first row
        path = tmp_path / "bad.csv"
        header = DATA.joinpath("tweets_fixture.csv").read_text().splitlines()[0]
        path.write_text(header + "\n" + "".join(
            f"t{i},u1,2018-07-02T10:00:00Z,UG,hi,web,{created},5,d,l,en,en\n"
            for i, created in enumerate(["2017-01-01T00:00:00Z", "2017-13-01T00:00:00Z", "2017-13-01T00:00:00Z"])
        ))
        with pytest.raises(SchemaError, match=r"^row 3: column user_created_at is not an ISO-8601 timestamp"):
            read_tweets_csv(path)

    def test_repeated_creation_time_gives_every_row_its_value(self, tmp_path):
        path = tmp_path / "tweets.csv"
        header = DATA.joinpath("tweets_fixture.csv").read_text().splitlines()[0]
        created = ["2017-01-01T00:00:00Z", "2017-01-01T00:00:00+03:00", "2017-01-01T00:00:00Z"]
        path.write_text(header + "\n" + "".join(
            f"t{i},u{i},2018-07-02T10:00:00Z,UG,hi,web,{c},5,d,l,en,en\n" for i, c in enumerate(created)
        ))
        day = 17167 * 86_400_000_000  # 2017-01-01 in microseconds since 1970
        assert read_tweets_csv(path).user_created_at.tolist() == [day, day - 3 * 3_600_000_000, day]

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(SchemaError, match="row 1"):
            read_tweets_csv(path)



CAL1 = PeriodCalendar(period_length_days=1)
_EPOCH = dt.datetime(1970, 1, 1, tzinfo=UTC)
# tweets at a few instants around the anchor, so (timestamp, user) ties are common
_INSTANTS = st.sampled_from([
    dt.datetime(2018, 6, 30, 23, 30), dt.datetime(2018, 7, 1, 0, 30),
    dt.datetime(2018, 7, 1, 0, 30, 0, 7),
])
_AGES = st.builds(lambda days, seconds: dt.timedelta(days=days, seconds=seconds),
                  st.integers(0, 400), st.sampled_from([0, 1, 3600]))
# naive, Z, or a fixed UTC offset in hours
_ZONES = st.sampled_from([None, "Z", 0, 3, -5.5, 14])
_PIECES = ["protest", "Tax", " mp ", "İos", "hi", ",", '"', "\n", "\r\n", "\x00", " "]


def iso(instant: dt.datetime, zone) -> str:
    """The naive UTC `instant` written naive, with Z, or at an offset of `zone` hours."""
    if zone is None or zone == "Z":
        return instant.isoformat() + (zone or "")
    offset = dt.timezone(dt.timedelta(hours=zone))
    return instant.replace(tzinfo=UTC).astimezone(offset).isoformat()


@st.composite
def tweet_rows(draw):
    """One valid tweet row of raw strings, the language columns left out."""
    timestamp = draw(_INSTANTS)
    return (
        draw(st.sampled_from(["9", "10", "a", "a\x00"])),
        draw(st.sampled_from(["u1", "u2", "u3"])),
        iso(timestamp, draw(_ZONES)),
        draw(st.sampled_from(["UG", "ke", "Gh"])),
        "".join(draw(st.lists(st.sampled_from(_PIECES), max_size=5))),
        draw(st.sampled_from(["Twitter for iPhone", "web", "iPad app"])),
        iso(timestamp - draw(_AGES), draw(_ZONES)),
        str(draw(st.one_of(st.integers(0, 500), st.just(10**20)))),
        draw(st.sampled_from(["", "Hiring now", "student at MUK", "runner"])),
        draw(st.sampled_from(["", "University", "Kampala\nnorth"])),
    )


def reference_bits(r) -> int:
    collective = match_phrases(r.text, LEX["collective"])
    return (
        APPLE_SOURCE * match_phrases(r.source, LEX["apple_source"])
        | STUDENT * (match_phrases(r.user_description, LEX["student"])
                     or match_phrases(r.user_location, LEX["student"]))
        | COLLECTIVE * collective
        | TAX * (collective and "tax" in ascii_lower(r.text))
        | POLITICAL * match_phrases(r.text, LEX["political"])
    )


@given(st.lists(tweet_rows(), max_size=25))
@settings(max_examples=150)
def test_columnar_reader_and_table_match_per_row_reference(rows):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "tweets.csv"
        write_tweets(path, rows)
        columns = read_tweets_csv(path)
        records = read_tweets(path)
    assert len(columns) == len(records) == len(rows)
    for name in ("tweet_id", "user_id", "country_code", "text", "source",
                 "user_description", "user_location"):
        assert getattr(columns, name).tolist() == [getattr(r, name) for r in records], name
    for name in ("timestamp", "user_created_at"):
        instants = [_EPOCH + dt.timedelta(microseconds=int(us)) for us in getattr(columns, name)]
        assert instants == [getattr(r, name) for r in records], name
    assert columns.statuses_count.tolist() == [min(r.statuses_count, 2**63 - 1) for r in records]

    kept = reference_bot_filter(records)
    table = tweet_table(bot_filter(columns, LEX), LEX, CAL10.anchor_date)
    users = sorted({r.user_id for r in kept})
    countries = sorted({r.country_code for r in kept})
    first = first_tweets(kept)
    assert table.countries == tuple(countries)
    assert table.user.tolist() == [users.index(r.user_id) for r in kept]
    assert table.country.tolist() == [countries.index(r.country_code) for r in kept]
    assert table.day.tolist() == [period(r.timestamp, CAL1) for r in kept]
    assert table.created_day.tolist() == [period(r.user_created_at, CAL1) for r in kept]
    assert table.bits.tolist() == [reference_bits(r) for r in kept]
    assert table.infrequent.tolist() == [infrequent(first[u]) for u in users]
