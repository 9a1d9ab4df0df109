"""Tweet classification: lexicon matching, bot filtering, the columnar
tweet table, per-user-period flags, and the per-country-period Twitter
outcome panels."""

from __future__ import annotations

import csv
import datetime as dt
import string
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigurationError, DataError, PanelRangeError, SchemaError
from .panel import PanelSeries, PeriodCalendar, day_offsets

_ASCII_LOWER = str.maketrans(string.ascii_uppercase, string.ascii_lowercase)

LEXICON_NAMES = ("collective", "political", "bot", "apple_source", "student")
DEFAULT_LEXICON_DIR = Path(__file__).parent / "lexicons" / "v1"

TWEET_CSV_COLUMNS = (
    "tweet_id",
    "user_id",
    "timestamp",
    "country_code",
    "text",
    "source",
    "user_created_at",
    "statuses_count",
    "user_description",
    "user_location",
    "user_lang",
    "tweet_lang",
)

USER_COUNT_OUTCOMES = (
    "users",
    "new_accounts",
    "infrequent_users",
    "not_apple_users",
    "student_users",
    "activist_users",
    "political_users",
)
TWEET_COUNT_OUTCOMES = ("tweets", "collective_tweets", "political_tweets")
PROPORTION_OUTCOMES = ("prop_collective_users", "prop_collective_tweets", "tax_mention_share")
OUTCOME_NAMES = USER_COUNT_OUTCOMES + TWEET_COUNT_OUTCOMES + PROPORTION_OUTCOMES


def ascii_lower(text: str) -> str:
    """Lowercase A-Z only; Unicode case folding is deliberately not applied."""
    return text.translate(_ASCII_LOWER)


@dataclass(frozen=True)
class PhraseLexicon:
    """Named list of exact lowercase phrases; embedded spaces are significant."""

    name: str
    phrases: tuple[str, ...]

    def __post_init__(self):
        for p in self.phrases:
            if not p:
                raise ConfigurationError(f"lexicon {self.name!r} contains an empty phrase")
            if p != ascii_lower(p):
                raise ConfigurationError(
                    f"lexicon {self.name!r} phrase {p!r} is not ASCII-lowercase"
                )


def load_lexicon(path: Path | str, name: str) -> PhraseLexicon:
    """Read one phrase per line; only the trailing newline is stripped."""
    phrases = []
    with open(path, encoding="utf-8", newline="") as f:
        for line in f:
            phrase = line.rstrip("\r\n")
            if phrase:
                phrases.append(phrase)
    return PhraseLexicon(name=name, phrases=tuple(phrases))


def load_lexicons(directory: Path | str | None = None) -> dict[str, PhraseLexicon]:
    """Load the full lexicon set and verify collective/political disjointness."""
    directory = Path(directory) if directory is not None else DEFAULT_LEXICON_DIR
    lexicons = {}
    for name in LEXICON_NAMES:
        path = directory / f"{name}.txt"
        if not path.is_file():
            raise ConfigurationError(f"missing lexicon file {path}")
        lexicons[name] = load_lexicon(path, name)
    overlap = set(lexicons["collective"].phrases) & set(lexicons["political"].phrases)
    if overlap:
        raise ConfigurationError(
            f"collective and political lexicons overlap: {sorted(overlap)}"
        )
    return lexicons


def match_phrases(text: str, lexicon: PhraseLexicon) -> bool:
    """True iff the ASCII-lowercased text contains any phrase as a substring."""
    low = ascii_lower(text)
    return any(p in low for p in lexicon.phrases)


@dataclass(frozen=True)
class TweetRecord:
    """One georeferenced tweet with the user metadata carried at tweet time."""

    tweet_id: str
    user_id: str
    timestamp: dt.datetime
    country_code: str
    text: str
    source: str
    user_created_at: dt.datetime
    statuses_count: int
    user_description: str
    user_location: str
    user_lang: str
    tweet_lang: str


# bits of TweetTable.bits: lexicon hits of one tweet
APPLE_SOURCE = 1  # source
STUDENT = 2  # user description or location
COLLECTIVE = 4  # text
POLITICAL = 8  # text
TAX = 16  # "tax" in a collective text


@dataclass(frozen=True, eq=False)
class TweetTable:
    """Bot-filtered tweets as columns, each text classified once.

    Row i is one tweet: `day` and `created_day` are the UTC day offsets
    of the tweet and of its account's creation from `anchor_date`,
    `user` and `country` are integer codes (`country` indexes the sorted
    `countries`), and `bits` is its lexicon bitmask. `infrequent` is
    indexed by user code and fixed at the user's first tweet.
    """

    anchor_date: dt.date
    countries: tuple[str, ...]
    day: np.ndarray
    created_day: np.ndarray
    user: np.ndarray
    country: np.ndarray
    bits: np.ndarray
    infrequent: np.ndarray


@dataclass(frozen=True, eq=False)
class UserPeriodFlags:
    """Classification flags per (user, country, period) of one calendar.

    Columns hold one entry per group of a user's tweets in one
    country-period, ordered by (user code, country code, period);
    `tweet_period` is the period of each table row.
    """

    tweet_period: np.ndarray
    user: np.ndarray
    country: np.ndarray
    period: np.ndarray
    new_account: np.ndarray
    infrequent: np.ndarray
    not_apple: np.ndarray
    student: np.ndarray
    activist: np.ndarray
    political: np.ndarray


def _parse_timestamp(raw: str, row: int, column: str) -> dt.datetime:
    try:
        parsed = dt.datetime.fromisoformat(raw.replace("Z", "+00:00"))
    except ValueError:
        raise SchemaError(f"row {row}: column {column} is not an ISO-8601 timestamp: {raw!r}")
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=dt.timezone.utc)
    return parsed.astimezone(dt.timezone.utc)


def read_tweets_csv(path: Path | str) -> list[TweetRecord]:
    """Parse the tweet CSV schema (RFC 4180, header required, UTF-8)."""
    records = []
    with open(path, encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("row 1: tweet CSV is empty; header row required")
        if tuple(header) != TWEET_CSV_COLUMNS:
            raise SchemaError(f"row 1: expected header {','.join(TWEET_CSV_COLUMNS)}")
        for row_no, row in enumerate(reader, start=2):
            if len(row) != len(TWEET_CSV_COLUMNS):
                raise SchemaError(f"row {row_no}: expected {len(TWEET_CSV_COLUMNS)} fields, got {len(row)}")
            raw = dict(zip(TWEET_CSV_COLUMNS, row))
            country = raw["country_code"]
            if len(country) != 2 or not country.isascii() or not country.isalpha():
                raise SchemaError(f"row {row_no}: country_code {country!r} is not two ASCII letters")
            if not raw["statuses_count"].strip():
                raise SchemaError(f"row {row_no}: statuses_count missing")
            try:
                statuses = int(raw["statuses_count"])
            except ValueError:
                raise SchemaError(f"row {row_no}: statuses_count {raw['statuses_count']!r} is not an integer")
            if statuses < 0:
                raise SchemaError(f"row {row_no}: statuses_count is negative")
            timestamp = _parse_timestamp(raw["timestamp"], row_no, "timestamp")
            created = _parse_timestamp(raw["user_created_at"], row_no, "user_created_at")
            if timestamp < created:
                raise SchemaError(f"row {row_no}: timestamp precedes user_created_at")
            records.append(
                TweetRecord(
                    tweet_id=raw["tweet_id"],
                    user_id=raw["user_id"],
                    timestamp=timestamp,
                    country_code=country.upper(),
                    text=raw["text"],
                    source=raw["source"],
                    user_created_at=created,
                    statuses_count=statuses,
                    user_description=raw["user_description"],
                    user_location=raw["user_location"],
                    user_lang=raw["user_lang"],
                    tweet_lang=raw["tweet_lang"],
                )
            )
    return records


def bot_filter(
    records: Iterable[TweetRecord], lexicons: dict[str, PhraseLexicon]
) -> list[TweetRecord]:
    """Drop every tweet whose user description matches the bot lexicon."""
    bot = lexicons["bot"]
    return [r for r in records if not match_phrases(r.user_description, bot)]


def tweet_table(
    records: Sequence[TweetRecord], lexicons: dict[str, PhraseLexicon], anchor_date: dt.date
) -> TweetTable:
    """Classify bot-filtered tweets once into a column table for any calendar.

    Each text is ASCII-lowercased and matched once (sources, descriptions
    and locations once per distinct value). A user's `infrequent` flag
    comes from their first tweet by (timestamp, tweet_id): statuses_count
    divided by whole days since account creation (floored at one day)
    below one tweet per day. A tweet or account-creation date outside
    1970-2100 raises PanelRangeError.
    """
    collective = lexicons["collective"].phrases
    political = lexicons["political"].phrases
    apple = {s: match_phrases(s, lexicons["apple_source"]) for s in {r.source for r in records}}
    student = {
        s: match_phrases(s, lexicons["student"])
        for s in {r.user_description for r in records} | {r.user_location for r in records}
    }
    bits = np.zeros(len(records), dtype=np.uint8)
    first_seen: dict[str, TweetRecord] = {}
    for i, r in enumerate(records):
        low = ascii_lower(r.text)
        b = APPLE_SOURCE if apple[r.source] else 0
        if student[r.user_description] or student[r.user_location]:
            b |= STUDENT
        if any(p in low for p in collective):
            b |= COLLECTIVE | (TAX if "tax" in low else 0)
        if any(p in low for p in political):
            b |= POLITICAL
        bits[i] = b
        cur = first_seen.get(r.user_id)
        if cur is None or (r.timestamp, r.tweet_id) < (cur.timestamp, cur.tweet_id):
            first_seen[r.user_id] = r
    users = {u: code for code, u in enumerate(sorted(first_seen))}
    countries = tuple(sorted({r.country_code for r in records}))
    country_code = {c: code for code, c in enumerate(countries)}
    infrequent = np.zeros(len(users), dtype=bool)
    for user_id, r in first_seen.items():
        days = max(1, (r.timestamp - r.user_created_at).days)
        infrequent[users[user_id]] = r.statuses_count / days < 1.0
    return TweetTable(
        anchor_date=anchor_date,
        countries=countries,
        day=day_offsets([r.timestamp for r in records], anchor_date),
        created_day=day_offsets([r.user_created_at for r in records], anchor_date),
        user=np.array([users[r.user_id] for r in records], dtype=np.int64),
        country=np.array([country_code[r.country_code] for r in records], dtype=np.int64),
        bits=bits,
        infrequent=infrequent,
    )


def user_period_flags(table: TweetTable, cal: PeriodCalendar) -> UserPeriodFlags:
    """Reduce the table to per (user, country, period) flags under `cal`.

    A group is a new account when the earliest account-creation day of
    its tweets falls in its period, so the flag does not depend on record
    order. The anchors of `cal` and the table must agree.
    """
    if cal.anchor_date != table.anchor_date:
        raise ConfigurationError(
            f"calendar anchor {cal.anchor_date} differs from the tweet table's {table.anchor_date}"
        )
    length = cal.period_length_days
    period = table.day // length
    first, last = (int(period.min()), int(period.max())) if len(period) else (0, 0)
    span = last - first + 1
    # one integer key per (user, country, period) group
    key = (table.user * len(table.countries) + table.country) * span + (period - first)
    groups, group_of = np.unique(key, return_inverse=True)
    bits = np.zeros(len(groups), dtype=np.uint8)
    np.bitwise_or.at(bits, group_of, table.bits)
    created = np.full(len(groups), np.iinfo(np.int64).max)
    np.minimum.at(created, group_of, table.created_day)
    group_period = groups % span + first
    user, country = np.divmod(groups // span, len(table.countries))
    return UserPeriodFlags(
        tweet_period=period,
        user=user,
        country=country,
        period=group_period,
        new_account=created // length == group_period,
        infrequent=table.infrequent[user],
        not_apple=bits & APPLE_SOURCE == 0,
        student=bits & STUDENT != 0,
        activist=bits & COLLECTIVE != 0,
        political=bits & POLITICAL != 0,
    )


def twitter_outcomes(
    flags: UserPeriodFlags,
    table: TweetTable,
    periods: tuple[int, int] | None = None,
) -> dict[str, PanelSeries]:
    """All per-country-period Twitter outcome panels, in levels.

    Count outcomes stay raw so callers can build log(1 + level) variants;
    proportions are emitted directly with zero-denominator cells set to 0
    and flagged. Every country of the table gets a row; `periods` forces
    the (t_min, t_max) range, otherwise it spans the tweets.
    """
    if periods is None:
        if not len(flags.tweet_period):
            raise DataError("no tweets and no explicit period range")
        periods = (int(flags.tweet_period.min()), int(flags.tweet_period.max()))
    lo, hi = periods
    if lo > hi:
        raise PanelRangeError(f"empty period range {lo}..{hi}")
    countries = table.countries
    shape = (len(countries), hi - lo + 1)

    def to_panel(country: np.ndarray, period: np.ndarray, where: np.ndarray, name: str) -> PanelSeries:
        keep = where & (lo <= period) & (period <= hi)
        cells = country[keep] * shape[1] + (period[keep] - lo)
        return PanelSeries(
            outcome_name=name,
            countries=countries,
            periods=tuple(range(lo, hi + 1)),
            values=np.bincount(cells, minlength=shape[0] * shape[1]).reshape(shape),
        )

    def user_panel(where: np.ndarray, name: str) -> PanelSeries:
        return to_panel(flags.country, flags.period, where, name)

    def tweet_panel(where: np.ndarray, name: str) -> PanelSeries:
        return to_panel(table.country, flags.tweet_period, where, name)

    panels = {
        "users": user_panel(np.ones(len(flags.period), dtype=bool), "users"),
        "new_accounts": user_panel(flags.new_account, "new_accounts"),
        "infrequent_users": user_panel(flags.infrequent, "infrequent_users"),
        "not_apple_users": user_panel(flags.not_apple, "not_apple_users"),
        "student_users": user_panel(flags.student, "student_users"),
        "activist_users": user_panel(flags.activist, "activist_users"),
        "political_users": user_panel(flags.political, "political_users"),
        "tweets": tweet_panel(np.ones(len(table.bits), dtype=bool), "tweets"),
        "collective_tweets": tweet_panel(table.bits & COLLECTIVE != 0, "collective_tweets"),
        "political_tweets": tweet_panel(table.bits & POLITICAL != 0, "political_tweets"),
    }

    def ratio_panel(numer: PanelSeries, denom: PanelSeries, name: str) -> PanelSeries:
        zero = denom.values == 0
        values = np.divide(
            numer.values, denom.values, out=np.zeros_like(numer.values), where=~zero
        )
        return PanelSeries(
            outcome_name=name,
            countries=countries,
            periods=numer.periods,
            values=values,
            flagged=zero,
        )

    panels["prop_collective_users"] = ratio_panel(
        panels["activist_users"], panels["users"], "prop_collective_users"
    )
    panels["prop_collective_tweets"] = ratio_panel(
        panels["collective_tweets"], panels["tweets"], "prop_collective_tweets"
    )
    panels["tax_mention_share"] = ratio_panel(
        tweet_panel(table.bits & TAX != 0, "tax_mention_share"),
        panels["collective_tweets"],
        "tax_mention_share",
    )
    return panels
