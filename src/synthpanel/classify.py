"""Tweet classification: lexicon matching, bot filtering, the columnar
tweet table, per-user-period flags, and the per-country-period Twitter
outcome panels."""

from __future__ import annotations

import datetime as dt
import re
import string
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DataError, PanelRangeError, SchemaError
from .panel import PanelSeries, PeriodCalendar, csv_rows, day_offsets, utf8_lines

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


def ascii_lower(text: str) -> str:
    """Lowercase A-Z only; Unicode case folding is deliberately not applied."""
    return text.translate(_ASCII_LOWER)


@dataclass(frozen=True)
class PhraseLexicon:
    """Named list of exact lowercase phrases; embedded spaces are significant.

    No phrase holds a line break, which `_matches` puts between texts; a
    lexicon read from a file never holds one.
    """

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
            if "\n" in p:
                raise ConfigurationError(f"lexicon {self.name!r} phrase {p!r} holds a line break")


def load_lexicon(path: Path | str, name: str) -> PhraseLexicon:
    """Read one phrase per line; only the trailing newline is stripped."""
    phrases = []
    for line in utf8_lines(path):
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


def _matches(texts: np.ndarray, phrases: tuple[str, ...]) -> np.ndarray:
    """`match_phrases` of each text, as a bool array.

    The texts are lowercased once, joined by line breaks, and searched in
    one pass; no phrase holds a line break, so no match spans two texts.
    """
    hit = np.zeros(len(texts), dtype=bool)
    if phrases:  # an empty alternation would match everywhere
        ends = np.cumsum(np.fromiter(map(len, texts), dtype=np.int64, count=len(texts)) + 1)
        found = re.finditer("|".join(map(re.escape, phrases)), ascii_lower("\n".join(texts)))
        starts = np.fromiter((m.start() for m in found), dtype=np.int64)
        hit[np.searchsorted(ends, starts, side="right")] = True
    return hit


@dataclass(frozen=True, eq=False)
class TweetColumns:
    """Rows of the tweet CSV as columns, one entry per tweet.

    `timestamp` and `user_created_at` are integer UTC microseconds since
    1970-01-01 and `statuses_count` is an integer; the other columns are
    object arrays of str, with country codes in upper case. The language
    columns are not kept.
    """

    tweet_id: np.ndarray
    user_id: np.ndarray
    timestamp: np.ndarray
    country_code: np.ndarray
    text: np.ndarray
    source: np.ndarray
    user_created_at: np.ndarray
    statuses_count: np.ndarray
    user_description: np.ndarray
    user_location: np.ndarray

    def __len__(self) -> int:
        return len(self.timestamp)

    def take(self, rows: np.ndarray) -> "TweetColumns":
        return TweetColumns(*(getattr(self, f.name)[rows] for f in fields(self)))


# bits of TweetTable.bits: lexicon hits of one tweet
APPLE_SOURCE = 1  # source
STUDENT = 2  # user description or location
COLLECTIVE = 4  # text
POLITICAL = 8  # text
TAX = 16  # "tax" in a collective text
# bits that only UserPeriodFlags.bits has: facts of a user-period group
NEW_ACCOUNT = 32  # account created in the group's period
INFREQUENT = 64  # under one tweet a day at the user's first tweet

# The Twitter outcomes. A count counts user-period groups or tweets whose
# bits have every bit of `on` set and every bit of `off` clear; a
# proportion divides one count by another, cell by cell.
_GROUPS, _TWEETS = "groups", "tweets"
_COUNTS = {  # name: (counted rows, on, off)
    "users": (_GROUPS, 0, 0),
    "new_accounts": (_GROUPS, NEW_ACCOUNT, 0),
    "infrequent_users": (_GROUPS, INFREQUENT, 0),
    "not_apple_users": (_GROUPS, 0, APPLE_SOURCE),
    "student_users": (_GROUPS, STUDENT, 0),
    "activist_users": (_GROUPS, COLLECTIVE, 0),
    "political_users": (_GROUPS, POLITICAL, 0),
    "tweets": (_TWEETS, 0, 0),
    "collective_tweets": (_TWEETS, COLLECTIVE, 0),
    "political_tweets": (_TWEETS, POLITICAL, 0),
}
_PROPORTIONS = {  # name: (numerator, denominator)
    "prop_collective_users": (_COUNTS["activist_users"], _COUNTS["users"]),
    "prop_collective_tweets": (_COUNTS["collective_tweets"], _COUNTS["tweets"]),
    "tax_mention_share": ((_TWEETS, TAX, 0), _COUNTS["collective_tweets"]),
}
PROPORTION_OUTCOMES = tuple(_PROPORTIONS)
OUTCOME_NAMES = tuple(_COUNTS) + PROPORTION_OUTCOMES


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
    `tweet_period` is the period of each table row. A group's `bits` is
    the OR of its tweets' bits, plus NEW_ACCOUNT and INFREQUENT.
    """

    tweet_period: np.ndarray
    user: np.ndarray
    country: np.ndarray
    period: np.ndarray
    bits: np.ndarray


_EPOCH = dt.datetime(1970, 1, 1, tzinfo=dt.timezone.utc)
_MICROSECOND = dt.timedelta(microseconds=1)
_DAY_US = 86_400_000_000
_INTEGER_COLUMNS = ("timestamp", "user_created_at", "statuses_count")
# larger counts are stored as this int64 maximum, which still exceeds every day count
_MAX_STATUSES = 2**63 - 1


def _parse_timestamp(raw: str, row: int, column: str) -> int:
    """UTC microseconds since 1970 of an ISO-8601 timestamp; a naive one is UTC."""
    try:
        parsed = dt.datetime.fromisoformat(raw.replace("Z", "+00:00"))
    except ValueError:
        raise SchemaError(f"row {row}: column {column} is not an ISO-8601 timestamp: {raw!r}")
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=dt.timezone.utc)
    return (parsed - _EPOCH) // _MICROSECOND


def read_tweets_csv(path: Path | str) -> TweetColumns:
    """Parse the tweet CSV schema (RFC 4180, header required, UTF-8) into columns.

    Rows are checked in file order and the first bad one raises
    SchemaError with its row number.
    """
    rows = []
    # an account's creation time repeats on each of its tweets, so each
    # distinct string is parsed once; a bad one is never stored, so every
    # row that holds it raises
    created_us: dict[str, int] = {}
    for row_no, row in csv_rows(path, TWEET_CSV_COLUMNS, "tweet"):
        (tweet_id, user_id, timestamp, country, text, source, created, statuses,
         description, location, _, _) = row
        if len(country) != 2 or not country.isascii() or not country.isalpha():
            raise SchemaError(f"row {row_no}: country_code {country!r} is not two ASCII letters")
        if not statuses.strip():
            raise SchemaError(f"row {row_no}: statuses_count missing")
        try:
            count = int(statuses)
        except ValueError:
            raise SchemaError(f"row {row_no}: statuses_count {statuses!r} is not an integer")
        if count < 0:
            raise SchemaError(f"row {row_no}: statuses_count is negative")
        at = _parse_timestamp(timestamp, row_no, "timestamp")
        created_at = created_us.get(created)
        if created_at is None:
            created_at = created_us[created] = _parse_timestamp(created, row_no, "user_created_at")
        if at < created_at:
            raise SchemaError(f"row {row_no}: timestamp precedes user_created_at")
        rows.append((
            tweet_id, user_id, at, country.upper(), text, source, created_at,
            min(count, _MAX_STATUSES), description, location,
        ))
    names = [f.name for f in fields(TweetColumns)]
    columns = zip(*rows) if rows else [()] * len(names)
    return TweetColumns(*(
        np.array(column, dtype=np.int64 if name in _INTEGER_COLUMNS else object)
        for name, column in zip(names, columns)
    ))


def bot_filter(tweets: TweetColumns, lexicons: dict[str, PhraseLexicon]) -> TweetColumns:
    """Drop every tweet whose user description matches the bot lexicon."""
    return tweets.take(~_matches(tweets.user_description, lexicons["bot"].phrases))


def _codes(values: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The sorted distinct strings of `values`, and each value's index among them."""
    distinct = sorted(set(values))
    index = {v: i for i, v in enumerate(distinct)}
    return distinct, np.fromiter(map(index.__getitem__, values), dtype=np.int64, count=len(values))


def tweet_table(
    tweets: TweetColumns, lexicons: dict[str, PhraseLexicon], anchor_date: dt.date
) -> TweetTable:
    """Classify bot-filtered tweets once into a column table for any calendar.

    Each lexicon is matched once over each column it applies to
    (`_matches`). A user's `infrequent` flag comes from their first tweet
    by (timestamp, tweet_id): statuses_count below the whole days since
    account creation (floored at one day), that is, under one tweet per
    day. A tweet or account-creation date outside 1970-2100 raises
    PanelRangeError.
    """
    student = lexicons["student"].phrases
    collective = _matches(tweets.text, lexicons["collective"].phrases)
    bits = (
        APPLE_SOURCE * _matches(tweets.source, lexicons["apple_source"].phrases)
        | STUDENT * (_matches(tweets.user_description, student) | _matches(tweets.user_location, student))
        | COLLECTIVE * collective
        | TAX * (collective & _matches(tweets.text, ("tax",)))
        | POLITICAL * _matches(tweets.text, lexicons["political"].phrases)
    ).astype(np.uint8)
    user_ids, user = _codes(tweets.user_id)
    countries, country = _codes(tweets.country_code)
    # each user's first tweet by (timestamp, tweet_id), ties kept in file order
    order = np.lexsort((_codes(tweets.tweet_id)[1], tweets.timestamp, user))
    first = order[np.searchsorted(user[order], np.arange(len(user_ids)))]
    whole_days = (tweets.timestamp[first] - tweets.user_created_at[first]) // _DAY_US
    return TweetTable(
        anchor_date=anchor_date,
        countries=tuple(countries),
        day=day_offsets(tweets.timestamp // _DAY_US, anchor_date),
        created_day=day_offsets(tweets.user_created_at // _DAY_US, anchor_date),
        user=user,
        country=country,
        bits=bits,
        infrequent=tweets.statuses_count[first] < np.maximum(whole_days, 1),
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
    bits[created // length == group_period] |= NEW_ACCOUNT
    bits[table.infrequent[user]] |= INFREQUENT
    return UserPeriodFlags(
        tweet_period=period, user=user, country=country, period=group_period, bits=bits
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
    shape = (len(table.countries), hi - lo + 1)
    rows = {}  # counted rows: (cell index, bits) of each row inside the range
    for counted, country, period, bits in (
        (_GROUPS, flags.country, flags.period, flags.bits),
        (_TWEETS, table.country, flags.tweet_period, table.bits),
    ):
        inside = (lo <= period) & (period <= hi)
        rows[counted] = (country[inside] * shape[1] + (period[inside] - lo), bits[inside])
    counts = {}
    for counted, on, off in {*_COUNTS.values(), *(c for pair in _PROPORTIONS.values() for c in pair)}:
        cells, bits = rows[counted]
        chosen = cells[bits & (on | off) == on]
        counts[counted, on, off] = np.bincount(chosen, minlength=shape[0] * shape[1]).reshape(shape)
    axis = tuple(range(lo, hi + 1))
    panels = {name: PanelSeries(name, table.countries, axis, counts[c]) for name, c in _COUNTS.items()}
    for name, (numer, denom) in _PROPORTIONS.items():
        zero = counts[denom] == 0
        values = np.divide(counts[numer], counts[denom], out=np.zeros(shape), where=~zero)
        panels[name] = PanelSeries(name, table.countries, axis, values, flagged=zero)
    return panels
