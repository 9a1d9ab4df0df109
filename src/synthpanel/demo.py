"""Synthetic demo corpora: tweet and event CSVs with a known intervention
footprint, for pipeline demos and end-to-end tests."""

from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .classify import TWEET_CSV_COLUMNS
from .events import EVENT_CSV_COLUMNS

_COLLECTIVE_TEXTS = (
    "join the protest downtown",
    "a rally for our rights",
    "the riot police were out again",
    "we will boycott until they listen",
    "i stand with the students",
    "march with us tomorrow",
    "a peaceful demonstration in the square",
)
_POLITICAL_TEXTS = (
    "the government announced new fees",
    "parliament debates the budget",
    "our mp said nothing today",
    "election season is coming",
    "the president spoke on tv",
)
_NEUTRAL_TEXTS = (
    "beautiful sunrise this morning",
    "match day at the stadium",
    "traffic is terrible again",
    "new music out this friday",
    "great food at the market",
)
_SOURCES_APPLE = ("Twitter for iPhone", "Twitter for iPad")
_SOURCES_OTHER = ("Twitter for Android", "Twitter Web Client", "TweetDeck")
_BOT_DESCRIPTIONS = ("Hiring now, apply today", "Daily weather updates", "Job alerts 24/7")
_STUDENT_DESCRIPTIONS = ("Student at the university", "College of engineering")
_PLAIN_DESCRIPTIONS = ("", "Football fan", "Photographer", "Entrepreneur", "Proud parent")


@dataclass(frozen=True)
class CorpusSpec:
    """Knobs for the generated corpora; defaults give a small fast corpus."""

    countries: tuple[str, ...] = ("UG", "KE", "GH", "RW", "TZ", "ZM", "ZW", "SN", "CM", "ET")
    treated: str = "UG"
    anchor: dt.date = dt.date(2018, 7, 1)
    pre_days: int = 200
    post_days: int = 60
    base_users: float = 18.0
    treated_user_drop: float = 0.13
    treated_collective_rise: float = 1.5
    event_rate: float = 0.35
    treated_event_rise: float = 0.47
    seed: int = 20180701


def generate_tweet_rows(spec: CorpusSpec) -> list[list[str]]:
    """Deterministic tweet CSV rows (without header), sorted by timestamp."""
    rng = np.random.default_rng(spec.seed)
    start = spec.anchor - dt.timedelta(days=spec.pre_days)
    n_days = spec.pre_days + spec.post_days

    country_scale = {c: math.exp(rng.normal(0.0, 0.22)) for c in spec.countries}
    # keep the treated country comfortably inside the top-share restriction
    country_scale[spec.treated] = 1.2
    pools: dict[str, list[dict]] = {}
    for c in spec.countries:
        pool_size = max(8, int(4 * spec.base_users * country_scale[c]))
        users = []
        for i in range(pool_size):
            created = start - dt.timedelta(days=int(rng.integers(5, 2000)))
            rate = float(rng.uniform(0.1, 3.0))  # statuses per day; < 1 means infrequent
            desc_draw = rng.random()
            if desc_draw < 0.03:
                description = _BOT_DESCRIPTIONS[int(rng.integers(len(_BOT_DESCRIPTIONS)))]
            elif desc_draw < 0.10:
                description = _STUDENT_DESCRIPTIONS[int(rng.integers(len(_STUDENT_DESCRIPTIONS)))]
            else:
                description = _PLAIN_DESCRIPTIONS[int(rng.integers(len(_PLAIN_DESCRIPTIONS)))]
            users.append(
                {
                    "id": f"{c.lower()}{i:05d}",
                    "created": created,
                    "rate": rate,
                    "apple": rng.random() < 0.35,
                    "description": description,
                    "location": "University halls" if rng.random() < 0.04 else "",
                }
            )
        pools[c] = users

    rows = []
    tweet_no = 0
    for day in range(n_days):
        date = start + dt.timedelta(days=day)
        post = date >= spec.anchor
        season = 1.0 + 0.15 * math.sin(2.0 * math.pi * day / 30.0)
        for c in spec.countries:
            mult = season * country_scale[c]
            if post and c == spec.treated:
                mult *= 1.0 - spec.treated_user_drop
            n_active = int(rng.poisson(spec.base_users * mult))
            if n_active == 0:
                continue
            pool = pools[c]
            # occasionally a brand-new account appears and joins the pool
            if rng.random() < 0.25:
                created = date
                pool.append(
                    {
                        "id": f"{c.lower()}n{len(pool):05d}",
                        "created": created,
                        "rate": float(rng.uniform(0.1, 1.5)),
                        "apple": rng.random() < 0.35,
                        "description": "",
                        "location": "",
                    }
                )
            chosen = rng.choice(len(pool), size=min(n_active, len(pool)), replace=False)
            coll_share = 0.06
            if post and c == spec.treated:
                coll_share *= 1.0 + spec.treated_collective_rise
            for idx in sorted(chosen):
                user = pool[idx]
                if user["created"] > date:
                    continue
                n_tweets = 1 + int(rng.poisson(0.5))
                for _ in range(n_tweets):
                    ts = dt.datetime(
                        date.year, date.month, date.day,
                        int(rng.integers(0, 24)), int(rng.integers(0, 60)),
                        int(rng.integers(0, 60)), tzinfo=dt.timezone.utc,
                    )
                    draw = rng.random()
                    if draw < coll_share:
                        text = _COLLECTIVE_TEXTS[int(rng.integers(len(_COLLECTIVE_TEXTS)))]
                        tax_share = 0.5 if (post and c == spec.treated) else 0.08
                        if rng.random() < tax_share:
                            text += " because of the tax"
                    elif draw < coll_share + 0.08:
                        text = _POLITICAL_TEXTS[int(rng.integers(len(_POLITICAL_TEXTS)))]
                    else:
                        text = _NEUTRAL_TEXTS[int(rng.integers(len(_NEUTRAL_TEXTS)))]
                    source_pool = _SOURCES_APPLE if user["apple"] else _SOURCES_OTHER
                    source = source_pool[int(rng.integers(len(source_pool)))]
                    days_alive = max(0, (ts.date() - user["created"]).days)
                    statuses = int(user["rate"] * days_alive) + int(rng.integers(0, 3))
                    tweet_no += 1
                    rows.append(
                        [
                            f"t{tweet_no:08d}",
                            user["id"],
                            ts.strftime("%Y-%m-%dT%H:%M:%SZ"),
                            c,
                            text,
                            source,
                            dt.datetime(
                                user["created"].year, user["created"].month,
                                user["created"].day, tzinfo=dt.timezone.utc,
                            ).strftime("%Y-%m-%dT%H:%M:%SZ"),
                            str(statuses),
                            user["description"],
                            user["location"],
                            "en",
                            "en",
                        ]
                    )
    rows.sort(key=lambda r: (r[2], r[0]))
    return rows


def generate_event_rows(spec: CorpusSpec) -> list[list[str]]:
    """Deterministic event CSV rows for both datasets."""
    rng = np.random.default_rng(spec.seed + 1)
    start = spec.anchor - dt.timedelta(days=spec.pre_days)
    n_days = spec.pre_days + spec.post_days
    country_scale = {c: math.exp(rng.normal(0.0, 0.3)) for c in spec.countries}
    rows = []
    for day in range(n_days):
        date = start + dt.timedelta(days=day)
        post = date >= spec.anchor
        for c in spec.countries:
            rate = spec.event_rate * country_scale[c]
            if post and c == spec.treated:
                rate *= 1.0 + spec.treated_event_rise
            for dataset, factor, label in (
                ("ACLED", 1.0, "Riots/protests"),
                ("ICEWS", 0.8, "Protest"),
            ):
                for _ in range(int(rng.poisson(rate * factor))):
                    rows.append([dataset, c, date.isoformat(), label])
    rows.sort()
    return rows


def write_corpus(out_dir: Path | str, spec: CorpusSpec = CorpusSpec()) -> tuple[Path, Path]:
    """Write tweets.csv and events.csv under out_dir; returns the two paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tweets_path = out_dir / "tweets.csv"
    events_path = out_dir / "events.csv"
    with open(tweets_path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(TWEET_CSV_COLUMNS)
        writer.writerows(generate_tweet_rows(spec))
    with open(events_path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(EVENT_CSV_COLUMNS)
        writer.writerows(generate_event_rows(spec))
    return tweets_path, events_path
