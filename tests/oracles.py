"""Brute-force oracles kept independent of the library's solvers.

The simplex grid search evaluates the weighted least-squares objective
directly from the data matrices at every grid point with weights in
steps of 1/K. For four donors the grid is enumerated fiber by fiber:
the first two coordinates are enumerated outright and the objective
along the last two (a one-dimensional quadratic in the split) is
minimized exactly over its grid, which returns the same value as full
enumeration at a fraction of the cost. `test_synth` cross-checks the
fiber path against full enumeration.

The per-row references below read the tweet and event CSVs one row at a
time into objects with aware UTC datetimes and dates, the way the program
did before it read straight into columns, and count periods by UTC
calendar date.
"""

import csv
import datetime as dt
from dataclasses import astuple, dataclass

import numpy as np


def objective_direct(x0, X1, v, W):
    """Objective at each row of W, evaluated straight from the residuals."""
    R = x0[None, :] - W @ X1.T
    return (R * R) @ v


def _prefix_grid(n_prefix: int, K: int) -> np.ndarray:
    """Integer tuples of length n_prefix with sum <= K."""
    if n_prefix == 0:
        return np.zeros((1, 0), dtype=np.int64)
    cols = [np.arange(K + 1, dtype=np.int64)[:, None]]
    grid = cols[0]
    for _ in range(n_prefix - 1):
        rows = []
        for row in grid:
            budget = K - row.sum()
            ext = np.arange(budget + 1, dtype=np.int64)
            rows.append(np.column_stack([np.tile(row, (budget + 1, 1)), ext]))
        grid = np.vstack(rows)
    return grid


def grid_search_full(x0, X1, v, step: float = 0.001) -> float:
    """Exhaustive enumeration of the whole weight grid (small n only)."""
    K = round(1.0 / step)
    n = X1.shape[1]
    prefix = _prefix_grid(n - 1, K)
    last = K - prefix.sum(axis=1)
    W = np.column_stack([prefix, last]).astype(float) / K
    best = np.inf
    for start in range(0, W.shape[0], 2_000_000):
        best = min(best, objective_direct(x0, X1, v, W[start : start + 2_000_000]).min())
    return float(best)


def grid_search_fiber(x0, X1, v, step: float = 0.001) -> float:
    """Grid minimum via exact 1-D quadratic minimization on each fiber.

    For weights (w_1..w_{n-2}, a, s-a) with the prefix enumerated and
    s = 1 - sum(prefix), the objective is a quadratic in a whose grid
    minimum lies at an endpoint or at the grid points bracketing the
    unconstrained vertex; evaluating those candidates per fiber yields
    the exact minimum over the full grid.
    """
    K = round(1.0 / step)
    n = X1.shape[1]
    if n < 2:
        raise ValueError("need at least two donors")
    prefix = _prefix_grid(n - 2, K)
    s_int = K - prefix.sum(axis=1)  # integer budget for the last two coords
    # residual at a = 0: x0 - prefix-part - s * last-column
    base = x0[None, :] - (prefix.astype(float) / K) @ X1[:, : n - 2].T
    base = base - (s_int.astype(float) / K)[:, None] * X1[:, n - 1][None, :]
    d = X1[:, n - 2] - X1[:, n - 1]  # moving one grid unit of weight from last to second-last
    a_quad = float(d @ (v * d))
    b_lin = -2.0 * (base * d[None, :]) @ v
    c_const = (base * base) @ v

    def value_at(a):
        return a_quad * a * a + b_lin * a + c_const

    m = prefix.shape[0]
    s_frac = s_int.astype(float) / K
    candidates = [np.zeros(m), s_frac]
    if a_quad > 0.0:
        vertex = -b_lin / (2.0 * a_quad)
        lo = np.clip(np.floor(vertex * K) / K, 0.0, s_frac)
        hi = np.clip(np.ceil(vertex * K) / K, 0.0, s_frac)
        candidates.extend([lo, hi])
    best = np.inf
    for a in candidates:
        best = min(best, float(value_at(a).min()))
    return best


def grid_search(x0, X1, v, step: float = 0.001) -> float:
    n = X1.shape[1]
    if n <= 2:
        return grid_search_full(x0, X1, v, step)
    return grid_search_fiber(x0, X1, v, step)


def quantile_sorted(values, level: float) -> float:
    """Linear interpolation between order statistics at positions k/(n+1)."""
    xs = sorted(float(x) for x in values)
    n = len(xs)
    h = (n + 1) * level
    if h <= 1.0:
        return xs[0]
    if h >= n:
        return xs[-1]
    k = int(h)
    frac = h - k
    return xs[k - 1] + frac * (xs[k] - xs[k - 1])


UTC = dt.timezone.utc
TWEET_HEADER = (
    "tweet_id,user_id,timestamp,country_code,text,source,user_created_at,statuses_count,"
    "user_description,user_location,user_lang,tweet_lang"
).split(",")
EVENT_HEADER = ["dataset", "country_code", "date", "event_type"]


@dataclass(frozen=True)
class Tweet:
    """One tweet row; written out, a naive or non-UTC datetime keeps its form."""

    tweet_id: str = "t1"
    user_id: str = "u1"
    timestamp: dt.datetime = dt.datetime(2018, 7, 2, 10, 0, tzinfo=UTC)
    country_code: str = "UG"
    text: str = "hello"
    source: str = "Twitter Web Client"
    user_created_at: dt.datetime = dt.datetime(2017, 1, 1, tzinfo=UTC)
    statuses_count: int = 1000
    user_description: str = ""
    user_location: str = ""


@dataclass(frozen=True)
class Event:
    dataset: str
    country_code: str
    date: dt.date
    event_type: str


def write_tweets(path, tweets) -> None:
    """A tweet CSV of `tweets` (Tweet objects or rows of raw strings)."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(TWEET_HEADER)
        for t in tweets:
            row = astuple(t) if isinstance(t, Tweet) else tuple(t)
            writer.writerow([v.isoformat() if isinstance(v, dt.date) else v for v in row] + ["en", "en"])


def write_events(path, events) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(EVENT_HEADER)
        writer.writerows([e.dataset, e.country_code, e.date.isoformat(), e.event_type] for e in events)


def utc(raw: str) -> dt.datetime:
    """An ISO-8601 timestamp as an aware UTC datetime; a naive one is UTC."""
    parsed = dt.datetime.fromisoformat(raw.replace("Z", "+00:00"))
    return parsed.astimezone(UTC) if parsed.tzinfo else parsed.replace(tzinfo=UTC)


def read_tweets(path) -> list[Tweet]:
    """Every row of a valid tweet CSV, one Tweet each, timestamps in UTC."""
    with open(path, encoding="utf-8", newline="") as f:
        return [
            Tweet(
                r["tweet_id"], r["user_id"], utc(r["timestamp"]), r["country_code"].upper(),
                r["text"], r["source"], utc(r["user_created_at"]), int(r["statuses_count"]),
                r["user_description"], r["user_location"],
            )
            for r in csv.DictReader(f)
        ]


def period(when, cal) -> int:
    """Period under `cal` of a datetime (naive means UTC) or a date, by UTC date."""
    if isinstance(when, dt.datetime):
        when = (when.astimezone(UTC) if when.tzinfo else when).date()
    return (when - cal.anchor_date).days // cal.period_length_days


def first_tweets(tweets) -> dict:
    """Each user's first tweet by (timestamp, tweet_id); an earlier row wins a tie."""
    first = {}
    for t in tweets:
        seen = first.get(t.user_id)
        if seen is None or (t.timestamp, t.tweet_id) < (seen.timestamp, seen.tweet_id):
            first[t.user_id] = t
    return first


def infrequent(t: Tweet) -> bool:
    """Under one status per whole day since account creation (at least one day)."""
    return t.statuses_count / max(1, (t.timestamp - t.user_created_at).days) < 1
