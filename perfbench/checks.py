"""Output checks computed outside the program.

Nothing here imports ``synthpanel``: panels are rebuilt from the raw CSV
rows, simplex fits are solved with scipy's NNLS, and the diffusion map is
evaluated with ``scipy.stats.multivariate_normal``. Each check returns a
list of problems; an empty list means the outputs passed.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
import string
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
from scipy.optimize import nnls
from scipy.stats import multivariate_normal, norm

_LOWER = str.maketrans(string.ascii_uppercase, string.ascii_lowercase)
PROPORTION_OUTCOMES = ("prop_collective_users", "prop_collective_tweets", "tax_mention_share")


# ---------------------------------------------------------------------------
# reading program outputs and raw inputs


def read_output_csv(path: Path) -> list[dict]:
    """Rows of a program CSV, after its one provenance comment line."""
    with open(path, encoding="utf-8", newline="") as f:
        first = f.readline()
        if not first.startswith("#"):
            raise ValueError(f"{path}: missing provenance line")
        return list(csv.DictReader(f))


def read_phrases(path: Path) -> list[str]:
    with open(path, encoding="utf-8", newline="") as f:
        return [line.rstrip("\r\n") for line in f if line.rstrip("\r\n")]


def raw_cells(tweets_csv: Path, bot_phrases: list[str], anchor: dt.date, period_days: int):
    """Distinct users and rows per (country, period) after the bot filter."""
    users: dict[tuple[str, int], set] = defaultdict(set)
    rows: Counter = Counter()
    with open(tweets_csv, encoding="utf-8", newline="") as f:
        for row in csv.DictReader(f):
            description = row["user_description"].translate(_LOWER)
            if any(p in description for p in bot_phrases):
                continue
            stamp = dt.datetime.fromisoformat(row["timestamp"].replace("Z", "+00:00"))
            day = stamp.astimezone(dt.timezone.utc).date()
            cell = (row["country_code"].upper(), (day - anchor).days // period_days)
            users[cell].add(row["user_id"])
            rows[cell] += 1
    return {cell: len(ids) for cell, ids in users.items()}, dict(rows)


def panel_from_csv(path: Path) -> dict[tuple[str, int], float]:
    return {(r["country"], int(r["period"])): float(r["value"]) for r in read_output_csv(path)}


# ---------------------------------------------------------------------------
# simplex least squares


def simplex_lsq(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """argmin ||X w - y||^2 over the probability simplex.

    NNLS on the system with a heavily weighted sum-to-one row finds the
    support; the equality-constrained least squares on that support then
    gives the exact minimiser when its weights stay nonnegative.
    """
    n = X.shape[1]
    big = 1e4 * max(1.0, float(np.abs(X).max()), float(np.abs(y).max()))
    w, _ = nnls(np.vstack([X, np.full((1, n), big)]), np.append(y, big), maxiter=50 * n)
    w = w / w.sum()
    support = np.flatnonzero(w > 0)
    k = support.size
    kkt = np.zeros((k + 1, k + 1))
    Xs = X[:, support]
    kkt[:k, :k] = Xs.T @ Xs
    kkt[:k, k] = kkt[k, :k] = 1.0
    sol = np.linalg.lstsq(kkt, np.append(Xs.T @ y, 1.0), rcond=None)[0][:k]
    if sol.min() >= 0.0:
        w = np.zeros(n)
        w[support] = sol
    return w


def kkt_gap(X: np.ndarray, x0: np.ndarray, residual: np.ndarray) -> float:
    """First-order optimality gap of a simplex fit of x0 on the columns of X.

    With residual r = x0 - X w and gradient g = -2 X'r / p of the mean
    squared error, w'g = -2 (x0 - r)'r / p for any w that produced r, and
    w is optimal iff w'g equals min_j g_j. Returns w'g - min_j g_j, which
    is zero at the optimum; the scale is that of the gradient.
    """
    p = x0.size
    g = -2.0 * (X.T @ residual) / p
    wg = -2.0 * float((x0 - residual) @ residual) / p
    return wg - float(g.min())


def weights_kkt_violation(X: np.ndarray, x0: np.ndarray, w: np.ndarray) -> float:
    """Largest KKT violation of simplex weights w for the mean squared error."""
    p = x0.size
    g = -2.0 * (X.T @ (x0 - X @ w)) / p
    on = w > 1e-9
    lam = float(g[on].min())
    stationarity = float(np.abs(g[on] - lam).max())
    dual = max(0.0, lam - float(g.min()))
    primal = max(0.0, -float(w.min())) + abs(float(w.sum()) - 1.0)
    return max(stationarity, dual, primal)


def in_hull_residual(X: np.ndarray, s: np.ndarray) -> float:
    """Max abs distance from s to the closest simplex combination of X's columns."""
    w = simplex_lsq(X, s)
    return float(np.abs(X @ w - s).max())


# ---------------------------------------------------------------------------
# diffusion map, evaluated with scipy


class OwnPhi:
    """phi(x) = P(c <= v(x) | w >= q - v(x)) for jointly normal (c, w)."""

    def __init__(self, mu_c, mu_w, sigma_c, sigma_w, rho, response):
        self.mu_c, self.mu_w, self.sigma_c, self.sigma_w = mu_c, mu_w, sigma_c, sigma_w
        self.rho = rho
        self.response = response
        self._mvn = multivariate_normal(mean=[0.0, 0.0], cov=[[1.0, rho], [rho, 1.0]])

    def rect(self, t, a) -> float:
        """P(c <= t, w >= a) = Phi(h) - Phi2(h, k; rho)."""
        h = (t - self.mu_c) / self.sigma_c
        k = (a - self.mu_w) / self.sigma_w
        return float(norm.cdf(h) - self._mvn.cdf([h, k]))

    def __call__(self, x: float, q: float) -> float:
        vx = self.response(x)
        joined = float(norm.sf((q - vx - self.mu_w) / self.sigma_w))
        return min(1.0, max(0.0, self.rect(vx, q - vx) / joined))


def response_fn(form: str, params: dict):
    if form == "linear":
        slope = params["slope"]
        return lambda x: slope * x
    scale, steep, mid = params["scale"], params["steepness"], params["midpoint"]
    offset = 1.0 / (1.0 + math.exp(steep * mid))
    return lambda x: scale * (1.0 / (1.0 + math.exp(-steep * (x - mid))) - offset)


def fixed_point_problems(phi: OwnPhi, q: float, points, labels, delta: float = 1e-5) -> list[str]:
    """Each point is a fixed point and its label matches the residual's sign change."""
    problems = []
    for x, label in zip(points, labels):
        gap = abs(phi(x, q) - x)
        if gap > 1e-8:
            problems.append(f"q={q:g}: |phi(x)-x| = {gap:.2e} at reported fixed point {x:.10g}")
            continue
        left = phi(x - delta, q) - (x - delta) if x - delta >= 0.0 else None
        right = phi(x + delta, q) - (x + delta) if x + delta <= 1.0 else None
        if (left is None or left > 0) and (right is None or right < 0):
            expected = "stable"
        elif (left is None or left < 0) and (right is None or right > 0):
            expected = "tipping"
        else:
            expected = "degenerate"
        if label != expected:
            problems.append(f"q={q:g}: fixed point {x:.10g} labelled {label}, sign change says {expected}")
    return problems
