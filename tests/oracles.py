"""Brute-force oracles kept independent of the library's solvers.

The simplex grid search evaluates the weighted least-squares objective
directly from the data matrices at every grid point with weights in
steps of 1/K. For four donors the grid is enumerated fiber by fiber:
the first two coordinates are enumerated outright and the objective
along the last two (a one-dimensional quadratic in the split) is
minimized exactly over its grid, which returns the same value as full
enumeration at a fraction of the cost. `test_synth` cross-checks the
fiber path against full enumeration.

`reference_simplex_qp` is a frozen copy of the library's simplex QP solver
(active set, warm-start certificate, scaled retry) before its per-call
overhead was cut; `test_synth` requires the library to match its bits.
`reference_fixed_points` is a frozen copy of the diffusion module's grid
scan for fixed points, one grid point at a time, before it was written
with numpy masks; `test_diffusion` requires the library to match its
points, labels and bits.

The per-row references below read the tweet and event CSVs one row at a
time into objects with aware UTC datetimes and dates, the way the program
did before it read straight into columns, and count periods by UTC
calendar date.
"""

import csv
import datetime as dt
import math
from dataclasses import astuple, dataclass
from functools import lru_cache

import numpy as np

from synthpanel.errors import DataError, InferenceError


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


# The simplex QP solver as it stood before its per-call numpy overhead was
# cut, copied verbatim with the constants it reads. The library's solver must
# return the same bits on every QP, so this copy stays as it is.

_FEASIBLE_TOL = 1e-12
_KKT_TOL = 1e-11
_STATIONARY_TOL = 1e-6
_CERTIFICATE_MARGIN = 1e3
_MIN_CURVATURE = 1e-8
_EPS = float(np.finfo(float).eps)


def _equality_solve(A: np.ndarray, b: np.ndarray, idx: np.ndarray, n: int) -> np.ndarray | None:
    """Minimizer over {w: sum w = 1, w zero off idx}, ignoring nonnegativity.

    Least-squares on the KKT system handles rank-deficient supports
    (duplicate donors) deterministically.
    """
    k = idx.size
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = 2.0 * A[idx][:, idx]
    kkt[:k, k] = 1.0
    kkt[k, :k] = 1.0
    rhs = np.concatenate([2.0 * b[idx], [1.0]])
    sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    if not np.all(np.isfinite(sol)):
        return None
    target = np.zeros(n)
    target[idx] = sol[:k]
    return target


def _active_set(
    A: np.ndarray, b: np.ndarray, w: np.ndarray, support: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Primal active-set method for w'Aw - 2b'w on the simplex.

    Starts at the feasible `w`, zero off the working `support`, then
    alternates equality solves on the support with ratio-test drops and
    most-negative-gradient additions until the support KKT conditions
    hold. Returns (weights, final support, equality solve on it), or None
    when no such point is found within the cycle cap, a KKT solve is not
    finite or not stationary on its support, or a drop leaves no weight.
    The weights are clip(target)/sum of that equality solve, so their
    bits depend only on (A, b, final support).
    """
    n = b.size
    for _ in range(8 * n + 16):
        idx = np.flatnonzero(support)
        target = _equality_solve(A, b, idx, n) if idx.size else None
        if target is None:
            return None
        if target[idx].min() >= -_FEASIBLE_TOL:
            w = np.clip(target, 0.0, None)
            w = w / w.sum()
            gradient = 2.0 * (A @ w - b)
            if np.ptp(gradient[idx]) > _STATIONARY_TOL * (1.0 + float(np.abs(gradient).max())):
                return None
            off = np.flatnonzero(~support)
            if off.size == 0:
                return w, support, target
            tol = _KKT_TOL * (1.0 + float(np.abs(gradient).max()))
            j = off[np.argmin(gradient[off])]
            if gradient[j] >= gradient[idx].min() - tol:
                return w, support, target
            support[j] = True
        else:
            direction = target - w  # sums to zero, so the move stays on the plane
            movers = idx[direction[idx] < -1e-18]
            if movers.size == 0:
                return None
            steps = -w[movers] / direction[movers]
            k_drop = int(np.argmin(steps))
            w = np.clip(w + max(0.0, float(steps[k_drop])) * direction, 0.0, None)
            w[movers[k_drop]] = 0.0
            support[movers[k_drop]] = False
            total = w.sum()
            if total <= 0.0:  # the drop left no weight to rescale
                return None
            w = w / total
    return None


@lru_cache(maxsize=None)
def _sum_zero_basis(k: int) -> np.ndarray:
    """Orthonormal basis (k x k-1) of the plane {d: sum d = 0}.

    A Householder reflection maps e_k to the normalized ones vector; its
    other columns are orthonormal and orthogonal to that vector.
    """
    u = np.full(k, -1.0 / math.sqrt(k))
    u[-1] += 1.0
    Z = (np.eye(k) - np.outer(u, 2.0 / (u @ u) * u))[:, :-1]
    Z.setflags(write=False)
    return Z


def _certified(A: np.ndarray, b: np.ndarray, w: np.ndarray, support: np.ndarray, target: np.ndarray) -> bool:
    """Whether every start of the active-set method ends on `support`.

    Holds when the minimizer is unique, the equality solve found it, and
    it clears the solver's tolerances by a wide margin:
    - every support weight of the equality solve is positive, and they
      sum to one;
    - the support gradients agree, so `w` is stationary on the support;
    - every off-support gradient lies strictly above every support
      gradient, so every minimizer is zero off the support;
    - the reduced Hessian on the support is positive definite over the
      sum-zero plane, so the minimizer on the support is unique.
    The gradient tolerance is the solver's plus a bound on the rounding
    error of 2(Aw - b): at a perfect fit the gradient is rounding noise,
    and a gap of that size certifies nothing.
    """
    idx = np.flatnonzero(support)
    held = target[idx]
    margin = _CERTIFICATE_MARGIN * _FEASIBLE_TOL
    if not (held.min() > margin and abs(held.sum() - 1.0) <= margin):
        return False
    gradient = 2.0 * (A @ w - b)
    rounding = 2.0 * b.size * _EPS * float((np.abs(A) @ w + np.abs(b)).max())
    tol = _KKT_TOL * (1.0 + float(np.abs(gradient).max())) + rounding
    top = gradient[idx].max()
    if not top - gradient[idx].min() <= tol:
        return False
    if idx.size < b.size and not gradient[~support].min() - top > _CERTIFICATE_MARGIN * tol:
        return False
    if idx.size == 1:
        return True
    Z = _sum_zero_basis(idx.size)
    eigenvalues = np.linalg.eigvalsh(Z.T @ A[idx][:, idx] @ Z)
    return bool(eigenvalues[0] > _MIN_CURVATURE * max(1.0, eigenvalues[-1]))


def _solve_simplex_qp(A: np.ndarray, b: np.ndarray, start: np.ndarray | None = None) -> np.ndarray:
    """Minimize w'Aw - 2b'w over the simplex by a primal active-set method.

    The cold solve starts at uniform weights on every donor. If it finds no
    optimum, it reruns once at a power-of-two scale, then raises InferenceError.
    Given simplex weights `start`, the method first runs warm from them,
    with working support start > 0. That answer is kept only when its
    final support is certified (`_certified`): the cold solve then ends
    on the same support, and so returns the same bits. Otherwise (cycle
    cap, a non-finite solve, or no certificate) the cold solve runs.
    """
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        raise DataError("non-finite outcome values in fitting window")
    n = b.size
    if start is not None:
        try:
            warm = _active_set(A, b, start.copy(), start > 0)
            if warm is not None and _certified(A, b, *warm):
                return warm[0]
        except np.linalg.LinAlgError:
            pass
    cold = _active_set(A, b, np.full(n, 1.0 / n), np.ones(n, dtype=bool))
    if cold is None:  # retry once with max|A| scaled into [1, 2), exactly, by a power of two
        scale = np.ldexp(1.0, 1 - np.frexp(np.abs(A).max())[1])
        cold = _active_set(A * scale, b * scale, np.full(n, 1.0 / n), np.ones(n, dtype=bool))
    if cold is None:
        raise InferenceError(f"simplex weight solver found no optimum for {n} donors")
    return cold[0]


reference_simplex_qp = _solve_simplex_qp


def _bisect_root(g, lo: float, hi: float, xtol: float = 1e-10):
    g_lo = g(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        g_mid = g(mid)
        if (hi - lo) < xtol and abs(g_mid) < 1e-9:
            return mid
        if hi - lo < 1e-15:
            return mid
        if (g_lo > 0) == (g_mid > 0):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reference_fixed_points(fn, grid: np.ndarray, zero_tol: float = 1e-12):
    """Fixed points of `fn` on a grid and their labels, with fn(grid).

    Grid zeros are labelled by the residual's sign on each side; sign
    changes between grid points are refined by bisection.
    """
    values = np.asarray(fn(grid), dtype=float)
    residual = values - grid
    n = len(grid)
    found = []
    for i in range(n):
        if abs(residual[i]) > zero_tol:
            continue
        left = residual[i - 1] if i > 0 else None
        right = residual[i + 1] if i + 1 < n else None
        left_zero = left is not None and abs(left) <= zero_tol
        right_zero = right is not None and abs(right) <= zero_tol
        if left_zero or right_zero:
            label = "degenerate"
        elif (left is None or left > 0) and (right is None or right < 0):
            label = "stable"
        elif (left is None or left < 0) and (right is None or right > 0):
            label = "tipping"
        else:
            label = "degenerate"
        found.append((float(grid[i]), label))
    for i in range(n - 1):
        r0, r1 = residual[i], residual[i + 1]
        if abs(r0) <= zero_tol or abs(r1) <= zero_tol:
            continue
        if (r0 > 0) == (r1 > 0):
            continue
        root = _bisect_root(
            lambda x: float(np.asarray(fn(x)) - x), float(grid[i]), float(grid[i + 1])
        )
        found.append((root, "stable" if r0 > 0 else "tipping"))
    found.sort()
    points = tuple(x for x, _ in found)
    labels = tuple(lab for _, lab in found)
    return points, labels, values


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
