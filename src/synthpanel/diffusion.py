"""Collective-action diffusion with endogenous platform joining.

Agents pay a price q to join the platform; joiners protest when the
network value v(x) of average participation exceeds their private cost.
Participation equilibria are fixed points of the conditional-probability
map phi, and the sign of the cost/valuation covariance decides whether a
price rise spreads or dampens participation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConfigurationError, DataError, EmptyPlatformError

PLATFORM_FLOOR = 1e-12
FIXED_POINT_TOL = 1e-8

_TWO_PI = 2.0 * math.pi
_SQRT_TWO_PI = math.sqrt(_TWO_PI)


def ndtr(x):
    """Standard normal CDF: `scipy.special.ndtr`, imported on first use.

    Importing scipy.special is most of the command line's start-up time,
    and only the diffusion functions need it.
    """
    from scipy.special import ndtr as scipy_ndtr

    return scipy_ndtr(x)


def require_finite(**values: float) -> None:
    """Raise ConfigurationError naming the first keyword whose value is not finite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ConfigurationError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class PopulationParams:
    """Joint-normal parameters of protest cost c and platform valuation w."""

    mu_c: float
    mu_w: float
    sigma_c: float
    sigma_w: float
    rho: float

    def __post_init__(self):
        require_finite(mu_c=self.mu_c, mu_w=self.mu_w, sigma_c=self.sigma_c, sigma_w=self.sigma_w)
        if self.sigma_c <= 0 or self.sigma_w <= 0:
            raise ConfigurationError("standard deviations must be positive")
        if not -1.0 <= self.rho <= 1.0:
            raise ConfigurationError("correlation must lie in [-1, 1]")

    @property
    def omega_cw(self) -> float:
        """Covariance between cost and valuation."""
        return self.rho * self.sigma_c * self.sigma_w


@dataclass(frozen=True)
class ResponseFunction:
    """Value of protesting as a function of average participation x.

    Vanishes at zero, strictly increasing and bounded on [0, 1].
    """

    form: str
    parameters: tuple[tuple[str, float], ...]
    _fn: Callable = None

    def __call__(self, x):
        return self._fn(np.asarray(x, dtype=float))

    @staticmethod
    def linear(slope: float) -> "ResponseFunction":
        require_finite(slope=slope)
        if slope <= 0:
            raise ConfigurationError("linear response needs a positive slope")
        return ResponseFunction(
            form="linear", parameters=(("slope", slope),), _fn=lambda x: slope * x
        )

    @staticmethod
    def logistic(scale: float, steepness: float, midpoint: float = 0.5) -> "ResponseFunction":
        """S-shaped response shifted so it vanishes at zero."""
        require_finite(scale=scale, steepness=steepness, midpoint=midpoint)
        if scale <= 0 or steepness <= 0:
            raise ConfigurationError("logistic response needs positive scale and steepness")
        # where exp overflows, 1 / (1 + exp) takes its limit 0
        try:
            offset = 1.0 / (1.0 + math.exp(steepness * midpoint))
        except OverflowError:
            offset = 0.0

        def fn(x):
            with np.errstate(over="ignore"):
                return scale * (1.0 / (1.0 + np.exp(-steepness * (x - midpoint))) - offset)

        return ResponseFunction(
            form="logistic",
            parameters=(("scale", scale), ("steepness", steepness), ("midpoint", midpoint)),
            _fn=fn,
        )

    @staticmethod
    def table(points: Sequence[tuple[float, float]]) -> "ResponseFunction":
        """Piecewise-linear response through (x, v) knots; (0, 0) is implicit."""
        xs = [0.0] + [float(x) for x, _ in points]
        ys = [0.0] + [float(y) for _, y in points]
        if any(b <= a for a, b in zip(xs, xs[1:])) or any(b <= a for a, b in zip(ys, ys[1:])):
            raise ConfigurationError("table response knots must be strictly increasing")
        if xs[-1] < 1.0:
            raise ConfigurationError("table response must cover x up to 1")
        gx, gy = np.array(xs), np.array(ys)
        return ResponseFunction(
            form="table",
            parameters=tuple((f"x{i}", x) for i, x in enumerate(xs)),
            _fn=lambda x: np.interp(x, gx, gy),
        )


@lru_cache(maxsize=None)
def _gauss_rule(order: int):
    nodes, weights = leggauss(order)
    return nodes, weights


def _bvn_upper(dh, dk, r: float):
    """P(X > dh, Y > dk) for a standard bivariate normal with correlation r.

    Deterministic Gauss-Legendre quadrature on the arcsine integral for
    moderate correlation, switching to the tail-difference expansion for
    |r| above 0.925. Accurate to well below 1e-10 absolute error.
    """
    dh = np.asarray(dh, dtype=float)
    dk = np.asarray(dk, dtype=float)
    if r == 1.0:
        return ndtr(-np.maximum(dh, dk))
    if r == -1.0:
        return np.maximum(0.0, ndtr(-dk) - ndtr(dh))
    if abs(r) < 0.3:
        order = 6
    elif abs(r) < 0.75:
        order = 12
    else:
        order = 20
    nodes, weights = _gauss_rule(order)
    if abs(r) < 0.925:
        hk = dh * dk
        hs = 0.5 * (dh * dh + dk * dk)
        asr = math.asin(r)
        acc = np.zeros(np.broadcast(dh, dk).shape)
        for x_i, w_i in zip(nodes, weights):
            sn = math.sin(0.5 * asr * (x_i + 1.0))
            acc = acc + w_i * np.exp((sn * hk - hs) / (1.0 - sn * sn))
        return acc * asr / (2.0 * _TWO_PI) + ndtr(-dh) * ndtr(-dk)
    # high-correlation branch: reduce to positive correlation, expand the
    # difference from the perfectly correlated case, and correct by quadrature
    k2 = -dk if r < 0 else dk
    hk = dh * k2
    bs = (dh - k2) ** 2
    a_sq = (1.0 - r) * (1.0 + r)
    a = math.sqrt(a_sq)
    c = (4.0 - hk) / 8.0
    d = (12.0 - hk) / 16.0
    bvn = a * np.exp(-(bs / a_sq + hk) / 2.0) * (
        1.0 - c * (bs - a_sq) * (1.0 - d * bs / 5.0) / 3.0 + c * d * a_sq * a_sq / 5.0
    )
    with np.errstate(over="ignore"):
        tail = np.exp(-hk / 2.0) * _SQRT_TWO_PI * ndtr(-np.sqrt(bs) / a) * np.sqrt(bs) * (
            1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0
        )
    bvn = bvn - np.where(hk > -160.0, np.nan_to_num(tail, nan=0.0, posinf=0.0), 0.0)
    half = 0.5 * a
    acc = np.zeros(np.broadcast(dh, dk).shape)
    with np.errstate(divide="ignore", over="ignore"):
        for x_i, w_i in zip(nodes, weights):
            xs = (half * (x_i + 1.0)) ** 2
            rs = math.sqrt(1.0 - xs)
            expo = np.exp(-(bs / xs + hk) / 2.0)
            acc = acc + w_i * half * expo * (
                np.exp(-hk * (1.0 - rs) / (2.0 * (1.0 + rs))) / rs
                - (1.0 + c * xs * (1.0 + d * xs))
            )
    bvn = -(bvn + acc) / _TWO_PI
    if r > 0:
        return bvn + ndtr(-np.maximum(dh, k2))
    return -bvn + np.maximum(0.0, ndtr(-dh) - ndtr(-k2))


def rect_prob(t, a, p: PopulationParams):
    """P(c <= t, w >= a) under the joint-normal population.

    Accepts scalars or broadcastable arrays for t and a; perfect
    correlation collapses to the exact one-dimensional reduction.
    """
    h = (np.asarray(t, dtype=float) - p.mu_c) / p.sigma_c
    k = (np.asarray(a, dtype=float) - p.mu_w) / p.sigma_w
    out = _bvn_upper(-h, k, -p.rho)
    return float(out) if np.ndim(out) == 0 else out


def platform_probability(x, q: float, v: ResponseFunction, p: PopulationParams):
    """P(w >= q - v(x)): the mass of agents willing to join at price q."""
    threshold = q - v(x)
    out = ndtr((p.mu_w - threshold) / p.sigma_w)
    return float(out) if np.ndim(out) == 0 else out


def phi(x, q: float, v: ResponseFunction, p: PopulationParams):
    """Best-response participation map: P(c <= v(x) | w >= q - v(x)).

    Raises EmptyPlatformError when the joining probability underflows;
    an empty platform is a modelling signal, not a zero.
    """
    x_arr = np.asarray(x, dtype=float)
    vx = v(x_arr)
    threshold = q - vx
    joined = ndtr((p.mu_w - threshold) / p.sigma_w)
    if np.any(joined <= PLATFORM_FLOOR):
        raise EmptyPlatformError(
            f"platform probability below {PLATFORM_FLOOR:g} at price {q}"
        )
    out = np.clip(rect_prob(vx, threshold, p) / joined, 0.0, 1.0)
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True, eq=False)
class EquilibriumSet:
    """Fixed points of phi at one price, with stability labels.

    Labels: 'stable' when phi crosses the diagonal from above, 'tipping'
    when from below, 'degenerate' when it touches without crossing.
    """

    q: float
    fixed_points: tuple[float, ...]
    labels: tuple[str, ...]
    grid_x: np.ndarray
    grid_phi: np.ndarray

    def stable_points(self) -> tuple[float, ...]:
        return tuple(x for x, lab in zip(self.fixed_points, self.labels) if lab == "stable")

    def tipping_points(self) -> tuple[float, ...]:
        return tuple(x for x, lab in zip(self.fixed_points, self.labels) if lab == "tipping")


def _bisect_root(g: Callable[[float], float], lo: float, hi: float, xtol: float = 1e-10):
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


def find_fixed_points(
    fn: Callable, grid: np.ndarray, zero_tol: float = 1e-12
) -> tuple[tuple[float, ...], tuple[str, ...], np.ndarray]:
    """Locate and label fixed points of `fn` on a grid.

    Sign changes of fn(x) - x between grid points are refined by
    bisection; exact grid zeros (including the endpoints) are classified
    by the sign of the residual on each side.
    """
    values = np.asarray(fn(grid), dtype=float)
    residual = values - grid
    n = len(grid)
    found: list[tuple[float, str]] = []
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


def equilibria(
    q: float, v: ResponseFunction, p: PopulationParams, grid_n: int = 2001
) -> EquilibriumSet:
    """All fixed points of phi on [0, 1] at price q.

    When the platform empties for small x the domain is truncated to the
    participation range where joining probability stays above the floor.
    The grid has `grid_n` points, at least 2; a phi that is not finite
    on it raises ConfigurationError.
    """
    if grid_n < 2:
        raise ConfigurationError(f"grid_n must be at least 2, got {grid_n}")
    grid = np.linspace(0.0, 1.0, grid_n)
    feasible = np.asarray(platform_probability(grid, q, v, p)) > PLATFORM_FLOOR
    if not feasible.any():
        raise EmptyPlatformError(f"platform empty on all of [0, 1] at price {q}")
    # joining probability is nondecreasing in x, so feasibility is a suffix
    start = int(np.argmax(feasible))
    sub = grid[start:]
    with np.errstate(over="ignore", invalid="ignore"):  # a phi that is not finite is refused
        points, labels, values = find_fixed_points(lambda x: phi(x, q, v, p), sub)
    if not np.isfinite(values).all():
        raise ConfigurationError(
            f"phi is not finite at price {q}: the response or population values are too extreme"
        )
    kept = [(x, lab) for x, lab in zip(points, labels) if abs(phi(x, q, v, p) - x) < FIXED_POINT_TOL]
    return EquilibriumSet(
        q=q,
        fixed_points=tuple(x for x, _ in kept),
        labels=tuple(lab for _, lab in kept),
        grid_x=sub,
        grid_phi=values,
    )


@dataclass(frozen=True)
class Theorem1Report:
    """Pointwise price-monotonicity check of phi plus equilibrium shifts."""

    q: float
    q_prime: float
    omega_cw: float
    expected: str  # nondecreasing | nonincreasing | equal
    passed: bool
    max_violation: float
    offending_x: tuple[float, ...]
    equilibria_low: EquilibriumSet
    equilibria_high: EquilibriumSet

    @property
    def largest_stable_shift(self) -> float | None:
        """Movement of the largest stable equilibrium under the price rise."""
        low = self.equilibria_low.stable_points()
        high = self.equilibria_high.stable_points()
        if not low or not high:
            return None
        return max(high) - max(low)

    @property
    def smallest_tipping_shift(self) -> float | None:
        """Movement of the smallest tipping point under the price rise."""
        low = self.equilibria_low.tipping_points()
        high = self.equilibria_high.tipping_points()
        if not low or not high:
            return None
        return min(high) - min(low)


def theorem1_check(
    q: float,
    q_prime: float,
    v: ResponseFunction,
    p: PopulationParams,
    grid_n: int = 2001,
    tol: float = 1e-9,
) -> Theorem1Report:
    """Verify that a price rise moves phi pointwise with sign opposite omega_cw.

    Negative cost/valuation covariance means the higher price retains
    low-cost protesters, raising phi everywhere; positive covariance
    lowers it. Violations beyond tolerance are reported, not raised.
    """
    if q_prime <= q:
        raise ConfigurationError("q_prime must exceed q")
    grid = np.linspace(0.0, 1.0, grid_n)
    feasible = np.asarray(platform_probability(grid, q_prime, v, p)) > PLATFORM_FLOOR
    if not feasible.any():
        raise EmptyPlatformError(f"platform empty on all of [0, 1] at price {q_prime}")
    sub = grid[int(np.argmax(feasible)):]
    diff = np.asarray(phi(sub, q_prime, v, p)) - np.asarray(phi(sub, q, v, p))
    if p.omega_cw < 0:
        expected = "nondecreasing"
        bad = diff < -tol
        violation = max(0.0, float(-diff.min()))
    elif p.omega_cw > 0:
        expected = "nonincreasing"
        bad = diff > tol
        violation = max(0.0, float(diff.max()))
    else:
        expected = "equal"
        bad = np.abs(diff) > tol
        violation = float(np.abs(diff).max())
    return Theorem1Report(
        q=q,
        q_prime=q_prime,
        omega_cw=p.omega_cw,
        expected=expected,
        passed=not bool(bad.any()),
        max_violation=violation,
        offending_x=tuple(float(x) for x in sub[bad][:20]),
        equilibria_low=equilibria(q, v, p, grid_n),
        equilibria_high=equilibria(q_prime, v, p, grid_n),
    )


@dataclass(frozen=True)
class SimulationResult:
    """Best-response limits of the sampled population from both extremes."""

    limit_from_zero: float
    limit_from_one: float
    rounds_from_zero: int
    rounds_from_one: int
    empty_platform: bool


def agent_simulation(
    n_agents: int,
    q: float,
    v: ResponseFunction,
    p: PopulationParams,
    seed: int,
    max_rounds: int = 500,
) -> SimulationResult:
    """Monte Carlo oracle for the analytic fixed points.

    Samples (c, w) jointly normal and iterates the empirical best
    response from x = 0 and x = 1; running both captures equilibrium
    multiplicity. The update over agents is an associative reduction, so
    a vectorized pass is equivalent to any parallel split.
    """
    if n_agents < 1000:
        raise DataError("agent simulation needs at least 1000 agents")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_agents, 2))
    c = p.mu_c + p.sigma_c * z[:, 0]
    w = p.mu_w + p.sigma_w * (p.rho * z[:, 0] + math.sqrt(1.0 - p.rho**2) * z[:, 1])

    def iterate(x0: float):
        x = x0
        for rounds in range(1, max_rounds + 1):
            vx = float(v(x))
            joiners = w >= q - vx
            n_joined = int(joiners.sum())
            if n_joined == 0:
                return None, rounds
            x_new = float(((c < vx) & joiners).sum() / n_joined)
            if abs(x_new - x) < 1e-6:
                return x_new, rounds
            x = x_new
        return x, max_rounds

    x_zero, rounds_zero = iterate(0.0)
    if x_zero is None:
        return SimulationResult(0.0, 0.0, rounds_zero, 0, empty_platform=True)
    x_one, rounds_one = iterate(1.0)
    if x_one is None:
        return SimulationResult(x_zero, x_zero, rounds_zero, rounds_one, empty_platform=True)
    return SimulationResult(x_zero, x_one, rounds_zero, rounds_one, empty_platform=False)
