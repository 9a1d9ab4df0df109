"""Synthetic-control weight estimation on the probability simplex.

The weight fit minimizes (x0 - X1 w)' V (x0 - X1 w) over nonnegative
weights summing to one, where x0 stacks the treated unit's pre-period
outcomes and X1 the donors'. V is a trace-one diagonal; when pre periods
are subsampled, an outer direct search picks the diagonal that minimizes
prediction error over every pre period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import DataError, InferenceError
from .panel import PanelSeries

_SIMPLEX_TOL = 1e-9
# the active-set method's acceptance tolerances: support weights of an
# equality solve down to -_FEASIBLE_TOL count as feasible, and gradients
# within _KKT_TOL * (1 + max |gradient|) as equal
_FEASIBLE_TOL = 1e-12
_KKT_TOL = 1e-11
# an equality solve whose support gradients spread by more than
# _STATIONARY_TOL * (1 + max |gradient|) is no stationary point: lstsq
# truncated a badly scaled KKT system (sound solves spread about 1e-12)
_STATIONARY_TOL = 1e-6
# a warm start's answer is certified only when it clears both tolerances
# by this factor and its reduced Hessian's smallest eigenvalue exceeds
# _MIN_CURVATURE * max(1, largest)
_CERTIFICATE_MARGIN = 1e3
_MIN_CURVATURE = 1e-8
# the V search stops after this many sweeps or once its step halves below the minimum
_V_MAX_SWEEPS = 200
_V_MIN_STEP = 1e-6
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class SynthProblem:
    """One treated unit, its donor pool, and the period split on a panel.

    Construction builds the arrays every fit reads: the treated row and
    the donors x periods rows over the full panel, the column indices of
    the full pre window, and the fit's design on the fitting periods, x0
    (treated) and X1 (periods x donors).
    """

    treated: str
    donors: tuple[str, ...]
    pre_periods: tuple[int, ...]
    all_pre_periods: tuple[int, ...]
    post_periods: tuple[int, ...]
    Y: PanelSeries
    treated_row: np.ndarray = field(init=False, repr=False)
    donor_rows: np.ndarray = field(init=False, repr=False)
    pre_idx: np.ndarray = field(init=False, repr=False)
    x0: np.ndarray = field(init=False, repr=False)
    X1: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.treated in self.donors:
            raise DataError(f"treated unit {self.treated!r} cannot be its own donor")
        if len(self.donors) < 2:
            raise DataError(f"need at least 2 donors, got {len(self.donors)}")
        if not self.pre_periods:
            raise DataError("no fitting periods")
        if not set(self.pre_periods) <= set(self.all_pre_periods):
            raise DataError("fitting periods must be a subset of the full pre window")
        pre_idx = self._columns(self.all_pre_periods)
        self._columns(self.post_periods)
        fit_idx = self._columns(self.pre_periods)
        treated_row = self.Y.series(self.treated)
        donor_rows = self.Y.values[[self.Y.country_index(d) for d in self.donors]]
        for name, value in (
            ("treated_row", treated_row),
            ("donor_rows", donor_rows),
            ("pre_idx", pre_idx),
            ("x0", treated_row[fit_idx]),
            # not donor_rows[:, fit_idx], which numpy lays out F-ordered:
            # BLAS may round A = X1'VX1 differently on another layout
            ("X1", donor_rows.take(fit_idx, axis=1).T),
        ):
            object.__setattr__(self, name, value)

    def _columns(self, periods: Sequence[int]) -> np.ndarray:
        """Column indices of `periods` in the panel; PanelRangeError for the first outside it."""
        idx = np.array(periods, dtype=np.intp) - self.Y.t_min
        outside = (idx < 0) | (idx >= len(self.Y.periods))
        if outside.any():
            self.Y.period_index(periods[int(outside.argmax())])
        return idx


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Nonnegative donor weights summing to one."""

    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        if w.ndim != 1:
            raise DataError("weights must be a vector")
        if w.min() < -_SIMPLEX_TOL or abs(w.sum() - 1.0) > _SIMPLEX_TOL:
            raise DataError("weights violate simplex constraints")
        w.setflags(write=False)
        object.__setattr__(self, "w", w)


@dataclass(frozen=True, eq=False)
class SynthFit:
    """Fitted weights plus the quantities every downstream step consumes."""

    weights: WeightVector
    v_diag: np.ndarray
    effects: np.ndarray  # treated minus synthetic, over the full panel period range
    rmse_pre: float


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


def _v_diag(problem: SynthProblem, v_diag: np.ndarray | None) -> np.ndarray:
    """The given trace-one diagonal, checked, or the uniform one."""
    p = len(problem.pre_periods)
    if v_diag is None:
        return np.full(p, 1.0 / p)
    v = np.asarray(v_diag, dtype=float)
    if v.shape != (p,):
        raise DataError(f"v_diag must have one entry per fitting period ({p})")
    if v.min() < 0 or abs(v.sum() - 1.0) > 1e-9:
        raise DataError("v_diag entries must be nonnegative with trace 1")
    return v


def _weights(problem: SynthProblem, v: np.ndarray, start: np.ndarray | None = None) -> WeightVector:
    X1 = problem.X1
    A = X1.T @ (v[:, None] * X1)
    b = X1.T @ (v * problem.x0)
    return WeightVector(w=_solve_simplex_qp(A, b, start))


def fit_weights(problem: SynthProblem, v_diag: np.ndarray | None = None) -> WeightVector:
    """Donor weights minimizing the V-weighted pre-period discrepancy."""
    return _weights(problem, _v_diag(problem, v_diag))


def fit_objective(problem: SynthProblem, weights: WeightVector, v_diag: np.ndarray | None = None) -> float:
    """(x0 - X1 w)' V (x0 - X1 w) for diagnostics and tests."""
    r = problem.x0 - problem.X1 @ weights.w
    return float(r @ (_v_diag(problem, v_diag) * r))


def effect_series(problem: SynthProblem, weights: WeightVector) -> np.ndarray:
    """Treated minus synthetic outcome at every panel period, pre and post."""
    return problem.treated_row - weights.w @ problem.donor_rows


def mspe(problem: SynthProblem, weights: WeightVector, periods: Sequence[int]) -> float:
    """Mean squared prediction error of the fit over the given periods."""
    effects = effect_series(problem, weights)
    return float(np.mean(effects[problem._columns(periods)] ** 2))


def _pre_mspe(problem: SynthProblem, effects: np.ndarray) -> float:
    """Mean squared effect over the full pre window."""
    return float(np.mean(effects[problem.pre_idx] ** 2))


def optimize_v(problem: SynthProblem) -> tuple[np.ndarray, WeightVector]:
    """Diagonal V minimizing prediction error over every pre period.

    Deterministic coordinate refinement from the uniform diagonal with a
    halving step schedule; each candidate diagonal is scored by refitting
    the weights and evaluating MSPE on the full pre window. The design
    matrices and panel rows come from the problem, and a candidate that
    comes back (clamped coordinates recur after each step halving) is not
    solved again. Each candidate's QP starts warm from the incumbent's
    weights and keeps that answer only under a certificate that the solve
    from uniform weights returns the same bits, so a candidate's weights
    do not depend on the path that reached it. The returned diagonal is
    never worse than uniform.
    """
    v = _v_diag(problem, None)
    scored: dict[bytes, tuple[WeightVector, float]] = {}

    def fit_and_score(candidate: np.ndarray, start: np.ndarray | None) -> tuple[WeightVector, float]:
        key = candidate.tobytes()
        if key not in scored:
            # warm from the incumbent, kept only when certified to equal
            # the cold solve: when A is rank-deficient (V concentrated on
            # few periods) an uncertified warm start can reach another
            # minimizer with an equal objective, and the search would then
            # take another path
            w = _weights(problem, candidate, start)
            scored[key] = (w, _pre_mspe(problem, effect_series(problem, w)))
        return scored[key]

    w, best = fit_and_score(v, None)
    if set(problem.pre_periods) == set(problem.all_pre_periods):
        # degenerate case: the search objective equals the fit objective,
        # so the uniform diagonal is already optimal
        return v, w
    step = 0.5
    for _ in range(_V_MAX_SWEEPS):
        improved = False
        for i in range(v.size):
            for direction in (1.0, -1.0):
                candidate = v.copy()
                candidate[i] = max(0.0, candidate[i] + direction * step)
                total = candidate.sum()
                if total <= 0.0:
                    continue
                candidate /= total
                if np.abs(candidate - v).max() <= 1e-15:
                    continue
                w_candidate, score = fit_and_score(candidate, w.w)
                if score < best - 1e-15:
                    v, w, best = candidate, w_candidate, score
                    improved = True
        if not improved:
            step *= 0.5
            if step < _V_MIN_STEP:
                break
    return v, w


def fit_synth(problem: SynthProblem, v_diag: np.ndarray | None = None) -> SynthFit:
    """Fit weights (with the given or uniform V) and package the results."""
    return package_fit(problem, fit_weights(problem, v_diag), v_diag)


def package_fit(
    problem: SynthProblem, weights: WeightVector, v_diag: np.ndarray | None = None
) -> SynthFit:
    """Effects and pre-period RMSE of weights already fitted under `v_diag`."""
    effects = effect_series(problem, weights)
    return SynthFit(
        weights=weights,
        v_diag=_v_diag(problem, v_diag),
        effects=effects,
        rmse_pre=math.sqrt(_pre_mspe(problem, effects)),
    )
