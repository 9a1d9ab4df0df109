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

from .errors import DataError, InferenceError, PanelRangeError, SynthPanelError
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


def _public_linalg() -> tuple:
    """np.linalg's lstsq, eigvalsh and solve, taking the gufuncs' arguments and, as the
    gufuncs do, returning nan where LAPACK fails (the public calls raise LinAlgError).
    np.linalg.lstsq takes one system, so its binding solves a stack slice by slice."""
    def nan_on_failure(call, failed):
        def bound(*args):
            try:
                return call(*args)
            except np.linalg.LinAlgError:
                return failed(*args)
        return bound

    lstsq = nan_on_failure(np.linalg.lstsq, lambda a, b, rcond: (np.full(b.shape, np.nan),))

    def sliced_lstsq(a, b, rcond):
        return lstsq(a, b, rcond) if a.ndim == 2 else (np.array([lstsq(*system, rcond)[0] for system in zip(a, b)]),)

    return (sliced_lstsq,
            nan_on_failure(np.linalg.eigvalsh, lambda a: np.full(a.shape[:-1], np.nan)),
            nan_on_failure(np.linalg.solve, lambda a, b: np.full(b.shape, np.nan)))


def _sliced_products() -> tuple:
    """np.matvec and np.vecmat, which numpy gained in 2.2, as one `@` per slice of a stack."""
    def matvec(a, x):
        return a @ x if x.ndim == 1 else np.array([ai @ xi for ai, xi in zip(a, x)])

    def vecmat(x, a):
        return x @ a if x.ndim == 1 else np.array([xi @ ai for xi, ai in zip(x, a)])

    return matvec, vecmat


try:  # the gufuncs behind np.linalg.lstsq, eigvalsh and solve; float64 arguments select their float64 loops
    from numpy.linalg._umath_linalg import eigvalsh_lo as _eigvalsh, lstsq as _lstsq, solve as _lu
except ImportError:  # numpy 1.x has no gufunc named lstsq: the public calls, which take the same arguments
    _lstsq, _eigvalsh, _lu = _public_linalg()
# each slice of a stacked product gets the bits of its own product: BLAS runs once per slice
try:
    from numpy import matvec as _matvec, vecmat as _vecmat
except ImportError:
    _matvec, _vecmat = _sliced_products()


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
        if self.pre_periods != self.all_pre_periods and not set(self.pre_periods) <= set(self.all_pre_periods):
            raise DataError("fitting periods must be a subset of the full pre window")
        t_min, t_max = self.Y.t_min, self.Y.t_max
        pre_idx, _, fit_idx = (_period_columns(t_min, t_max, tuple(periods))
                               for periods in (self.all_pre_periods, self.post_periods, self.pre_periods))
        treated_row = self.Y.series(self.treated)
        donor_rows = self.Y.values[self.Y.country_rows(self.donors)]
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


@lru_cache(maxsize=64)  # the fits of one estimate share these
def _period_columns(t_min: int, t_max: int, periods: tuple[int, ...]) -> np.ndarray:
    """Column indices of `periods` in a panel over t_min..t_max; PanelRangeError for the first outside it."""
    for t in periods:
        if not t_min <= t <= t_max:
            raise PanelRangeError(f"period {t} outside panel range {t_min}..{t_max}")
    idx = np.array(periods, dtype=np.intp) - t_min
    idx.setflags(write=False)
    return idx


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Nonnegative donor weights summing to one."""

    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise DataError("weights must be a nonempty vector")
        # nan fails both; the ufunc reductions of w.min() and w.sum(), without their Python wrappers
        if not (np.minimum.reduce(w) >= -_SIMPLEX_TOL and abs(np.add.reduce(w) - 1.0) <= _SIMPLEX_TOL):
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


def _equality_solve(kkt: np.ndarray, rhs: np.ndarray, sub: np.ndarray,
                    slices: np.ndarray | None = None) -> np.ndarray | None:
    """Minimizer over {w: sum w = 1, w zero off the support}, ignoring nonnegativity.

    Least-squares on the KKT system `kkt` = [[2A, 1], [1', 0]], `rhs` = [2b; 1],
    restricted to rows and columns `sub` (the support, then the border), handles
    rank-deficient supports (duplicate donors) deterministically. Its gufunc gets
    the values and rcond that np.linalg.lstsq passes it, so the bits are lstsq's.
    None when the solve is not finite. Given `slices` of stacks `kkt` and `rhs`
    and one row of `sub` per slice, all of one size, it solves those systems
    in one call, which gives each the bits of its own: a system whose solve is
    not finite gets nan weights.
    """
    k = sub.shape[-1] - 1
    if slices is None:
        sol = _lstsq(kkt.take(sub, 0).take(sub, 1), rhs.take(sub, 0), _EPS * (k + 1))[0]
        if not np.logical_and.reduce(np.isfinite(sol), None):  # .all() without its Python wrapper
            return None
        target = np.zeros(kkt.shape[0] - 1)
        target[sub[:-1]] = sol[:k, 0]
        return target
    rows = slices[:, None]
    sol = _lstsq(kkt[rows[:, :, None], sub[:, :, None], sub[:, None, :]], rhs[rows, sub], _EPS * (k + 1))[0]
    target = np.zeros((slices.size, kkt.shape[-1] - 1))
    target[np.arange(slices.size)[:, None], sub[:, :-1]] = sol[:, :k, 0]
    target[~np.logical_and.reduce(np.isfinite(sol), (1, 2))] = np.nan
    return target


def _bordered(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The KKT array [[2A, 1], [1', 0]] of w'Aw - 2b'w on the simplex, and its right-hand side [2b; 1],
    of one QP or of each of a stack (a leading axis on both arguments)."""
    n = b.shape[-1]
    kkt = np.ones(A.shape[:-2] + (n + 1, n + 1))
    kkt[..., :n, :n], kkt[..., n, n] = 2.0 * A, 0.0
    rhs = np.ones(b.shape[:-1] + (n + 1, 1))
    rhs[..., :n, 0] = 2.0 * b
    return kkt, rhs


def _probe(A: np.ndarray, b: np.ndarray, kkt: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Simplex weights near the minimizer of w'Aw - 2b'w, to start the exact method.

    A lean primal active-set walk on LU solves of `kkt`, `rhs` from the vertex of least
    objective A[j, j] - 2 b[j] (ties go to the first): add the donor of least gradient,
    drop by the ratio test. With no tolerance or certificate of its own, it stops at the
    KKT conditions, a non-finite (singular) solve, a zero step or its cycle cap, and
    returns its last feasible point, clipped at each step and renormalized. No answer's
    bits depend on it. It decides on Python floats, which beat numpy's reductions on a few values.
    """
    n = b.size
    j = int((A.diagonal() - 2.0 * b).argmin())
    w = np.zeros(n)
    w[j] = 1.0
    held = np.zeros(n + 1, dtype=bool)
    held[[j, n]] = True  # the working support, then the border
    idx = np.array([j])
    stationary = True  # w minimizes the objective on its support
    for _ in range(8 * n + 16):
        if stationary:
            gradient = A @ w - b  # half the gradient
            level = min(gradient[idx].tolist())  # the support's, which the last solve made equal
            gradient[idx] = np.inf
            j = int(gradient.argmin())
            if gradient[j] >= level:  # the KKT conditions hold, or no donor is left to add
                break
            held[j] = True
        sub = held.nonzero()[0]
        idx = sub[:-1]
        solution = _lu(kkt.take(sub, 0).take(sub, 1), rhs.take(sub, 0))[:, 0]
        values = solution.tolist()  # the weights, then the multiplier
        if not math.isfinite(sum(values)):  # a singular solve returns nan
            break
        x = w[idx]
        blocked = [(xi / (xi - ti), i) for i, (xi, ti) in enumerate(zip(x.tolist(), values[:-1])) if ti < 0.0]
        if not blocked:
            w[idx], stationary = solution[:-1], True
            continue
        step, i = min(blocked)  # each step x / (x - t) lies in [0, 1)
        if step == 0.0:  # the donor just added would leave at once: a singular support, no descent
            break
        w[idx] = np.maximum(x + step * (solution[:-1] - x), 0.0)  # so every x >= 0, and x - t > 0
        w[idx[i]], held[idx[i]], stationary = 0.0, False, False
    return w / np.add.reduce(w)


def _active_set(A: np.ndarray, b: np.ndarray, w: np.ndarray, support: np.ndarray,
                kkt: np.ndarray, rhs: np.ndarray) -> tuple | None:
    """Primal active-set method for w'Aw - 2b'w on the simplex.

    Starts at the feasible `w` (left unmodified), zero off the working `support`,
    then alternates equality solves on the support, taken from `_bordered`'s
    `kkt` and `rhs`, with ratio-test drops and most-negative-gradient
    additions until the support KKT conditions hold.
    Returns (weights, final support, equality solve on it, then for `_certified`
    the least and greatest support gradient, 1 + max |gradient| and the least
    off-support gradient or inf, all of 2(Aw - b) at the weights), or None when no
    such point is found within the cycle cap, a KKT solve is not finite or not
    stationary on its support, or a drop leaves no weight. The weights are clip(target)/sum
    of that equality solve, so their bits depend only on (A, b, final support).
    """
    n = b.size
    held = np.concatenate((support, [True]))  # the working support, then the border
    for _ in range(8 * n + 16):
        sub = held.nonzero()[0]
        idx = sub[:-1]
        target = _equality_solve(kkt, rhs, sub) if idx.size else None
        if target is None:
            return None
        if min(target[idx].tolist()) >= -_FEASIBLE_TOL:
            w = np.maximum(target, 0.0)
            w /= np.add.reduce(w)  # the ufunc reductions of w.sum() and .max(), without their Python wrappers
            gradient = 2.0 * (A @ w - b)
            # Python min/max beat numpy on a few floats; a nan scale fails both tests, as numpy's would
            scale = 1.0 + float(np.maximum.reduce(np.abs(gradient)))
            on = gradient[idx].tolist()
            low, high = min(on), max(on)
            if high - low > _STATIONARY_TOL * scale:
                return None
            off = (~held).nonzero()[0]
            j = off[gradient[off].argmin()] if off.size else None
            if j is None or gradient[j] >= low - _KKT_TOL * scale:
                return w, held[:n], target, low, high, scale, math.inf if j is None else float(gradient[j])
            held[j] = True
        else:
            direction = target - w  # sums to zero, so the move stays on the plane
            movers = idx[direction[idx] < -1e-18]
            if movers.size == 0:
                return None
            steps = -w[movers] / direction[movers]
            k_drop = int(steps.argmin())
            w = np.maximum(w + max(0.0, float(steps[k_drop])) * direction, 0.0)
            w[movers[k_drop]] = 0.0
            held[movers[k_drop]] = False
            total = w.sum()
            if total <= 0.0:  # the drop left no weight to rescale
                return None
            w /= total
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


def _certified(A: np.ndarray, b: np.ndarray, w: np.ndarray, support: np.ndarray, target: np.ndarray,
               low: float | np.ndarray, high: float | np.ndarray, scale: float | np.ndarray,
               lowest_off: float | np.ndarray) -> bool | np.ndarray:
    """Whether every start of the active-set method ends on `support`.

    Takes `_active_set`'s answer, whose gradient values are the warm loop's
    last: the bits a fresh product would give. Holds when the minimizer is
    unique, `target` found it, and it clears the solver's tolerances widely:
    - every support weight of the equality solve is positive, and they
      sum to one;
    - the support gradients agree, by the solver's own test too, so `w` is
      stationary on the support;
    - every off-support gradient lies strictly above every support
      gradient, so every minimizer is zero off the support;
    - the reduced Hessian on the support is positive definite over the
      sum-zero plane, so the minimizer on the support is unique.
    The gradient tolerance is the solver's plus a bound on the rounding
    error of 2(Aw - b): at a perfect fit the gradient is rounding noise,
    and a gap of that size certifies nothing. A nan gradient refuses.
    Written over the last axis: a stack of QPs (a leading axis on every
    argument) gets an array of verdicts, with one eigenvalue call per
    support size.
    """
    n = b.shape[-1]
    margin = _CERTIFICATE_MARGIN * _FEASIBLE_TOL
    sizes = np.add.reduce(support, -1)
    tol = _KKT_TOL * scale + 2.0 * n * _EPS * np.maximum.reduce(_matvec(np.abs(A), w) + np.abs(b), -1)
    verdict = (
        (np.minimum.reduce(target, -1, initial=np.inf, where=support) > margin)
        & (abs(np.add.reduce(target, -1) - 1.0) <= margin)
        & (high - low <= tol)
        & (high - low <= _STATIONARY_TOL * scale)
        & ((sizes == n) | (lowest_off - high > _CERTIFICATE_MARGIN * tol))
    )
    if support.ndim == 1:  # one QP, as the V search asks for thousands: no grouping by support size
        if verdict and sizes > 1:
            idx = support.nonzero()[0]
            # F-ordered, as A[idx][:, idx] lays it out: BLAS may round Z'AZ differently on another layout
            verdict = _curved(np.asfortranarray(A.take(idx, 0).take(idx, 1)))
        return bool(verdict)
    curved = verdict & (sizes > 1)
    for k in set(sizes[curved].tolist()):
        rows = (curved & (sizes == k)).nonzero()[0]
        idx = support[rows].nonzero()[1].reshape(-1, k)
        # each slice F-ordered, as one QP's
        verdict[rows] = _curved(A[rows[:, None, None], idx[:, None, :], idx[:, :, None]].transpose(0, 2, 1))
    return verdict


def _curved(hessians: np.ndarray) -> np.ndarray:
    """Whether the Hessian on a support (or each of a stack) is positive definite over the sum-zero plane, with a margin."""
    Z = _sum_zero_basis(hessians.shape[-1])
    eigenvalues = _eigvalsh(Z.T @ hessians @ Z)
    # fmax, as Python's max, takes 1 over a nan
    return eigenvalues[..., 0] > _MIN_CURVATURE * np.fmax(1.0, eigenvalues[..., -1])


def _refuse_non_finite(A: np.ndarray, b: np.ndarray) -> None:
    """Raises a fit's DataError where its QP (A, b), or the design (X1, x0) behind it, is not finite."""
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise DataError("non-finite outcome values in fitting window")


def _solve_simplex_qp(A: np.ndarray, b: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Minimize w'Aw - 2b'w over the simplex by a primal active-set method.

    The cold solve defines the bits. It starts at uniform weights on every
    donor; if it finds no optimum, it reruns once at a power-of-two scale,
    then raises InferenceError. Every solve first runs the method warm, from
    simplex weights `start` with working support start > 0: in a V search,
    the last answer of the same move; for a QP without a start, which only
    `_solve_stack` takes, the point its probe walked to. That answer is kept
    only when its final support is certified (`_certified`): the cold solve
    then ends on the same support, and so returns the same bits. Otherwise
    (cycle cap, a non-finite solve, or no certificate) the cold solve runs.
    The warm attempt and the cold solve share one bordered KKT array.
    """
    _refuse_non_finite(A, b)
    n = b.size
    kkt, rhs = _bordered(A, b)
    # a failed LAPACK call returns nan, which the isfinite tests and the eigenvalue comparison refuse
    with np.errstate(invalid="ignore"):
        warm = _active_set(A, b, start, start > 0, kkt, rhs)
        if warm is not None and _certified(A, b, *warm):
            return warm[0]
        cold = _active_set(A, b, np.full(n, 1.0 / n), np.ones(n, dtype=bool), kkt, rhs)
        if cold is None:  # retry once with max|A| scaled into [1, 2), exactly, by a power of two
            scale = np.ldexp(1.0, 1 - np.frexp(np.abs(A).max())[1])
            A, b = A * scale, b * scale
            cold = _active_set(A, b, np.full(n, 1.0 / n), np.ones(n, dtype=bool), *_bordered(A, b))
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
    if not (v.min() >= 0 and abs(v.sum() - 1.0) <= 1e-9):  # nan fails both
        raise DataError("v_diag entries must be nonnegative with trace 1")
    return v


def _weights(problem: SynthProblem, v: np.ndarray, start: np.ndarray | None = None) -> WeightVector:
    """The weights under V = diag(`v`): warm from `start`, or without one as a stack of one."""
    X1 = problem.X1
    A = X1.T @ (v[:, None] * X1)
    b = X1.T @ (v * problem.x0)
    return WeightVector(w=_solve_simplex_qp(A, b, start) if start is not None else _solve_alone(A, b))


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
    return float(np.mean(effects[_period_columns(problem.Y.t_min, problem.Y.t_max, tuple(periods))] ** 2))


def _pre_mspe(problem: SynthProblem, effects: np.ndarray) -> float:
    """Mean squared effect over the full pre window, with the bits of np.mean(e ** 2)."""
    e = effects[problem.pre_idx]
    return float((e * e).sum() / e.size)


def optimize_v(problem: SynthProblem) -> tuple[np.ndarray, WeightVector]:
    """Diagonal V minimizing prediction error over every pre period.

    Deterministic coordinate refinement from the uniform diagonal with a
    halving step schedule. A candidate is scored by the MSPE over the full
    pre window of its refitted weights, with effects on the full donor rows
    (a product over the pre columns alone rounds otherwise); one that comes
    back (clamped coordinates recur after each halving) is not solved again.
    Each QP starts warm from the answer its move (coordinate and direction)
    gave the last time it was tried, or from the incumbent's weights the
    first time: v barely moves between sweeps, so that support is usually
    the final one. The warm answer is kept only under a certificate that the
    cold solve returns the same bits: with V on few periods A is
    rank-deficient, and an uncertified warm start could reach another
    minimizer of equal objective and change the path.
    The returned diagonal is never worse than uniform.
    """
    v = _v_diag(problem, None)
    scored: dict[bytes, tuple[WeightVector, float]] = {}
    last: dict[tuple[int, float], WeightVector] = {}  # each move's most recent answer

    def fit_and_score(candidate: np.ndarray, start: np.ndarray | None) -> tuple[WeightVector, float]:
        key = candidate.tobytes()
        if key not in scored:
            w = _weights(problem, candidate, start)
            scored[key] = (w, _pre_mspe(problem, problem.treated_row - w.w @ problem.donor_rows))
        return scored[key]

    w, best = fit_and_score(v, None)  # no start: a stack of one
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
                w_candidate, score = fit_and_score(candidate, last.get((i, direction), w).w)
                last[i, direction] = w_candidate
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


def fit_stack(problems: Sequence[SynthProblem]) -> list[SynthFit | SynthPanelError]:
    """`fit_synth` with the uniform V on many problems of one panel, fitted together.

    Returns each problem's fit, with the bits `fit_synth` gives it, or the
    error `fit_synth` raises on it, held for the caller to raise.
    Problems with the same donor count, panel length and fitting and pre
    windows form one stack: one product each gives every A and b and one
    `np.vecmat` every effect series, and `_solve_stack` solves the QPs.
    Each slice of a stacked product or LAPACK call gets the bits of its own.
    """
    fits: list[SynthFit | SynthPanelError] = [None] * len(problems)
    stacks: dict[tuple, list[int]] = {}
    for i, problem in enumerate(problems):
        key = (problem.donor_rows.shape, problem.x0.size, problem.pre_idx.tobytes())
        stacks.setdefault(key, []).append(i)
    for members in stacks.values():
        stack = [problems[i] for i in members]
        p = stack[0].x0.size
        v = np.full(p, 1.0 / p)
        X1T = np.stack([problem.X1.T for problem in stack])  # so each slice of X1T.mT is laid out as X1
        A = X1T @ (v[:, None] * X1T.transpose(0, 2, 1))
        b = _matvec(X1T, v * np.stack([problem.x0 for problem in stack]))
        weights, errors = _solve_stack(A, b)
        effects = np.stack([problem.treated_row for problem in stack]) - _vecmat(
            weights, np.stack([problem.donor_rows for problem in stack]))
        # C-ordered, as effects[:, pre_idx] is not: numpy sums a strided row in another order than _pre_mspe's
        pre = effects.take(stack[0].pre_idx, 1)
        rmse = np.sqrt(np.add.reduce(pre * pre, 1) / pre.shape[1]).tolist()
        v_diags = np.full((len(stack), p), 1.0 / p)
        for j, i in enumerate(members):
            fits[i] = errors.get(j) or SynthFit(WeightVector(weights[j]), v_diags[j], effects[j], rmse[j])
    return fits


def _solve_stack(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, dict[int, SynthPanelError]]:
    """The only entry for QPs without a start: each one's weights (a row), and the errors raised, by row.

    Each QP's probe point (`_probe`, once per QP, on one stacked bordered
    array) is confirmed as the warm attempt's first pass confirms it: one
    stacked equality solve per support size and one `_certified` over the
    stack, which implies that pass's feasibility, stationarity and KKT tests.
    `_solve_simplex_qp` finishes every QP left (non-finite data, a failed
    solve, a warm attempt that needs more solves or is refused) from its probe
    point, and its error is held for the caller to raise.
    """
    m, n = b.shape
    kkt, rhs = _bordered(A, b)
    solved = np.isfinite(A).all((1, 2)) & np.isfinite(b).all(1)
    start = np.zeros((m, n))  # a non-finite QP's, which _solve_simplex_qp refuses before reading it
    with np.errstate(invalid="ignore"):  # as in _solve_simplex_qp, where each QP's probe ran alone
        for i in solved.nonzero()[0].tolist():
            start[i] = _probe(A[i], b[i], kkt[i], rhs[i])
    # a failed LAPACK call gives nan (or inf), which the stacked tests refuse without a warning
    with np.errstate(all="ignore"):
        held = np.concatenate((start > 0, np.ones((m, 1), dtype=bool)), 1)  # the support, then the border
        support = held[:, :n]
        sizes = np.add.reduce(support, 1)
        target = np.full((m, n), np.nan)
        for k in set(sizes[solved].tolist()) - {0}:
            rows = (solved & (sizes == k)).nonzero()[0]
            target[rows] = _equality_solve(kkt, rhs, held[rows].nonzero()[1].reshape(-1, k + 1), rows)
        # the weights and gradient values of `_active_set`'s first pass, with its arithmetic
        w = np.maximum(target, 0.0)
        w /= np.add.reduce(w, 1)[:, None]
        gradient = 2.0 * (_matvec(A, w) - b)
        scale = 1.0 + np.maximum.reduce(np.abs(gradient), 1)
        low = np.minimum.reduce(gradient, 1, initial=np.inf, where=support)
        high = np.maximum.reduce(gradient, 1, initial=-np.inf, where=support)
        lowest_off = np.minimum.reduce(gradient, 1, initial=np.inf, where=~support)
        solved &= _certified(A, b, w, support, target, low, high, scale, lowest_off)
    errors = {}
    for i in (~solved).nonzero()[0].tolist():
        try:
            w[i] = _solve_simplex_qp(A[i], b[i], start[i])
        except SynthPanelError as exc:
            errors[i] = exc
    return w, errors


def _solve_alone(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One QP without a start, solved as a stack of one; raises its error."""
    weights, errors = _solve_stack(A[None], b[None])
    if errors:
        raise errors[0]
    return weights[0]


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
