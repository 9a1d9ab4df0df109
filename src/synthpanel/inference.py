"""Placebo-based inference: scaled placebo distributions, quantile bands,
restricted-window falsification, and aggregation robustness."""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, DataError, InferenceError, PanelRangeError, SynthPanelError
from .panel import PanelSeries, SampleRestriction, restrict_sample
from .synth import SynthFit, SynthProblem, _refuse_non_finite, fit_stack, fit_synth, optimize_v, package_fit

MIN_PLACEBO_DONORS = 5
SIGMA_FLOOR_RATIO = 1e-12
BAND_LEVELS = (0.025, 0.975)


@dataclass(frozen=True)
class EstimatorConfig:
    """Period split shared by treated and placebo fits."""

    fit_pre_periods: tuple[int, ...]
    all_pre_periods: tuple[int, ...]
    post_periods: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class PlaceboDistribution:
    """Scaled placebo effect series, one row per included donor.

    Each donor's full effect series is multiplied by sigma_treated over
    that donor's own pre-period RMSE; donors whose RMSE sits below the
    floor are excluded and reported with a reason.
    """

    donors: tuple[str, ...]
    periods: tuple[int, ...]
    raw_effects: np.ndarray     # donors x periods
    scaled_effects: np.ndarray  # donors x periods
    sigmas: np.ndarray          # per included donor
    sigma_treated: float
    excluded: tuple[tuple[str, str], ...]  # (donor, reason)

    @property
    def n_placebos(self) -> int:
        return len(self.donors)


@dataclass(frozen=True)
class AveragedEffect:
    """Post-window average effect with its placebo quantile band."""

    value: float
    band: tuple[float, float]

    def __post_init__(self):
        if self.band[0] > self.band[1]:
            raise InferenceError("band endpoints out of order")


def _unit_problem(panel: PanelSeries, unit: str, pool: Sequence[str], cfg: EstimatorConfig) -> SynthProblem:
    return SynthProblem(
        treated=unit,
        donors=tuple(pool),
        pre_periods=cfg.fit_pre_periods,
        all_pre_periods=cfg.all_pre_periods,
        post_periods=cfg.post_periods,
        Y=panel,
    )


def run_unit_fit(
    panel: PanelSeries, unit: str, pool: Sequence[str], cfg: EstimatorConfig
) -> SynthFit:
    """Fit one unit against its donor pool under the shared config.

    When the fit uses a subsample of the pre window, V is searched for.
    """
    problem = _unit_problem(panel, unit, pool, cfg)
    if cfg.fit_pre_periods != cfg.all_pre_periods:
        # the search already fitted the weights for the V it returns
        v_diag, weights = optimize_v(problem)
        return package_fit(problem, weights, v_diag)
    return fit_synth(problem)


FitTask = tuple[PanelSeries, str, tuple[str, ...], EstimatorConfig]  # `run_unit_fit`'s arguments


class FitPool:
    """Runs `run_unit_fit` tasks; `submit` returns a call per task, which
    returns the fit or raises the fit's error. Make each call once: a V
    search that runs in this process runs again at every call.

    Fits that run a V search are independent, Python-bound and slow, so
    with 2 or more CPUs in the affinity mask they run in forked worker
    processes, one fit per task. The pool starts at the first batch that
    holds such a fit, with one worker per CPU and at most one per fit of
    that batch, and serves every later batch. A worker runs the same code
    on the same inputs with the same BLAS, so it returns the same bits.
    Every other fit runs in this process when its call is made, so its
    error is raised where a serial run raises it: plain fits, which
    cost less than a worker's round trip, and all fits on one CPU, beside
    another thread, in a daemonic process or after a refused fork. Fork,
    not spawn: a spawned worker imports numpy afresh and runs without the
    caller's module state.

    The plain fits of one batch on one panel and config share a stack
    (`_PlainStack`): the first of their calls fits them all with
    `fit_stack`, and each call returns its fit or raises its held error.

    Leaving a `with` block joins the workers. On an error it first
    cancels the fits no worker has taken and stops the workers, since
    the fits they are running are of no more use.
    """

    def __init__(self):
        self._workers = None  # the executor, once started
        self._forked = []     # its worker processes
        # one start at most: a started executor runs a thread of its own,
        # which would fail the next start's thread check
        self._tried = False

    def __enter__(self) -> "FitPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._workers is not None:
            if exc_type is not None:
                for worker in self._forked:
                    worker.terminate()
            self._workers.shutdown(cancel_futures=exc_type is not None)
            self._workers = None

    def submit(self, tasks: Sequence[FitTask]) -> list[Callable[[], SynthFit]]:
        searches = [task[3].fit_pre_periods != task[3].all_pre_periods for task in tasks]
        calls, stacks = [], {}
        for task, search in zip(tasks, searches):
            call = None
            if not search:
                call = stacks.setdefault((task[0], task[3]), _PlainStack()).add(task)
            elif not self._tried:
                self._tried = True
                call = self._start(task, sum(searches))
            elif self._workers is not None:
                call = self._workers.submit(run_unit_fit, *task).result
            calls.append(call or functools.partial(run_unit_fit, *task))
        return calls

    def _start(self, task: FitTask, fits: int) -> Callable[[], SynthFit] | None:
        """The call that reads the task's fit from a new pool of at most
        `fits` workers, or None where a pool does not pay or cannot start."""
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
        if cpus < 2:
            return None
        # imported here, not at the top: these modules take about 20 ms to
        # import, which every CLI start would pay, and only V-search fits use them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # a forked child holds only the calling thread, so a lock another
        # thread held at the fork stays held there; a daemonic process may
        # not have children at all
        if threading.active_count() > 1 or multiprocessing.current_process().daemon:
            return None
        # an executor, not multiprocessing.Pool: when a worker dies (killed,
        # out of memory) the executor raises BrokenProcessPool, where a Pool
        # waits for the lost task forever
        before = multiprocessing.active_children()
        workers = ProcessPoolExecutor(min(fits, cpus), mp_context=multiprocessing.get_context("fork"))
        try:
            future = workers.submit(run_unit_fit, *task)  # forks every worker
        except OSError:
            # a refused fork (EAGAIN, ENOMEM): stop the workers forked so far
            # and fit in this process, which gives the same bits
            for worker in multiprocessing.active_children():
                if worker not in before:
                    worker.terminate()
                    worker.join()
            workers.shutdown(cancel_futures=True)
            return None
        self._workers = workers
        self._forked = [worker for worker in multiprocessing.active_children() if worker not in before]
        return future.result


class _PlainStack:
    """Plain fits on one panel and config, which `fit_stack` fits together at the
    first call that reads one of them. That call first raises its own fit's cheap
    refusals, as a serial run does before it fits any other: an error building its
    problem (held from `add`) or a non-finite fitting window (held from then on)."""

    def __init__(self):
        self._fits: list[SynthProblem | SynthFit | SynthPanelError] = []  # a problem until fitted

    def add(self, task: FitTask) -> Callable[[], SynthFit]:
        try:
            self._fits.append(_unit_problem(*task))
        except DataError as exc:
            self._fits.append(exc)
        return functools.partial(self._read, len(self._fits) - 1)

    def _read(self, i: int) -> SynthFit:
        fit = self._fits[i]
        if isinstance(fit, SynthProblem):
            try:
                _refuse_non_finite(fit.X1, fit.x0)
            except DataError as exc:
                self._fits[i] = exc  # held, so that a later read does not stack it again
                raise
            fits = iter(fit_stack([entry for entry in self._fits if isinstance(entry, SynthProblem)]))
            self._fits = [next(fits) if isinstance(entry, SynthProblem) else entry for entry in self._fits]
            fit = self._fits[i]
        if isinstance(fit, SynthPanelError):
            raise fit
        return fit


def _placebo_tasks(panel: PanelSeries, donors: tuple[str, ...], cfg: EstimatorConfig) -> list[FitTask]:
    """`run_unit_fit`'s arguments for each donor on the other donors, in donor order."""
    return [(panel, donor, tuple(d for d in donors if d != donor), cfg) for donor in donors]


def placebo_distribution(
    panel: PanelSeries,
    donors: Sequence[str],
    cfg: EstimatorConfig,
    treated_fit: SynthFit,
    placebo_fits: Sequence[Callable[[], SynthFit]] | None = None,
) -> PlaceboDistribution:
    """Re-run the estimator with each donor as pseudo-treated.

    `treated_fit`, the treated unit's fit on `donors`, sets the scale.
    The genuinely treated unit never enters a placebo donor pool: its
    post periods are contaminated by the intervention. `placebo_fits`
    holds the calls that `FitPool.submit` returns for the donors' fits, in
    donor order; by default the fits go to a `FitPool` of this call's own.
    """
    donors = tuple(donors)
    if len(donors) < MIN_PLACEBO_DONORS:
        raise InferenceError(
            f"placebo inference needs at least {MIN_PLACEBO_DONORS} donors, "
            f"got {len(donors)}; point estimates remain available without bands"
        )
    sigma_treated = treated_fit.rmse_pre
    scale = float(np.max(np.abs(panel.values))) if panel.values.size else 0.0
    if scale <= 0.0:
        raise InferenceError("outcome panel is identically zero; placebo scaling undefined")
    floor = SIGMA_FLOOR_RATIO * scale

    if placebo_fits is None:
        with FitPool() as pool:
            return placebo_distribution(
                panel, donors, cfg, treated_fit, pool.submit(_placebo_tasks(panel, donors, cfg))
            )

    included, raw, scaled, sigmas, excluded = [], [], [], [], []
    for donor, fit in zip(donors, (fit() for fit in placebo_fits)):
        if fit.rmse_pre < floor:
            excluded.append((donor, f"pre-period rmse {fit.rmse_pre:.3e} below floor {floor:.3e}"))
            continue
        included.append(donor)
        sigmas.append(fit.rmse_pre)
        raw.append(fit.effects)
        scaled.append(fit.effects * (sigma_treated / fit.rmse_pre))
    if not included:
        raise InferenceError("all placebo donors excluded; inference degenerate")
    return PlaceboDistribution(
        donors=tuple(included),
        periods=panel.periods,
        raw_effects=np.array(raw),
        scaled_effects=np.array(scaled),
        sigmas=np.array(sigmas),
        sigma_treated=sigma_treated,
        excluded=tuple(excluded),
    )


def placebo_quantile(values: np.ndarray, levels, axis=None) -> np.ndarray:
    """Empirical quantiles with linear interpolation between order statistics.

    Uses exceedance plotting positions k/(n+1), the convention under which
    an exchangeable extra draw falls inside the .025/.975 band with
    probability (n-1)/(n+1); the n-distribution default positions would
    systematically under-cover small placebo pools.
    """
    return np.quantile(values, levels, axis=axis, method="weibull")


def pointwise_band(
    dist: PlaceboDistribution, levels: Sequence[float] = BAND_LEVELS
) -> np.ndarray:
    """Per-period empirical quantiles of the scaled placebo distribution.

    Returns an array of shape (len(levels), n_periods).
    """
    if dist.n_placebos < 2:
        raise InferenceError("pointwise bands need at least 2 included placebos")
    return placebo_quantile(dist.scaled_effects, levels, axis=0)


def averaged_post_effect(
    fit: SynthFit,
    dist: PlaceboDistribution,
    periods: Sequence[int] | None = None,
) -> AveragedEffect:
    """Average treated effect over the post window with its placebo band.

    The band holds the .025/.975 quantiles of the donor-wise averages of
    the scaled placebo series over the same periods. `periods` defaults
    to every t >= 0 in the distribution's range.
    """
    if periods is None:
        periods = [t for t in dist.periods if t >= 0]
        if not periods:
            raise PanelRangeError("no post periods in panel")
    idx = [dist.periods.index(t) for t in periods]
    value = float(np.mean(fit.effects[idx]))
    donor_means = dist.scaled_effects[:, idx].mean(axis=1)
    lo, hi = placebo_quantile(donor_means, BAND_LEVELS)
    return AveragedEffect(value=value, band=(float(lo), float(hi)))


def _read_estimate(
    panel: PanelSeries, donors: tuple[str, ...], cfg: EstimatorConfig, fits: list[Callable[[], SynthFit]]
) -> tuple[SynthFit, PlaceboDistribution]:
    """The treated fit and its placebo distribution from the estimate's fit
    calls, treated first, raising errors in the order that a serial estimate
    raises them."""
    fit = fits[0]()
    return fit, placebo_distribution(panel, donors, cfg, fit, fits[1:])


def submit_estimates(
    pool: FitPool, treated: str, prepared: Sequence[tuple[PanelSeries, EstimatorConfig]]
) -> list[Callable[[], tuple[SynthFit, PlaceboDistribution]]]:
    """The estimate of `treated` on each (panel, config), against every other
    country of the panel, with the unit fits of all of them sent to `pool`
    in one batch: one call per estimate, which gives its treated fit and
    placebo distribution."""
    batches = []
    for panel, cfg in prepared:
        donors = tuple(c for c in panel.countries if c != treated)
        # placebo_distribution refuses fewer donors before it reads a placebo fit: submit none
        placebos = _placebo_tasks(panel, donors, cfg) if len(donors) >= MIN_PLACEBO_DONORS else []
        batches.append((donors, [(panel, treated, donors, cfg), *placebos]))
    calls = iter(pool.submit([task for _, tasks in batches for task in tasks]))
    return [
        functools.partial(_read_estimate, panel, donors, cfg, [next(calls) for _ in tasks])
        for (panel, cfg), (donors, tasks) in zip(prepared, batches)
    ]


def estimate_with_placebos(
    panel: PanelSeries, treated: str, cfg: EstimatorConfig
) -> tuple[SynthFit, PlaceboDistribution]:
    """Treated fit on every other country plus its scaled placebo distribution,
    from `submit_estimates` on a `FitPool` of this call's own."""
    with FitPool() as pool:
        (estimate,) = submit_estimates(pool, treated, [(panel, cfg)])
        return estimate()


def falsification_run(
    panel: PanelSeries,
    treated: str,
    period_length_days: int,
    cutoff_days: int = 100,
) -> AveragedEffect:
    """Fit on early pre data only and average effects over held-out pre periods.

    The fit uses periods that end more than `cutoff_days` before the
    anchor; effects are averaged over the final `cutoff_days` window
    before the anchor, with the placebo machinery unchanged (the held-out
    window plays the role of the post window throughout).
    """
    if cutoff_days < 1:
        raise ConfigurationError(f"cutoff_days must be positive, got {cutoff_days}")
    n_cut = math.ceil(cutoff_days / period_length_days)
    fit_periods = tuple(t for t in panel.periods if t < -n_cut)
    eval_periods = tuple(t for t in panel.periods if -n_cut <= t <= -1)
    if not fit_periods:
        raise PanelRangeError(
            f"cutoff of {cutoff_days} days leaves no fitting periods "
            f"(panel starts at {panel.t_min})"
        )
    if len(eval_periods) < n_cut:
        raise PanelRangeError("panel does not cover the held-out window")
    cfg = EstimatorConfig(
        fit_pre_periods=fit_periods,
        all_pre_periods=fit_periods,
        post_periods=eval_periods,
    )
    fit, dist = estimate_with_placebos(panel, treated, cfg)
    return averaged_post_effect(fit, dist, periods=eval_periods)


_FIT_SUBSAMPLE_STRIDE = {1: 10, 7: 4}


def fitting_periods_for_level(pre_periods: Sequence[int], level_days: int) -> tuple[int, ...]:
    """Pre periods entering the weight fit at a given aggregation level.

    Daily panels use every 10th pre period and weekly panels every 4th,
    counting back from t = -1; coarser levels use the full pre window.
    """
    stride = _FIT_SUBSAMPLE_STRIDE.get(level_days)
    if stride is None:
        return tuple(pre_periods)
    return tuple(t for t in pre_periods if (-1 - t) % stride == 0)


def prepare_outcome(
    panel: PanelSeries,
    treated: str,
    transform: str = "log1p",
    users: PanelSeries | None = None,
    restriction: SampleRestriction = SampleRestriction(),
    level_days: int | None = None,
) -> tuple[PanelSeries, EstimatorConfig]:
    """One outcome's estimation panel and its period split.

    The outcome keeps the countries that `restriction` keeps in `users`,
    the unique-user panel over the same window (None for the event panel,
    restricted when built), and must keep `treated`. `transform` "log1p"
    takes log(1 + level); "level" keeps levels. The panel must have pre
    (t < 0) and post (t >= 0) periods. The fit uses every pre period with
    a uniform V or, given an aggregation level, the level's
    `fitting_periods_for_level` and, on subsampled levels, a V search.
    """
    if users is not None:
        panel = panel.select_countries(restrict_sample(users, restriction).countries)
    if treated not in panel.countries:
        raise DataError(f"treated country {treated!r} not in the restricted panel")
    if transform == "log1p":
        panel = panel.log1p()
    pre = tuple(t for t in panel.periods if t < 0)
    post = tuple(t for t in panel.periods if t >= 0)
    if not pre:
        raise PanelRangeError("panel has no pre-intervention periods")
    if not post:
        raise PanelRangeError("panel has no post-intervention periods")
    return panel, EstimatorConfig(
        fit_pre_periods=pre if level_days is None else fitting_periods_for_level(pre, level_days),
        all_pre_periods=pre,
        post_periods=post,
    )


@dataclass(frozen=True, eq=False)
class OutcomeEstimate:
    """One outcome's estimate: its panel, the treated fit, the placebo
    distribution, pointwise bands and the averaged post effect."""

    panel: PanelSeries
    fit: SynthFit
    dist: PlaceboDistribution
    bands: np.ndarray
    averaged: AveragedEffect


def _with_bands(panel: PanelSeries, fit: SynthFit, dist: PlaceboDistribution) -> OutcomeEstimate:
    return OutcomeEstimate(panel, fit, dist, pointwise_band(dist), averaged_post_effect(fit, dist))


def estimate_outcome(panel: PanelSeries, treated: str, cfg: EstimatorConfig) -> OutcomeEstimate:
    """Estimate a panel and config from `prepare_outcome`, with its bands."""
    return _with_bands(panel, *estimate_with_placebos(panel, treated, cfg))


def submit_aggregation_suite(
    pool: FitPool,
    treated: str,
    prepare: Callable[[int], tuple[PanelSeries, EstimatorConfig]],
    levels: Sequence[int],
) -> Callable[[], dict[int, OutcomeEstimate]]:
    """`aggregation_suite` with its unit fits sent to `pool`: returns the
    collector, whose call gives each level's `OutcomeEstimate`.

    The levels are prepared here in level order, up to the first that
    fails to prepare, and all their unit fits go to `pool` in one batch:
    the V searches of the subsampled levels to its workers, the plain fits
    to run when collected. The collector estimates the levels in order,
    then raises the held error, so it raises the error that a serial pass
    over the levels raises first.
    """
    prepared, error = {}, None
    for level in dict.fromkeys(levels):
        try:
            prepared[level] = prepare(level)
        except Exception as exc:  # raised by the collector, after the levels before it
            error = exc
            break
    estimates = submit_estimates(pool, treated, list(prepared.values()))

    def collect() -> dict[int, OutcomeEstimate]:
        results = {
            level: _with_bands(panel, *estimate())
            for (level, (panel, _)), estimate in zip(prepared.items(), estimates)
        }
        if error is not None:
            raise error
        return results

    return collect


def aggregation_suite(
    treated: str,
    prepare: Callable[[int], tuple[PanelSeries, EstimatorConfig]],
    levels: Sequence[int],
) -> dict[int, OutcomeEstimate]:
    """Re-estimate one outcome at each aggregation level.

    `prepare(level)` gives the level's panel and period split, as
    `prepare_outcome` does with `level_days=level`: the level's fitting
    periods and, on subsampled levels, a V search. Each level is then
    estimated as `estimate_outcome` does, as the CLI's `estimate` does at
    one period length.

    This is the collector of `submit_aggregation_suite` run on a
    `FitPool` of this call's own, so the V searches of the subsampled
    levels run in worker processes where that pays.
    """
    with FitPool() as pool:
        return submit_aggregation_suite(pool, treated, prepare, levels)()
