import functools
import json
import multiprocessing
import os
import signal
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgp import TREATED, factor_panel
from oracles import quantile_sorted
from synthpanel import classify, inference, synth
from synthpanel.classify import (
    bot_filter, load_lexicons, read_tweets_csv, tweet_table, twitter_outcomes, user_period_flags,
)
from synthpanel.demo import CorpusSpec, write_corpus
from synthpanel.errors import DataError, InferenceError, PanelRangeError
from synthpanel.inference import (
    EstimatorConfig,
    aggregation_suite,
    averaged_post_effect,
    estimate_with_placebos,
    falsification_run,
    fitting_periods_for_level,
    placebo_distribution,
    placebo_quantile,
    pointwise_band,
    prepare_outcome,
    run_unit_fit,
)
from synthpanel.panel import PanelSeries, PeriodCalendar, window_periods


def default_cfg(panel):
    pre = tuple(t for t in panel.periods if t < 0)
    post = tuple(t for t in panel.periods if t >= 0)
    return EstimatorConfig(fit_pre_periods=pre, all_pre_periods=pre, post_periods=post)


def small_panel(seed=0, n_donors=8):
    return factor_panel(seed, n_donors=n_donors, n_pre=10, n_post=5)


class TestPlaceboDistribution:
    def test_scaled_equals_raw_times_sigma_ratio(self):
        panel = small_panel()
        fit, dist = estimate_with_placebos(panel, TREATED, default_cfg(panel))
        for i in range(dist.n_placebos):
            expected = dist.raw_effects[i] * (dist.sigma_treated / dist.sigmas[i])
            assert dist.scaled_effects[i] == pytest.approx(expected, abs=0, rel=1e-12)

    def test_refuses_small_donor_pool(self):
        panel = small_panel(n_donors=4)
        with pytest.raises(InferenceError, match="at least 5"):
            estimate_with_placebos(panel, TREATED, default_cfg(panel))

    def test_small_donor_pool_runs_only_the_treated_fit(self, monkeypatch):
        # placebo_distribution refuses the pool before it reads a placebo fit,
        # so no placebo fit is submitted or run
        panel = small_panel(n_donors=4)
        submitted, submit = [], inference.FitPool.submit
        monkeypatch.setattr(inference.FitPool, "submit",
                            lambda pool, tasks: submitted.extend(tasks) or submit(pool, tasks))
        probes = record_probes(monkeypatch)
        with pytest.raises(InferenceError, match="^placebo inference needs at least 5 donors, got 4; "
                                                 "point estimates remain available without bands$"):
            estimate_with_placebos(panel, TREATED, default_cfg(panel))
        assert [task[1] for task in submitted] == [TREATED]
        assert len(probes) == 1

    def test_perfect_fit_donor_excluded(self):
        panel = small_panel(seed=3)
        values = panel.values.copy()
        values[2] = values[1]  # C02 becomes an exact twin of C01
        twin_panel = PanelSeries(panel.outcome_name, panel.countries, panel.periods, values)
        _, dist = estimate_with_placebos(twin_panel, TREATED, default_cfg(panel))
        excluded_names = {d for d, _ in dist.excluded}
        assert {"C01", "C02"} <= excluded_names
        assert all("rmse" in reason for _, reason in dist.excluded)

    def test_all_excluded_is_degenerate(self):
        # donors in identical pairs: every placebo fit is perfect
        rng = np.random.default_rng(0)
        base = rng.normal(0, 1, (3, 12))
        values = np.vstack([rng.normal(0, 1, 12), base.repeat(2, axis=0)])
        countries = tuple(f"C{i:02d}" for i in range(7))
        panel = PanelSeries("y", countries, tuple(range(-9, 3)), values)
        with pytest.raises(InferenceError, match="degenerate"):
            estimate_with_placebos(panel, "C00", default_cfg(panel))

    def test_treated_unit_never_enters_placebo_pools(self):
        panel = small_panel(seed=7)
        contaminated = panel.values.copy()
        contaminated[0, -5:] += 100.0  # wreck the treated unit's post periods
        panel2 = PanelSeries(panel.outcome_name, panel.countries, panel.periods, contaminated)
        _, dist_a = estimate_with_placebos(panel, TREATED, default_cfg(panel))
        _, dist_b = estimate_with_placebos(panel2, TREATED, default_cfg(panel2))
        assert np.array_equal(dist_a.scaled_effects, dist_b.scaled_effects)


def cold_fit_bits(seed):
    """estimate_with_placebos on a 20-donor factor panel, every float as float.hex.

    Every pre period is a fitting period, so each fit is one QP solved
    without a warm start from a V search: the fit behind the paper's
    placebo inference.
    """
    panel = factor_panel(seed)
    fit, dist = estimate_with_placebos(panel, TREATED, default_cfg(panel))

    def bits(a):
        return [x.hex() for x in a.tolist()]

    return {
        "seed": seed,
        "weights": bits(fit.weights.w),
        "effects": bits(fit.effects),
        "placebo_donors": list(dist.donors),
        "raw_effects": [bits(row) for row in dist.raw_effects],
        "sigmas": bits(dist.sigmas),
    }


COLD_FIT_GOLDEN = json.loads((Path(__file__).parent / "data" / "cold_fit_golden.json").read_text())["cases"]


class TestColdFitGolden:
    """Treated and placebo fits replayed bit for bit.

    The tolerance checks elsewhere would pass a fit that moved in its last
    bits; these cases compare the bits the solver returned when captured.
    """

    # each case through the solver's LAPACK gufuncs, and again ("-public") through np.linalg
    @pytest.mark.parametrize("case, public", [(case, public) for case in COLD_FIT_GOLDEN for public in (False, True)],
                             ids=[f"seed{case['seed']}" + ("-public" if public else "")
                                  for case in COLD_FIT_GOLDEN for public in (False, True)])
    def test_same_bits_as_captured(self, case, public, request):
        if public:
            request.getfixturevalue("public_lapack")
        assert cold_fit_bits(case["seed"]) == case

    @pytest.mark.parametrize("case", COLD_FIT_GOLDEN, ids=[f"seed{case['seed']}" for case in COLD_FIT_GOLDEN])
    def test_same_bits_from_any_probe_point(self, case, stand_in_probe):
        # the probe only starts the exact walk, whose certified answer or the
        # cold solve gives the bits
        assert cold_fit_bits(case["seed"]) == case

    def test_bound_lapack_calls_match_public_calls(self, lapack_inputs, monkeypatch):
        # every LU solve, KKT system and reduced Hessian of one panel's 21 cold
        # fits. The probe leaves the stack's confirmation about one least-squares
        # system per fit, so each QP's exact walk also runs from its vertex, which
        # records the systems of the walk before the probe
        probe = synth._probe

        def also_walked_from_the_vertex(A, b, kkt, rhs):
            vertex = np.zeros(b.size)
            vertex[(A.diagonal() - 2.0 * b).argmin()] = 1.0
            synth._active_set(A, b, vertex, vertex > 0, kkt, rhs)
            return probe(A, b, kkt, rhs)

        monkeypatch.setattr(synth, "_probe", also_walked_from_the_vertex)
        cold_fit_bits(COLD_FIT_GOLDEN[0]["seed"])
        assert len(lapack_inputs.systems) > 100 and len(lapack_inputs.hessians) > 10
        assert len(lapack_inputs.lu_systems) > 100
        lapack_inputs.assert_public_bits()

    def test_one_least_squares_call_per_certified_fit(self, lapack_inputs, monkeypatch):
        # the probe walks each fit to its final support on LU solves, so the
        # stack confirms it with one least-squares system and certifies it.
        # The stack passes the systems of one size in one call: 21 systems, in
        # one call per (donor count, support size), where the treated fit has
        # 20 donors and the placebos 19
        verdicts, certify = [], synth._certified

        def recorded(*args):
            verdict = certify(*args)
            verdicts.extend(np.atleast_1d(verdict).tolist())
            return verdict

        monkeypatch.setattr(synth, "_certified", recorded)
        fits = [call() for call in inference.FitPool().submit(estimate_tasks(factor_panel(0)))]
        groups = {(fit.weights.w.size, np.count_nonzero(fit.weights.w)) for fit in fits}
        assert len(lapack_inputs.systems) == verdicts.count(True) == len(verdicts) == 21
        assert len(lapack_inputs.lstsq_calls) == len(groups) > 2


def twin_panel(seed):
    """A factor panel whose donors C01 and C02 are exact twins, so every fit
    with both in its pool has many minimizers, which the stack's first pass leaves out."""
    panel = factor_panel(seed, n_donors=8, n_pre=10, n_post=5)
    values = panel.values.copy()
    values[2] = values[1]
    return PanelSeries(panel.outcome_name, panel.countries, panel.periods, values)


def estimate_tasks(panel):
    """The treated and placebo `run_unit_fit` tasks of a plain estimate, in the order read."""
    cfg = default_cfg(panel)
    donors = tuple(c for c in panel.countries if c != TREATED)
    return [(panel, TREATED, donors, cfg), *inference._placebo_tasks(panel, donors, cfg)]


def read_in_order(calls):
    """Each call's fit bits and pre-period RMSE, or the message of its DataError, in call order."""
    outcomes = []
    for call in calls:
        try:
            fit = call()
            outcomes.append((*fit_bits(fit), fit.rmse_pre.hex()))
        except DataError as exc:
            outcomes.append(str(exc))
    return outcomes


def record_left_out(monkeypatch):
    """A list that gathers, in call order, the unit of each fit that a stack
    leaves to `synth._solve_simplex_qp`: each QP it gets is matched to the
    first problem of the running `fit_stack` call with that A and b, not
    matched before, or else gives None."""
    units, running = [], []
    fit_stack, solve = inference.fit_stack, synth._solve_simplex_qp

    def recorded_stack(problems):
        running[:] = problems
        try:
            return fit_stack(problems)
        finally:
            running.clear()

    def recorded_solve(A, b, start):
        for problem in running:
            v, X1 = np.full(problem.x0.size, 1.0 / problem.x0.size), problem.X1
            if (np.array_equal(X1.T @ (v[:, None] * X1), A, equal_nan=True)
                    and np.array_equal(X1.T @ (v * problem.x0), b, equal_nan=True)):
                units.append(problem.treated)
                running.remove(problem)
                break
        else:
            units.append(None)  # a QP of no problem of a running stack
        return solve(A, b, start)

    monkeypatch.setattr(inference, "fit_stack", recorded_stack)
    monkeypatch.setattr(synth, "_solve_simplex_qp", recorded_solve)
    return units


def record_probes(monkeypatch):
    """A list that gathers one entry per `synth._probe` call."""
    probes, probe = [], synth._probe
    monkeypatch.setattr(synth, "_probe", lambda *args: probes.append(None) or probe(*args))
    return probes


class TestStackedFits:
    """`FitPool.submit` fits the plain tasks of one panel and config as one
    stack, which finishes the fits its first pass leaves out itself."""

    @pytest.mark.parametrize("row", ["placebo donor", "treated"])
    def test_nan_raises_where_a_serial_run_raises(self, row, monkeypatch):
        panel = small_panel(seed=2)
        values = panel.values.copy()
        values[2 if row == "placebo donor" else 0, 3] = np.nan  # in every fit's window
        panel = PanelSeries(panel.outcome_name, panel.countries, panel.periods, values)
        tasks = estimate_tasks(panel)
        serial = read_in_order(functools.partial(run_unit_fit, *task) for task in tasks)
        left_out, probes = record_left_out(monkeypatch), record_probes(monkeypatch)
        calls = inference.FitPool().submit(tasks)
        assert read_in_order(calls[:1]) == serial[:1] == ["non-finite outcome values in fitting window"]
        # the treated fit's own refusal comes before the stack fits any other
        assert probes == []
        assert read_in_order(calls[1:]) == serial[1:]
        if row == "treated":
            # the treated unit is in no placebo's pool: only its own fit fails,
            # its refusal is held, so the stack of the placebo fits leaves it
            # out, and they come from the stack's first pass
            assert left_out == []
            assert all(isinstance(outcome, tuple) for outcome in serial[1:])
        else:
            # C02's row is in every placebo's fit, as treated unit or donor
            assert serial[1:] == serial[:1] * (len(tasks) - 1)
        with pytest.raises(DataError, match="^non-finite outcome values in fitting window$"):
            estimate_with_placebos(panel, TREATED, default_cfg(panel))
        if row == "placebo donor":
            clean_fit = run_unit_fit(*estimate_tasks(small_panel(seed=2))[0])
            with pytest.raises(DataError, match="^non-finite outcome values in fitting window$"):
                placebo_distribution(panel, tasks[0][2], default_cfg(panel), clean_fit)

    def test_public_bindings_leave_the_same_fits_to_the_one_fit_path(self, monkeypatch, request):
        # numpy 1.x binds np.linalg's calls and one `@` per slice of a
        # product: the stack must keep and leave out the same fits, with the
        # same bits, on the cold-fit golden panel and on twins
        left_out = record_left_out(monkeypatch)

        def fits_and_left_out():
            runs = []
            for panel in (factor_panel(COLD_FIT_GOLDEN[0]["seed"]), twin_panel(3)):
                left_out.clear()
                runs.append((read_in_order(inference.FitPool().submit(estimate_tasks(panel))), list(left_out)))
            return runs

        gufuncs = fits_and_left_out()
        assert [units for _, units in gufuncs] == [[], ["C01", "C02", "C05", "C08"]]
        request.getfixturevalue("public_lapack")
        assert fits_and_left_out() == gufuncs

    def test_one_probe_per_fit(self, monkeypatch):
        # the stack finishes the 4 fits its first pass leaves out from their probe points
        tasks = estimate_tasks(twin_panel(3))
        serial = read_in_order(functools.partial(run_unit_fit, *task) for task in tasks)
        probes = record_probes(monkeypatch)
        assert read_in_order(inference.FitPool().submit(tasks)) == serial
        assert len(probes) == len(tasks) == 9

    def test_a_plain_fit_off_the_stack_is_a_fit_weights_call(self, monkeypatch):
        # the traced montecarlo run counts fit_weights calls to see plain fits
        # that miss the stack: run_unit_fit must make one, and no V search
        calls, fit_weights = [], synth.fit_weights
        monkeypatch.setattr(synth, "fit_weights", lambda *args: calls.append(None) or fit_weights(*args))
        monkeypatch.setattr(inference, "optimize_v", None)
        task = estimate_tasks(small_panel(seed=2))[0]
        fit = run_unit_fit(*task)
        assert len(calls) == 1
        stacked = inference.FitPool().submit([task])[0]()
        assert len(calls) == 1
        assert fit.weights.w.tobytes() == stacked.weights.w.tobytes()
        assert fit.effects.tobytes() == stacked.effects.tobytes() and fit.rmse_pre == stacked.rmse_pre


def v_search_case():
    """A panel, donors, V-search config and treated fit whose placebo
    distribution excludes two twin donors."""
    panel = factor_panel(11, n_donors=8, n_pre=16, n_post=4)
    values = panel.values.copy()
    values[2] = values[1]  # C02 becomes an exact twin of C01
    panel = PanelSeries(panel.outcome_name, panel.countries, panel.periods, values)
    pre = tuple(t for t in panel.periods if t < 0)
    post = tuple(t for t in panel.periods if t >= 0)
    cfg = EstimatorConfig(fitting_periods_for_level(pre, 7), pre, post)
    donors = tuple(c for c in panel.countries if c != TREATED)
    return panel, donors, cfg, run_unit_fit(panel, TREATED, donors, cfg)


def fit_bits(fit):
    return fit.weights.w.tobytes(), fit.v_diag.tobytes(), fit.effects.tobytes()


def distribution_bits(dist):
    arrays = (dist.raw_effects, dist.scaled_effects, dist.sigmas)
    return dist.donors, [a.tobytes() for a in arrays], dist.sigma_treated.hex(), dist.excluded


def refuse_pool(method=None):
    raise AssertionError("a worker pool was started")


def fit_killing_its_worker(panel, unit, pool, cfg):
    if unit == "C03" and multiprocessing.parent_process() is not None:
        os.kill(os.getpid(), signal.SIGKILL)
    return run_unit_fit(panel, unit, pool, cfg)


def give_up(signum, frame):
    raise TimeoutError("placebo_distribution still waiting 60 s after its worker died")


class TestWorkerProcesses:
    """V-search placebo fits run in forked workers when the affinity mask
    shows 2 or more CPUs; every other fit runs in the calling process."""

    def test_pooled_and_serial_fits_have_the_same_bits(self, report_cpus, monkeypatch):
        case = v_search_case()
        panel, _, cfg, _ = case
        runs, fits = {}, []
        for cpus in (2, 1):
            pools = report_cpus(cpus)
            if cpus == 1:  # every fit runs in this process, where it is counted
                counted = lambda *task: fits.append(task) or run_unit_fit(*task)  # noqa: E731
                monkeypatch.setattr(inference, "run_unit_fit", counted)
            dist = placebo_distribution(*case)
            fit, estimated = estimate_with_placebos(panel, TREATED, cfg)  # its treated fit is pooled too
            assert multiprocessing.active_children() == []
            runs[cpus] = pools, distribution_bits(dist), fit_bits(fit), distribution_bits(estimated)
        assert (runs[2][0], runs[1][0]) == (["fork", "fork"], [])
        assert runs[2][1:] == runs[1][1:]
        assert dist.excluded  # the twins
        assert len(fits) == 17  # each fit once: 8 placebos, then 1 treated and 8 placebos

    def test_a_killed_worker_fails_the_call(self, report_cpus, monkeypatch):
        case = v_search_case()
        report_cpus(2)
        monkeypatch.setattr(inference, "run_unit_fit", fit_killing_its_worker)
        previous = signal.signal(signal.SIGALRM, give_up)
        signal.alarm(60)
        try:
            with pytest.raises(BrokenProcessPool):
                placebo_distribution(*case)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("case", COLD_FIT_GOLDEN[:2], ids=lambda case: f"seed{case['seed']}")
    def test_plain_fits_start_no_pool(self, report_cpus, monkeypatch, case):
        # montecarlo's path: full pre window, uniform V
        report_cpus(2)
        monkeypatch.setattr(multiprocessing, "get_context", refuse_pool)
        assert cold_fit_bits(case["seed"]) == case

    @pytest.mark.parametrize("caller", ["another thread", "daemonic process"])
    def test_fits_stay_serial_where_a_fork_is_unsafe(self, report_cpus, monkeypatch, caller):
        case = v_search_case()
        report_cpus(1)
        expected = distribution_bits(placebo_distribution(*case))
        report_cpus(2)
        fork = multiprocessing.get_context("fork")
        monkeypatch.setattr(multiprocessing, "get_context", refuse_pool)
        if caller == "another thread":
            with ThreadPoolExecutor(1) as threads:
                dist = threads.submit(placebo_distribution, *case).result(timeout=60)
        else:
            with fork.Pool(1) as daemons:
                dist = daemons.apply_async(placebo_distribution, case).get(timeout=60)
        assert distribution_bits(dist) == expected


def level_prepare(table, window_days):
    """The aggregation suite's `prepare`: the table's users panel over
    `window_days` (pre_days, post_days) at each level, as the CLI builds it."""
    def prepare(level):
        cal = PeriodCalendar(anchor_date=table.anchor_date, period_length_days=level)
        periods = window_periods(window_days, level)
        users = twitter_outcomes(user_period_flags(table, cal), table, periods=periods)["users"]
        return prepare_outcome(users, "UG", users=users, level_days=level)
    return prepare


@pytest.fixture(scope="module")
def small_table(tmp_path_factory):
    spec = CorpusSpec(countries=("UG", "KE", "GH", "RW", "TZ", "ZM", "ZW"),
                      pre_days=60, post_days=20, base_users=4.0, seed=19)
    path = tmp_path_factory.mktemp("corpus")
    write_corpus(path, spec)
    lexicons = load_lexicons()
    return tweet_table(bot_filter(read_tweets_csv(path / "tweets.csv"), lexicons), lexicons, spec.anchor)


class TestAggregationPhases:
    """The levels are prepared in level order up to the first that fails,
    and the prepared levels' fits are submitted in one batch; the first
    level to fail, in level order, raises."""

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("levels, failing, expected", [
        ((1, 7), 7, "search failed"),  # level 1's fit fails before level 7's panel
        ((7, 1), 7, "no panel at 7 days"),
        ((1, 10), 10, "search failed"),
        ((10, 1), 10, "no panel at 10 days"),
    ])
    def test_first_failing_level_raises(
        self, small_table, report_cpus, monkeypatch, cpus, levels, failing, expected
    ):
        real_prepare = level_prepare(small_table, (60, 20))

        def prepare(level):
            if level == failing:
                raise DataError(f"no panel at {failing} days")
            return real_prepare(level)

        def search(problem):
            raise InferenceError("search failed")

        pools = report_cpus(cpus)
        monkeypatch.setattr(inference, "optimize_v", search)
        with pytest.raises((DataError, InferenceError), match=f"^{expected}$"):
            aggregation_suite("UG", prepare, levels)
        assert multiprocessing.active_children() == []
        # the pool starts when a subsampled level's fits are submitted; a run
        # whose first level fails to prepare, as a serial pass, submits none
        assert pools == (["fork"] if cpus == 2 and levels[0] != failing else [])


class TestPointwiseBand:
    def test_median_of_symmetric_set(self):
        assert placebo_quantile(np.array([-2.0, -1.0, 1.0, 2.0]), 0.5) == pytest.approx(0.0)

    def test_constant_placebos_collapse(self):
        panel = small_panel()
        _, dist = estimate_with_placebos(panel, TREATED, default_cfg(panel))
        constant = np.full_like(dist.scaled_effects, 3.25)
        forced = type(dist)(
            donors=dist.donors, periods=dist.periods, raw_effects=constant,
            scaled_effects=constant, sigmas=dist.sigmas,
            sigma_treated=dist.sigma_treated, excluded=(),
        )
        band = pointwise_band(forced)
        assert np.all(band == 3.25)

    @given(
        st.lists(st.floats(-100, 100), min_size=3, max_size=40),
        st.sampled_from([0.025, 0.25, 0.5, 0.75, 0.975]),
    )
    @settings(max_examples=80)
    def test_matches_sort_oracle(self, values, level):
        got = float(placebo_quantile(np.array(values), level))
        assert got == pytest.approx(quantile_sorted(values, level), abs=1e-12)

    def test_band_levels_ordered(self):
        panel = small_panel(seed=2)
        _, dist = estimate_with_placebos(panel, TREATED, default_cfg(panel))
        band = pointwise_band(dist)
        assert np.all(band[1] >= band[0])

    def test_single_included_placebo_refused(self):
        panel = small_panel()
        _, dist = estimate_with_placebos(panel, TREATED, default_cfg(panel))
        lone = type(dist)(
            donors=dist.donors[:1], periods=dist.periods,
            raw_effects=dist.raw_effects[:1], scaled_effects=dist.scaled_effects[:1],
            sigmas=dist.sigmas[:1], sigma_treated=dist.sigma_treated, excluded=(),
        )
        with pytest.raises(InferenceError):
            pointwise_band(lone)


class TestAveragedPostEffect:
    def test_constant_effect_recovered(self):
        panel = small_panel(seed=4)
        cfg = default_cfg(panel)
        fit, dist = estimate_with_placebos(panel, TREATED, cfg)
        forced = type(fit)(
            weights=fit.weights, v_diag=fit.v_diag,
            effects=np.where(np.array(panel.periods) >= 0, -0.127, fit.effects),
            rmse_pre=fit.rmse_pre,
        )
        avg = averaged_post_effect(forced, dist)
        assert avg.value == pytest.approx(-0.127, abs=1e-15)

    def test_zero_effects_inside_band(self):
        panel = small_panel(seed=5)
        fit, dist = estimate_with_placebos(panel, TREATED, default_cfg(panel))
        forced = type(fit)(
            weights=fit.weights, v_diag=fit.v_diag,
            effects=np.zeros_like(fit.effects), rmse_pre=fit.rmse_pre,
        )
        avg = averaged_post_effect(forced, dist)
        assert avg.value == 0.0
        assert avg.band[0] <= 0.0 <= avg.band[1]

    def test_mean_recomputation_oracle(self):
        panel = small_panel(seed=6)
        fit, dist = estimate_with_placebos(panel, TREATED, default_cfg(panel))
        avg = averaged_post_effect(fit, dist)
        post_idx = [i for i, t in enumerate(panel.periods) if t >= 0]
        assert avg.value == pytest.approx(
            sum(fit.effects[i] for i in post_idx) / len(post_idx), abs=1e-14
        )

    def test_scaling_invariance_of_significance(self):
        panel = factor_panel(11, n_donors=8, n_pre=10, n_post=5, tau=-0.2)
        cfg = default_cfg(panel)
        fit, dist = estimate_with_placebos(panel, TREATED, cfg)
        avg = averaged_post_effect(fit, dist)
        scaled_panel = PanelSeries(
            panel.outcome_name, panel.countries, panel.periods, panel.values * 7.5
        )
        fit2, dist2 = estimate_with_placebos(scaled_panel, TREATED, cfg)
        avg2 = averaged_post_effect(fit2, dist2)
        outside_1 = avg.value < avg.band[0] or avg.value > avg.band[1]
        outside_2 = avg2.value < avg2.band[0] or avg2.value > avg2.band[1]
        assert outside_1 == outside_2
        assert avg2.value == pytest.approx(avg.value * 7.5, rel=1e-6)


class TestFalsification:
    def test_perfect_twin_gives_exact_zero(self):
        rng = np.random.default_rng(1)
        donors = rng.normal(0, 1, (6, 25))
        values = np.vstack([donors[0], donors])  # treated equals donor C01 everywhere
        countries = tuple(f"C{i:02d}" for i in range(7))
        panel = PanelSeries("y", countries, tuple(range(-20, 5)), values)
        avg = falsification_run(panel, "C00", 10, cutoff_days=100)
        assert avg.value == pytest.approx(0.0, abs=1e-9)

    def test_cutoff_longer_than_data(self):
        panel = small_panel()  # 10 pre periods = 100 days
        with pytest.raises(PanelRangeError):
            falsification_run(panel, TREATED, 10, cutoff_days=100)

    def test_null_dgp_near_zero(self):
        values = [
            falsification_run(factor_panel(seed, tau=0.0), TREATED, 10, cutoff_days=100).value
            for seed in range(25)
        ]
        assert abs(np.mean(values)) < 0.01

    def test_effect_does_not_leak_into_falsification(self):
        # the post-anchor treatment must not move the held-out pre estimate
        a = falsification_run(factor_panel(3, tau=0.0), TREATED, 10, cutoff_days=100)
        b = falsification_run(factor_panel(3, tau=-0.5), TREATED, 10, cutoff_days=100)
        assert a.value == pytest.approx(b.value, abs=1e-12)


class TestAggregationHelpers:
    def test_daily_subsample_counts_back_from_minus_one(self):
        pre = tuple(range(-30, 0))
        assert fitting_periods_for_level(pre, 1) == (-21, -11, -1)

    def test_weekly_subsample_every_fourth(self):
        pre = tuple(range(-14, 0))
        assert fitting_periods_for_level(pre, 7) == (-13, -9, -5, -1)

    def test_coarse_levels_use_all_periods(self):
        pre = tuple(range(-12, 0))
        assert fitting_periods_for_level(pre, 10) == pre
        assert fitting_periods_for_level(pre, 28) == pre

    def test_constant_panel_zero_effects(self):
        countries = tuple(f"C{i:02d}" for i in range(7))
        panel = PanelSeries("y", countries, tuple(range(-6, 3)), np.full((7, 9), 4.0))
        cfg = default_cfg(panel)
        fit = run_unit_fit(panel, "C00", countries[1:], cfg)
        assert fit.effects == pytest.approx(np.zeros(9), abs=1e-12)

    def test_step_treatment_sign_recovered_at_all_levels(self, tmp_path):
        spec = CorpusSpec(
            countries=("UG", "KE", "GH", "RW", "TZ", "ZM", "ZW", "SN"),
            pre_days=60, post_days=20, base_users=8.0,
            treated_user_drop=0.35, seed=13,
        )
        write_corpus(tmp_path, spec)
        lexicons = load_lexicons()
        records = bot_filter(read_tweets_csv(tmp_path / "tweets.csv"), lexicons)
        table = tweet_table(records, lexicons, spec.anchor)
        results = aggregation_suite("UG", level_prepare(table, (60, 20)), (1, 7, 10, 28))
        for level, res in results.items():
            assert res.averaged.value < 0.0, f"level {level} missed the drop"
        # the subsampled levels carry an optimized diagonal, the rest uniform
        assert len(set(np.round(results[1].fit.v_diag, 12))) >= 1
        assert results[10].fit.v_diag == pytest.approx(
            np.full(len(results[10].fit.v_diag), 1 / len(results[10].fit.v_diag))
        )

    def test_levels_regroup_the_table_without_matching(self, tmp_path, monkeypatch):
        spec = CorpusSpec(
            countries=("UG", "KE", "GH", "RW", "TZ", "ZM", "ZW"),
            pre_days=60, post_days=20, base_users=6.0, seed=17,
        )
        write_corpus(tmp_path, spec)
        lexicons = load_lexicons()
        records = bot_filter(read_tweets_csv(tmp_path / "tweets.csv"), lexicons)
        table = tweet_table(records, lexicons, spec.anchor)

        def no_matching(*args):
            raise AssertionError("a calendar ran a lexicon pass")

        monkeypatch.setattr(classify, "ascii_lower", no_matching)
        monkeypatch.setattr(classify, "match_phrases", no_matching)
        results = aggregation_suite("UG", level_prepare(table, (60, 20)), (10, 28))
        for level, periods in ((10, (-6, 1)), (28, (-3, 0))):
            cal = PeriodCalendar(anchor_date=spec.anchor, period_length_days=level)
            users = twitter_outcomes(user_period_flags(table, cal), table, periods=periods)["users"]
            panel = results[level].panel
            assert panel.periods == users.periods
            assert np.array_equal(panel.values, users.select_countries(panel.countries).log1p().values)
