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
from synthpanel import classify, inference
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
    run_unit_fit,
)
from synthpanel.panel import PanelSeries, PeriodCalendar


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

    @pytest.mark.parametrize("case", COLD_FIT_GOLDEN, ids=[f"seed{case['seed']}" for case in COLD_FIT_GOLDEN])
    def test_same_bits_as_captured(self, case):
        assert cold_fit_bits(case["seed"]) == case


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

    def test_pooled_and_serial_fits_have_the_same_bits(self, report_cpus):
        case = v_search_case()
        panel, _, cfg, _ = case
        runs = {}
        for cpus in (2, 1):
            pools = report_cpus(cpus)
            dist = placebo_distribution(*case)
            fit, estimated = estimate_with_placebos(panel, TREATED, cfg)  # its treated fit is pooled too
            assert multiprocessing.active_children() == []
            runs[cpus] = pools, distribution_bits(dist), fit_bits(fit), distribution_bits(estimated)
        assert (runs[2][0], runs[1][0]) == (["fork", "fork"], [])
        assert runs[2][1:] == runs[1][1:]
        assert dist.excluded  # the twins

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
        real_prepare = inference.prepare_outcome

        def prepare(*args, level_days=None, **kwargs):
            if level_days == failing:
                raise DataError(f"no panel at {failing} days")
            return real_prepare(*args, level_days=level_days, **kwargs)

        def search(problem):
            raise InferenceError("search failed")

        pools = report_cpus(cpus)
        monkeypatch.setattr(inference, "prepare_outcome", prepare)
        monkeypatch.setattr(inference, "optimize_v", search)
        with pytest.raises((DataError, InferenceError), match=f"^{expected}$"):
            aggregation_suite(small_table, "UG", levels=levels, window_days=(60, 20))
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
        results = aggregation_suite(
            tweet_table(records, lexicons, spec.anchor), "UG",
            levels=(1, 7, 10, 28), window_days=(60, 20),
        )
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
        results = aggregation_suite(table, "UG", levels=(10, 28), window_days=(60, 20))
        for level, periods in ((10, (-6, 1)), (28, (-3, 0))):
            cal = PeriodCalendar(anchor_date=spec.anchor, period_length_days=level)
            users = twitter_outcomes(user_period_flags(table, cal), table, periods=periods)["users"]
            panel = results[level].panel
            assert panel.periods == users.periods
            assert np.array_equal(panel.values, users.select_countries(panel.countries).log1p().values)
