import functools
import hashlib
import math
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from dgp import factor_panel, noiseless_hull_panel, TREATED
from oracles import grid_search, grid_search_fiber, grid_search_full, objective_direct, reference_simplex_qp
from synthpanel import synth
from synthpanel.errors import DataError, InferenceError
from synthpanel.panel import PanelSeries
from synthpanel.synth import (
    SynthProblem,
    WeightVector,
    effect_series,
    fit_objective,
    fit_stack,
    fit_synth,
    fit_weights,
    mspe,
    optimize_v,
)


def incumbent_start_search(problem):
    """optimize_v as it was with every candidate started from the incumbent's weights.

    Each candidate is solved once, as in optimize_v, and scored by the
    full-pre MSPE of its weights.
    """
    p = len(problem.pre_periods)
    v = np.full(p, 1.0 / p)
    w = synth._weights(problem, v)
    best = mspe(problem, w, problem.all_pre_periods)
    scored = {}
    step = 0.5
    for _ in range(200):
        improved = False
        for i in range(p):
            for direction in (1.0, -1.0):
                candidate = v.copy()
                candidate[i] = max(0.0, candidate[i] + direction * step)
                total = candidate.sum()
                if total <= 0.0:
                    continue
                candidate /= total
                if np.abs(candidate - v).max() <= 1e-15:
                    continue
                key = candidate.tobytes()
                if key not in scored:
                    w_candidate = synth._weights(problem, candidate, w.w)
                    scored[key] = (w_candidate, mspe(problem, w_candidate, problem.all_pre_periods))
                w_candidate, score = scored[key]
                if score < best - 1e-15:
                    v, w, best = candidate, w_candidate, score
                    improved = True
        if not improved:
            step *= 0.5
            if step < 1e-6:
                break
    return v, w


def count_equality_solves(monkeypatch, fn, *args):
    """fn(*args) and the number of synth._equality_solve calls it made."""
    solve, calls = synth._equality_solve, []

    def counted(*solve_args):
        calls.append(None)
        return solve(*solve_args)

    monkeypatch.setattr(synth, "_equality_solve", counted)
    result = fn(*args)
    monkeypatch.setattr(synth, "_equality_solve", solve)
    return result, len(calls)


def problem_from_values(values, n_pre, n_post=3, treated_row=0):
    values = np.asarray(values, dtype=float)
    n_units = values.shape[0]
    countries = tuple(f"C{i:02d}" for i in range(n_units))
    panel = PanelSeries("y", countries, tuple(range(-n_pre, n_post)), values)
    donors = tuple(c for i, c in enumerate(countries) if i != treated_row)
    return SynthProblem(
        treated=countries[treated_row],
        donors=donors,
        pre_periods=tuple(range(-n_pre, 0)),
        all_pre_periods=tuple(range(-n_pre, 0)),
        post_periods=tuple(range(0, n_post)),
        Y=panel,
    )


def random_problem(seed, n_donors=None, n_pre=None):
    rng = np.random.default_rng(seed)
    n_donors = n_donors or int(rng.integers(2, 5))
    n_pre = n_pre or int(rng.integers(3, 7))
    values = rng.normal(0.0, 1.0, (n_donors + 1, n_pre + 3))
    return problem_from_values(values, n_pre)


class TestFitWeights:
    def test_donor_identical_to_treated_takes_all_weight(self):
        values = np.array([
            [1.0, 2.0, 3.0, 0, 0, 0],
            [1.0, 2.0, 3.0, 0, 0, 0],   # exact twin of the treated
            [9.0, 9.0, 9.0, 0, 0, 0],
        ])
        problem = problem_from_values(values, n_pre=3)
        w = fit_weights(problem)
        assert w.w == pytest.approx([1.0, 0.0], abs=1e-9)
        assert fit_objective(problem, w) == pytest.approx(0.0, abs=1e-16)

    def test_midpoint_of_two_donors(self):
        values = np.array([
            [1.0, 3.0, 2.0, 0, 0, 0],
            [0.0, 2.0, 1.0, 0, 0, 0],
            [2.0, 4.0, 3.0, 0, 0, 0],
        ])
        problem = problem_from_values(values, n_pre=3)
        w = fit_weights(problem)
        assert w.w == pytest.approx([0.5, 0.5], abs=1e-8)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_grid_search(self, seed):
        problem = random_problem(seed, n_donors=4, n_pre=6)
        w = fit_weights(problem)
        x0, X1 = problem.x0, problem.X1
        v = np.full(6, 1 / 6)
        assert fit_objective(problem, w) <= grid_search_fiber(x0, X1, v, 0.001) + 1e-8

    @pytest.mark.parametrize("seed", range(12))
    def test_vertex_optimality(self, seed):
        problem = random_problem(seed)
        w = fit_weights(problem)
        f = fit_objective(problem, w)
        n = len(problem.donors)
        for j in range(n):
            vertex = np.zeros(n)
            vertex[j] = 1.0
            assert f <= fit_objective(problem, WeightVector(vertex)) + 1e-10

    @pytest.mark.parametrize("seed", range(6))
    def test_simplex_constraints(self, seed):
        w = fit_weights(random_problem(seed)).w
        assert abs(w.sum() - 1.0) <= 1e-9
        assert w.min() >= -1e-9

    def test_donor_reordering_permutes_weights(self):
        problem = random_problem(42, n_donors=4, n_pre=5)
        w = fit_weights(problem)
        perm = [2, 0, 3, 1]
        reordered = SynthProblem(
            treated=problem.treated,
            donors=tuple(problem.donors[i] for i in perm),
            pre_periods=problem.pre_periods,
            all_pre_periods=problem.all_pre_periods,
            post_periods=problem.post_periods,
            Y=problem.Y,
        )
        w2 = fit_weights(reordered)
        assert fit_objective(problem, w) == pytest.approx(
            fit_objective(reordered, w2), abs=1e-10
        )
        assert w2.w == pytest.approx(w.w[perm], abs=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    def test_duplicate_donor_cannot_hurt(self, seed):
        problem = random_problem(seed, n_donors=3, n_pre=5)
        f = fit_objective(problem, fit_weights(problem))
        values = problem.Y.values
        extended = np.vstack([values, values[1]])  # duplicate first donor
        countries = problem.Y.countries + ("C99",)
        panel = PanelSeries("y", countries, problem.Y.periods, extended)
        bigger = SynthProblem(
            treated=problem.treated,
            donors=problem.donors + ("C99",),
            pre_periods=problem.pre_periods,
            all_pre_periods=problem.all_pre_periods,
            post_periods=problem.post_periods,
            Y=panel,
        )
        f_bigger = fit_objective(bigger, fit_weights(bigger))
        assert f_bigger <= f + 1e-10

    def test_zero_noise_hull_recovery(self):
        panel, _ = noiseless_hull_panel(seed=5)
        donors = tuple(c for c in panel.countries if c != "C00")
        problem = SynthProblem(
            "C00", donors, tuple(range(-12, 0)), tuple(range(-12, 0)),
            tuple(range(0, 5)), panel,
        )
        fit = fit_synth(problem)
        pre_idx = [panel.period_index(t) for t in range(-12, 0)]
        assert np.abs(fit.effects[pre_idx]).max() < 1e-8

    def test_non_finite_values_rejected(self):
        values = np.ones((3, 6))
        values[1, 0] = np.nan
        problem = problem_from_values(values, n_pre=3)
        with pytest.raises(DataError):
            fit_weights(problem)

    def test_ties_resolve_from_uniform_seed(self):
        # identical donors all matching the treated: any split is optimal;
        # the deterministic seed keeps the uniform split
        for n_donors in (2, 3):
            values = np.tile([1.0, 2.0, 0, 0, 0], (n_donors + 1, 1))
            w = fit_weights(problem_from_values(values, n_pre=2))
            assert w.w == pytest.approx(np.full(n_donors, 1 / n_donors), abs=1e-9)
        # an all-zero fitting window makes the objective constant
        w = fit_weights(problem_from_values(np.zeros((5, 5)), n_pre=2))
        assert w.w == pytest.approx(np.full(4, 0.25), abs=1e-12)

    def test_solver_without_answer_raises(self, monkeypatch):
        # a KKT solve with no finite answer must not pass as weights
        monkeypatch.setattr(synth, "_equality_solve", lambda *args: None)
        with pytest.raises(InferenceError, match="no optimum"):
            fit_weights(random_problem(0))


class TestSimplexChecks:
    """nan fails every comparison, so each check must be written to fail on it."""

    @pytest.mark.parametrize("w", [[np.nan, 1.0], [0.5, 0.5, np.nan]])
    def test_weight_vector_refuses_nan(self, w):
        with pytest.raises(DataError, match="simplex constraints"):
            WeightVector(np.array(w))

    def test_weight_vector_refuses_empty(self):
        with pytest.raises(DataError, match="nonempty vector"):
            WeightVector(np.array([]))

    def test_v_diag_refuses_nan(self):
        # the fit must blame the diagonal, not the outcome data
        with pytest.raises(DataError, match="v_diag entries"):
            fit_synth(random_problem(0, n_pre=4), np.array([np.nan, 0.5, 0.25, 0.25]))


class TestGridOracleSelfCheck:
    """The fiber shortcut must reproduce plain enumeration exactly."""

    @pytest.mark.parametrize("seed", range(5))
    def test_three_donors_full_grid(self, seed):
        problem = random_problem(seed, n_donors=3, n_pre=4)
        x0, X1 = problem.x0, problem.X1
        v = np.full(4, 0.25)
        full = grid_search_full(x0, X1, v, step=0.02)
        fiber = grid_search_fiber(x0, X1, v, step=0.02)
        assert fiber == pytest.approx(full, abs=1e-13)

    @pytest.mark.parametrize("seed", range(3))
    def test_four_donors_coarse_grid(self, seed):
        problem = random_problem(seed + 50, n_donors=4, n_pre=5)
        x0, X1 = problem.x0, problem.X1
        v = np.full(5, 0.2)
        full = grid_search_full(x0, X1, v, step=0.05)
        fiber = grid_search_fiber(x0, X1, v, step=0.05)
        assert fiber == pytest.approx(full, abs=1e-13)


class TestEffectSeries:
    def test_perfect_pre_fit_gives_zero_pre_effects(self):
        panel, _ = noiseless_hull_panel(seed=2)
        donors = tuple(c for c in panel.countries if c != "C00")
        problem = SynthProblem(
            "C00", donors, tuple(range(-12, 0)), tuple(range(-12, 0)),
            tuple(range(0, 5)), panel,
        )
        effects = effect_series(problem, fit_weights(problem))
        assert np.abs(effects[:12]).max() < 1e-8

    def test_post_shift_linearity(self):
        problem = random_problem(9, n_donors=3, n_pre=5)
        w = fit_weights(problem)
        base = effect_series(problem, w)
        shifted_values = problem.Y.values.copy()
        shifted_values[1:, 5:] += 2.5  # all donors shift post periods by +c
        panel = PanelSeries("y", problem.Y.countries, problem.Y.periods, shifted_values)
        shifted_problem = SynthProblem(
            problem.treated, problem.donors, problem.pre_periods,
            problem.all_pre_periods, problem.post_periods, panel,
        )
        shifted = effect_series(shifted_problem, w)
        assert shifted[5:] == pytest.approx(base[5:] - 2.5, abs=1e-12)
        assert shifted[:5] == pytest.approx(base[:5], abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_direct_recomputation_oracle(self, seed):
        problem = random_problem(seed)
        w = fit_weights(problem)
        effects = effect_series(problem, w)
        for i, t in enumerate(problem.Y.periods):
            synthetic = sum(
                wj * problem.Y.value(d, t) for wj, d in zip(w.w, problem.donors)
            )
            assert effects[i] == pytest.approx(
                problem.Y.value(problem.treated, t) - synthetic, abs=1e-12
            )


class TestOptimizeV:
    def make_subsampled(self, seed, corrupt_period=None):
        rng = np.random.default_rng(seed)
        panel = factor_panel(seed, n_donors=8, n_pre=12, n_post=4, noise_sd=0.01)
        values = panel.values.copy()
        if corrupt_period is not None:
            # blow up the treated unit's noise in one fitting period
            values[0, panel.period_index(corrupt_period)] += rng.normal(0, 0.5)
        panel = PanelSeries(panel.outcome_name, panel.countries, panel.periods, values)
        donors = tuple(c for c in panel.countries if c != TREATED)
        fit_pre = tuple(range(-12, 0, 3))  # subsample: every 3rd period
        return SynthProblem(
            TREATED, donors, fit_pre, tuple(range(-12, 0)), tuple(range(0, 4)), panel,
        )

    def test_degenerate_subsample_returns_uniform(self):
        panel = factor_panel(1, n_donors=6, n_pre=8, n_post=3)
        donors = tuple(c for c in panel.countries if c != TREATED)
        problem = SynthProblem(
            TREATED, donors, tuple(range(-8, 0)), tuple(range(-8, 0)),
            tuple(range(0, 3)), panel,
        )
        v, _ = optimize_v(problem)
        assert v == pytest.approx(np.full(8, 1 / 8), abs=1e-15)

    @pytest.mark.parametrize("seed", range(4))
    def test_never_worse_than_uniform(self, seed):
        problem = self.make_subsampled(seed)
        v, w = optimize_v(problem)
        uniform_w = fit_weights(problem)
        assert mspe(problem, w, problem.all_pre_periods) <= mspe(
            problem, uniform_w, problem.all_pre_periods
        ) + 1e-15
        assert v.min() >= 0.0
        assert v.sum() == pytest.approx(1.0, abs=1e-9)

    def test_noisy_period_weight_shrinks(self):
        # a fitting period corrupted by noise should carry less weight
        # than uniform, on average across draws
        corrupted_weights = []
        for seed in range(12):
            problem = self.make_subsampled(seed, corrupt_period=-6)
            v, _ = optimize_v(problem)
            corrupted_weights.append(v[list(problem.pre_periods).index(-6)])
        assert np.mean(corrupted_weights) < 1.0 / 4  # uniform would be 1/4

    def search_case(self, name):
        """Subsampled problems for checking the V search itself."""
        if name.startswith("seed"):
            return self.make_subsampled(int(name[4:]))
        base = self.make_subsampled(0)
        panel, donors, fit_pre = base.Y, base.donors, base.pre_periods
        if name == "duplicate-donor":
            values = np.vstack([panel.values, panel.series(donors[2])])
            panel = PanelSeries(panel.outcome_name, panel.countries + ("C99",), panel.periods, values)
            donors = donors + ("C99",)
        elif name == "two-periods":
            # the first step already puts all of V on one period: A has rank 1
            fit_pre = (-7, -1)
        return SynthProblem(
            TREATED, donors, fit_pre, base.all_pre_periods, base.post_periods, panel
        )

    SEARCH_CASES = ("seed0", "seed1", "seed2", "seed3", "duplicate-donor", "two-periods")

    @pytest.mark.parametrize("case", SEARCH_CASES)
    def test_matches_one_refit_per_candidate(self, case):
        # the search written as one public fit_weights/mspe call per candidate
        problem = self.search_case(case)
        p = len(problem.pre_periods)
        v = np.full(p, 1.0 / p)
        w = fit_weights(problem, v)
        best = mspe(problem, w, problem.all_pre_periods)
        step = 0.5
        for _ in range(200):
            improved = False
            for i in range(p):
                for direction in (1.0, -1.0):
                    candidate = v.copy()
                    candidate[i] = max(0.0, candidate[i] + direction * step)
                    total = candidate.sum()
                    if total <= 0.0:
                        continue
                    candidate /= total
                    if np.allclose(candidate, v, rtol=0.0, atol=1e-15):
                        continue
                    w_candidate = fit_weights(problem, candidate)
                    score = mspe(problem, w_candidate, problem.all_pre_periods)
                    if score < best - 1e-15:
                        v, w, best = candidate, w_candidate, score
                        improved = True
            if not improved:
                step *= 0.5
                if step < 1e-6:
                    break
        v_search, w_search = optimize_v(problem)
        assert np.array_equal(v_search, v)
        assert np.array_equal(w_search.w, w.w)

    @pytest.mark.parametrize("case", SEARCH_CASES)
    def test_same_search_when_every_certificate_is_refused(self, case, monkeypatch):
        problem = self.search_case(case)
        certified, verdicts = synth._certified, []

        def recorded(*args):
            verdicts.append(certified(*args))
            return verdicts[-1]

        monkeypatch.setattr(synth, "_certified", recorded)
        v, w = optimize_v(problem)
        assert any(verdicts)  # the search does take warm answers
        monkeypatch.setattr(synth, "_certified", lambda *args: False)
        v_cold, w_cold = optimize_v(problem)
        assert np.array_equal(v, v_cold)
        assert np.array_equal(w.w, w_cold.w)

    @pytest.mark.parametrize("case", SEARCH_CASES)
    def test_same_search_as_incumbent_starts(self, case):
        # a move's last answer and the incumbent's weights are both warm
        # starts under the certificate, so either gives the cold solve's bits;
        # on these short searches either start may take more equality solves
        problem = self.search_case(case)
        v, w = optimize_v(problem)
        v_incumbent, w_incumbent = incumbent_start_search(problem)
        assert np.array_equal(v, v_incumbent)
        assert np.array_equal(w.w, w_incumbent.w)

    @pytest.mark.parametrize("case", SEARCH_CASES)
    def test_local_optimum_at_final_step(self, case):
        # no move of the last step tried (0.5 * 2**-18 with the default
        # min_step) on any coordinate lowers the full-pre MSPE
        problem = self.search_case(case)
        v, w = optimize_v(problem)
        best = mspe(problem, w, problem.all_pre_periods)
        step = 0.5 * 2.0**-18
        for i in range(v.size):
            for direction in (1.0, -1.0):
                candidate = v.copy()
                candidate[i] = max(0.0, candidate[i] + direction * step)
                candidate /= candidate.sum()
                if np.abs(candidate - v).max() <= 1e-15:
                    continue
                score = mspe(problem, fit_weights(problem, candidate), problem.all_pre_periods)
                assert score >= best - 1e-15, (i, direction)


V_SEARCH_GOLDEN = json.loads((Path(__file__).parent / "data" / "v_search_golden.json").read_text())["cases"]


def from_hex(values):
    return np.array([float.fromhex(x) for x in values])


def golden_problem(case):
    countries = (case["treated"], *case["donors"])
    first, last = case["periods"]
    panel = PanelSeries("y", countries, tuple(range(first, last + 1)),
                        np.array([from_hex(row) for row in case["rows"]]))
    return SynthProblem(
        case["treated"], tuple(case["donors"]), tuple(case["pre_periods"]),
        tuple(case["all_pre_periods"]), tuple(case["post_periods"]), panel,
    )


class TestVSearchGolden:
    """V searches captured from all-figures, replayed bit for bit.

    The CSV outputs print 12 significant digits, so they can hide a change
    in the last bit of v, w or the pre-window RMSE; these cases compare the
    bits themselves. A candidate's score shows in v and w only once it flips
    an accept decision, so the bits of every score are compared too.
    """

    # each case through the solver's LAPACK gufuncs, and again ("-public") through np.linalg
    @pytest.mark.parametrize("case, public", [(case, public) for case in V_SEARCH_GOLDEN for public in (False, True)],
                             ids=[case["id"] + ("-public" if public else "")
                                  for case in V_SEARCH_GOLDEN for public in (False, True)])
    def test_same_bits_as_captured(self, case, public, monkeypatch, request):
        if public:
            request.getfixturevalue("public_lapack")
        countries = (case["treated"], *case["donors"])
        first, last = case["periods"]
        panel = PanelSeries("y", countries, tuple(range(first, last + 1)),
                            np.array([from_hex(row) for row in case["rows"]]))
        problem = SynthProblem(
            case["treated"], tuple(case["donors"]), tuple(case["pre_periods"]),
            tuple(case["all_pre_periods"]), tuple(case["post_periods"]), panel,
        )
        assert np.array_equal(problem.x0, from_hex(case["x0"]))
        assert np.array_equal(problem.X1, np.array([from_hex(row) for row in case["X1"]]))
        pre_mspe, scores = synth._pre_mspe, []

        def recorded(*args):
            scores.append(pre_mspe(*args))
            return scores[-1]

        monkeypatch.setattr(synth, "_pre_mspe", recorded)
        v, w = optimize_v(problem)
        assert len(scores) == case["scores"]
        assert hashlib.sha256("\n".join(x.hex() for x in scores).encode()).hexdigest() == case["scores_sha256"]
        assert [x.hex() for x in v.tolist()] == case["v"]
        assert [x.hex() for x in w.w.tolist()] == case["w"]
        # the pre-window MSPE that scores every candidate, at the returned weights
        assert synth.package_fit(problem, w, v).rmse_pre.hex() == case["rmse_pre"]

    def test_bound_lapack_calls_match_public_calls(self, lapack_inputs):
        # every KKT system and reduced Hessian of the three searches
        for case in V_SEARCH_GOLDEN:
            optimize_v(golden_problem(case))
        assert len(lapack_inputs.systems) > 5000 and len(lapack_inputs.hessians) > 1000
        lapack_inputs.assert_public_bits()

    def test_one_least_squares_call_per_equality_solve(self, lapack_inputs, monkeypatch):
        # a solve hidden outside _equality_solve would raise the LAPACK count.
        # The search's first fit, on uniform V, has no start: the probe walks
        # it to its final support on LU solves, and its exact walk then takes
        # 1 equality solve where it took 5 from the vertex (3,458 in all)
        case = next(case for case in V_SEARCH_GOLDEN if case["id"] == "users-level1-SN")
        _, solves = count_equality_solves(monkeypatch, optimize_v, golden_problem(case))
        assert solves == len(lapack_inputs.systems) == 3454

    @pytest.mark.parametrize("case", V_SEARCH_GOLDEN, ids=[case["id"] for case in V_SEARCH_GOLDEN])
    def test_fewer_equality_solves_than_incumbent_starts(self, case, monkeypatch):
        # these searches retry each move for hundreds of candidates from a v
        # that has barely moved, so the move's last answer is usually on the
        # candidate's final support and the warm attempt ends at its first solve
        problem = golden_problem(case)
        (v, w), solves = count_equality_solves(monkeypatch, optimize_v, problem)
        (v_incumbent, w_incumbent), incumbent_solves = count_equality_solves(
            monkeypatch, incumbent_start_search, problem)
        assert np.array_equal(v, v_incumbent)
        assert np.array_equal(w.w, w_incumbent.w)
        assert solves < incumbent_solves


@st.composite
def warm_started_qps(draw):
    """(A, b, start) of a V-search QP with V on 1-3 periods, and an incumbent.

    Donor columns may repeat, the window may be all zero, and the values
    are scaled by 1e-6 to 1e6.
    """
    n = draw(st.integers(min_value=2, max_value=20))
    p = draw(st.integers(min_value=1, max_value=3))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    X1 = rng.normal(size=(p, n))
    x0 = rng.normal(size=p)
    for j in range(draw(st.integers(min_value=0, max_value=min(3, n - 1)))):
        X1[:, n - 1 - j] = X1[:, j]
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        X1[:], x0[:] = 0.0, 0.0
    scale = 10.0 ** draw(st.integers(min_value=-6, max_value=6))
    X1, x0 = scale * X1, scale * x0
    v = rng.dirichlet(np.ones(p))
    start = np.zeros(n)
    held = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
    start[held] = rng.dirichlet(np.ones(held.size))
    return X1.T @ (v[:, None] * X1), X1.T @ (v * x0), start


class TestWarmStart:
    @given(warm_started_qps())
    @settings(max_examples=300)
    def test_certified_warm_answer_is_the_cold_answer(self, qp):
        A, b, start = qp
        try:
            cold = synth._solve_alone(A, b)
        except InferenceError:
            # from a value scale of about 1e2 some KKT systems are too badly
            # conditioned for the cold solve; then it has no answer to match
            return
        warm = synth._active_set(A, b, start.copy(), start > 0, *synth._bordered(A, b))
        if warm is not None and synth._certified(A, b, *warm):
            assert np.array_equal(warm[0], cold)
            # duplicate donors on the support would make the minimizer non-unique
            held = np.flatnonzero(warm[1])
            assert np.unique(A[held], axis=0).shape[0] == held.size
        assert np.array_equal(synth._solve_simplex_qp(A, b, start), cold)

    @pytest.mark.parametrize("treated", [[1.0, 2.0], [2.0, 4.0]], ids=["in-hull", "off-hull"])
    @pytest.mark.parametrize("start", [[0.3, 0.7, 0.0], [0.2, 0.2, 0.6]])
    def test_non_unique_minimizer_is_refused(self, treated, start):
        # two identical donors nearest the treated: every split of the
        # weight between them is a minimizer. In the hull every gradient
        # is zero; off it the gradients keep a gap and only the reduced
        # Hessian shows the split is free
        X1 = np.array([[1.0, 1.0, 5.0], [2.0, 2.0, -3.0]])
        v = np.array([0.5, 0.5])
        A, b = X1.T @ (v[:, None] * X1), X1.T @ (v * np.array(treated))
        start = np.array(start)
        warm = synth._active_set(A, b, start.copy(), start > 0, *synth._bordered(A, b))
        assert warm is not None
        assert warm[0][:2].sum() == pytest.approx(1.0, abs=1e-12)  # a minimizer ...
        assert not synth._certified(A, b, *warm)  # ... but not the only one
        cold = synth._solve_alone(A, b)
        assert np.array_equal(synth._solve_simplex_qp(A, b, start), cold)

    def test_non_stationary_cold_answer_is_refused(self):
        # scaled so badly that lstsq truncates the KKT system on both donors:
        # its answer is not stationary there, so the cold run refuses it. The
        # rerun at a power-of-two scale finds the minimizer [0, 1], which the
        # warm start from it also finds and certifies
        A = np.array([[4.64840963e8, 2.89633425e7], [2.89633425e7, 1.01375109e7]])
        b = np.array([17709968.50410161, 1664059.01463281])
        uniform = np.full(2, 0.5)
        assert synth._active_set(A, b, uniform, uniform > 0, *synth._bordered(A, b)) is None
        assert np.array_equal(synth._solve_alone(A, b), [0.0, 1.0])
        start = np.array([0.0, 1.0])
        assert np.array_equal(synth._solve_simplex_qp(A, b, start), start)

    def test_warm_start_left_without_weight_falls_back_to_cold(self):
        # so badly scaled that lstsq truncates the equality solve on donor 0
        # alone to a negative weight: the ratio test drops the only support
        # donor and leaves no weight, so the warm attempt ends and the cold
        # solve runs
        A = np.array([[5.33e7, -5.24e6], [-5.24e6, 2.66e6]])
        b = np.array([-2.12e7, 8.77e6])
        start = np.array([1.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert synth._active_set(A, b, start.copy(), start > 0, *synth._bordered(A, b)) is None
            cold = synth._solve_alone(A, b)
            assert np.array_equal(cold, [0.0, 1.0])
            assert np.array_equal(synth._solve_simplex_qp(A, b, start), cold)

    def full_rank_qp(self):
        problem = random_problem(3, n_donors=4, n_pre=6)
        x0, X1, v = problem.x0, problem.X1, np.full(6, 1 / 6)
        return X1.T @ (v[:, None] * X1), X1.T @ (v * x0)

    def test_unique_minimizer_is_certified(self):
        A, b = self.full_rank_qp()
        cold = synth._solve_alone(A, b)
        start = np.full(4, 0.25)
        warm = synth._active_set(A, b, start.copy(), start > 0, *synth._bordered(A, b))
        assert synth._certified(A, b, *warm)
        assert np.array_equal(warm[0], cold)

    @pytest.mark.parametrize("start", [[0.1, 0.2, 0.3, 0.4], [0.0, 0.5, 0.0, 0.5]])
    def test_warm_start_reads_start_without_writing_it(self, start):
        # the V search hands the incumbent's read-only weights to the solver
        # without a copy; a write into them would raise here
        A, b = self.full_rank_qp()
        start = np.array(start)
        start.setflags(write=False)
        assert np.array_equal(synth._solve_simplex_qp(A, b, start), synth._solve_alone(A, b))

    @pytest.mark.parametrize("name", ["lstsq", "eigvalsh", "solve"])
    def test_raising_public_call_is_refused_like_nan(self, name, monkeypatch, request):
        # numpy 1.x binds np.linalg's calls, which raise LinAlgError where the
        # gufuncs return nan; the binding returns nan instead, so the probe
        # stops or the warm attempt is refused, and the answer is the cold one
        A, b = self.full_rank_qp()
        cold = synth._solve_alone(A, b)
        real, calls = getattr(np.linalg, name), []

        def first_call_raises(*args):
            calls.append(None)
            if len(calls) == 1:
                raise np.linalg.LinAlgError(f"{name} failed")
            return real(*args)

        monkeypatch.setattr(np.linalg, name, first_call_raises)
        request.getfixturevalue("public_lapack")  # binds the patched call
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(synth._solve_alone(A, b), cold)
        assert calls

    @pytest.mark.parametrize("name, failed", [
        ("_equality_solve", lambda *args: None),
        # a failed LAPACK call returns nan and raises the invalid flag, which must not warn
        ("_lstsq", lambda a, rhs, rcond: (np.sqrt(np.full(rhs.shape, -1.0)),)),
        ("_eigvalsh", lambda a: np.sqrt(np.full(len(a), -1.0))),
    ], ids=["non-finite", "lapack-fails", "eigvalsh-fails"])
    def test_failed_warm_attempt_falls_back_to_cold(self, name, failed, monkeypatch):
        A, b = self.full_rank_qp()
        cold = synth._solve_alone(A, b)
        real, calls = getattr(synth, name), []

        def first_call_fails(*args):
            calls.append(None)
            return (failed if len(calls) == 1 else real)(*args)

        monkeypatch.setattr(synth, name, first_call_fails)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(synth._solve_simplex_qp(A, b, np.array([0.1, 0.2, 0.3, 0.4])), cold)
        assert calls


def assert_cold_bits_of_the_reference(A, b):
    """The solver without a start gives the reference's cold bits, or fails as it does."""
    try:
        expected = reference_simplex_qp(A, b, None)
    except InferenceError:
        with pytest.raises(InferenceError):
            synth._solve_alone(A, b)
        return
    assert synth._solve_alone(A, b).tobytes() == expected.tobytes()


@st.composite
def reference_qps(draw):
    """(A, b, start): a QP with 1-3 duplicated donors, values scaled by 1 to 1e6, and simplex weights.

    V sits on 1-8 periods, so A is often rank-deficient beyond the
    duplicates; from a scale of about 1e2 many cold solves need the retry.
    """
    n = draw(st.integers(min_value=2, max_value=20))
    p = draw(st.integers(min_value=1, max_value=8))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    X1 = rng.normal(size=(p, n))
    x0 = rng.normal(size=p)
    for j in range(draw(st.integers(min_value=1, max_value=min(3, n - 1)))):
        X1[:, n - 1 - j] = X1[:, j]
    scale = 10.0 ** draw(st.integers(min_value=0, max_value=6))
    X1, x0 = scale * X1, scale * x0
    v = rng.dirichlet(np.ones(p))
    start = np.zeros(n)
    held = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
    start[held] = rng.dirichlet(np.ones(held.size))
    return X1.T @ (v[:, None] * X1), X1.T @ (v * x0), start


@st.composite
def panel_problems(draw):
    """Uniform-V problems on one panel and period split, with 3-25 donors.

    Donor counts are mixed, so the stack splits by donor count, and each
    count repeats, so its stack holds several QPs. Donor rows may repeat,
    the fitting window may be all zero, and one donor row or the first
    problem's treated row may hold a nan in the fitting window.
    """
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    units = draw(st.integers(min_value=5, max_value=26))
    n_pre = draw(st.integers(min_value=2, max_value=12))
    values = rng.normal(size=(units, n_pre + 3)) * 10.0 ** draw(st.integers(min_value=-3, max_value=3))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        i, j = rng.choice(units, size=2, replace=False)
        values[i] = values[j]
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        values[:, :n_pre] = 0.0
    countries = tuple(f"C{i:02d}" for i in range(units))
    pools = []
    for count in draw(st.lists(st.integers(min_value=3, max_value=min(25, units - 1)), min_size=1, max_size=3)):
        for _ in range(draw(st.integers(min_value=1, max_value=4))):
            chosen = rng.choice(units, size=count + 1, replace=False)
            pools.append((countries[chosen[0]], tuple(countries[i] for i in chosen[1:])))
    nan = draw(st.sampled_from([None, None, "donor", "treated"]))
    if nan is not None:
        treated, donors = pools[0]
        values[countries.index(treated if nan == "treated" else donors[-1]), rng.integers(n_pre)] = np.nan
    panel = PanelSeries("y", countries, tuple(range(-n_pre, 3)), values)
    pre = tuple(range(-n_pre, 0))
    fitting = pre[::draw(st.integers(min_value=1, max_value=2))]
    return [SynthProblem(treated, donors, fitting, pre, (0, 1, 2), panel) for treated, donors in pools]


class TestFitStack:
    @given(panel_problems())
    @settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
    def test_same_bits_as_one_fit_each(self, problems):
        # every problem gets the reference solver's cold answer, packaged as
        # package_fit packages it, or, where the reference raises, an error
        # of its type, held without a raise or a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fits = fit_stack(problems)
        assert len(fits) == len(problems)
        for problem, fit in zip(problems, fits):
            v = np.full(problem.x0.size, 1.0 / problem.x0.size)
            X1 = problem.X1
            try:
                w = reference_simplex_qp(X1.T @ (v[:, None] * X1), X1.T @ (v * problem.x0), None)
            except (DataError, InferenceError) as exc:
                assert type(fit) is type(exc)
                continue
            assert isinstance(fit, synth.SynthFit), fit
            effects = problem.treated_row - w @ problem.donor_rows
            pre = effects[problem.pre_idx]
            assert fit.weights.w.tobytes() == w.tobytes()
            assert fit.effects.tobytes() == effects.tobytes()
            assert fit.rmse_pre.hex() == math.sqrt((pre * pre).sum() / pre.size).hex()
            assert fit.v_diag.tobytes() == v.tobytes()


class TestReferenceSolver:
    @given(reference_qps())
    @settings(max_examples=300)
    def test_same_bits_as_the_reference(self, qp):
        # the reference is the solver before its per-call overhead was cut;
        # cold and warm, the solver must give its bits or fail as it does
        A, b, start = qp
        for warm in (None, start):
            solve = synth._solve_alone if warm is None else functools.partial(synth._solve_simplex_qp, start=warm)
            try:
                expected = reference_simplex_qp(A, b, warm)
            except InferenceError:
                with pytest.raises(InferenceError):
                    solve(A, b)
                continue
            assert solve(A, b).tobytes() == expected.tobytes()

    @given(qp=reference_qps())
    @settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_bits_from_any_probe_point(self, qp, stand_in_probe):
        # the stand-in probe is the same for every example, so the fixture needs no reset
        A, b, _ = qp
        assert_cold_bits_of_the_reference(A, b)


@st.composite
def wide_pool_qps(draw):
    """(A, b) of a cold fit shaped like the montecarlo workload's, with uniform V.

    15-25 donors on at least as many periods, their outcomes three common
    factors plus noise, and the treated unit near the hull of three
    donors. In some draws another donor is made a copy of the vertex of
    least objective, so the minimizer on its support is not unique and the
    solve from that vertex is refused.
    """
    n = draw(st.integers(min_value=15, max_value=25))
    p = n + draw(st.integers(min_value=0, max_value=10))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    X1 = rng.normal(size=(p, 3)) @ rng.uniform(0.0, 1.0, (3, n)) + rng.normal(0.0, 0.02, (p, n))
    x0 = X1[:, rng.choice(n, 3, replace=False)] @ rng.dirichlet(np.ones(3)) + rng.normal(0.0, 0.02, p)
    v = np.full(p, 1.0 / p)
    A, b = X1.T @ (v[:, None] * X1), X1.T @ (v * x0)
    if draw(st.booleans()):
        X1[:, draw(st.integers(min_value=0, max_value=n - 1))] = X1[:, (A.diagonal() - 2.0 * b).argmin()]
        A, b = X1.T @ (v[:, None] * X1), X1.T @ (v * x0)
    return A, b


class TestWidePool:
    @given(wide_pool_qps())
    @settings(max_examples=200)
    def test_same_bits_as_the_reference_cold_solve(self, qp):
        assert_cold_bits_of_the_reference(*qp)

    @given(qp=wide_pool_qps())
    @settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_bits_from_any_probe_point(self, qp, stand_in_probe):
        assert_cold_bits_of_the_reference(*qp)

    def test_fewer_equality_solves_than_the_cold_solve(self, monkeypatch):
        # one treated fit of the montecarlo kind: 20 donors, V uniform over 20 periods
        Y = factor_panel(0).values
        X1, x0, v = Y[1:, :20].T, Y[0, :20], np.full(20, 1 / 20)
        A, b = X1.T @ (v[:, None] * X1), X1.T @ (v * x0)
        calls = {}
        for module in (synth, oracles):
            solve = module._equality_solve

            def counted(*args, solve=solve, name=module.__name__):
                calls[name] = calls.get(name, 0) + 1
                return solve(*args)

            monkeypatch.setattr(module, "_equality_solve", counted)
        assert synth._solve_alone(A, b).tobytes() == reference_simplex_qp(A, b, None).tobytes()
        assert calls["synthpanel.synth"] < calls["oracles"]


@st.composite
def scaled_qps(draw):
    """(x0, X1, v, scale): unit-scale data of a V-search QP on 2-3 donors, and a scale of 1e2 to 1e6."""
    n = draw(st.integers(min_value=2, max_value=3))
    p = draw(st.integers(min_value=1, max_value=3))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    scale = 10.0 ** draw(st.integers(min_value=2, max_value=6))
    return rng.normal(size=p), rng.normal(size=(p, n)), rng.dirichlet(np.ones(p)), scale


@st.composite
def exact_fit_qps(draw):
    """(A, b) with uniform V, donors scaled by 1e2 to 1e6, and the treated unit
    a mix of the first donors, exact or off by noise of 1e-9 of the scale."""
    n = draw(st.integers(min_value=2, max_value=11))
    p = draw(st.integers(min_value=2, max_value=19))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    scale = 10.0 ** draw(st.integers(min_value=2, max_value=6))
    X1 = rng.normal(size=(p, n)) * scale
    w = np.zeros(n)
    k = draw(st.integers(min_value=1, max_value=n))
    w[:k] = rng.dirichlet(np.ones(k))
    x0 = X1 @ w + draw(st.sampled_from([0.0, 1e-9])) * scale * rng.normal(size=p)
    v = np.full(p, 1.0 / p)
    return X1.T @ (v[:, None] * X1), X1.T @ (v * x0)


class TestScaledData:
    @given(exact_fit_qps())
    @settings(max_examples=200)
    def test_exact_fit_has_the_reference_bits(self, qp):
        # at a fit this close the gradient is rounding noise, which at this
        # scale can clear the certificate's rounding bound and still fail the
        # solver's stationarity test: then the cold solve's retry, not the
        # probe point, gives the answer
        assert_cold_bits_of_the_reference(*qp)

    @given(scaled_qps())
    @settings(max_examples=200)
    def test_large_values_solve_to_the_grid_optimum(self, qp):
        # the cold run refuses many of these QPs as not stationary; the rerun
        # at a power-of-two scale must find the minimizer the unit-scale data
        # has, judged by the grid oracle on that data
        x0, X1, v, scale = qp
        big_x0, big_X1 = scale * x0, scale * X1
        w = synth._solve_alone(big_X1.T @ (v[:, None] * big_X1), big_X1.T @ (v * big_x0))
        assert objective_direct(x0, X1, v, w[None])[0] <= grid_search(x0, X1, v, 0.001) + 1e-8

    def test_rank_deficient_qp_from_the_demo_corpus(self):
        # the V-search QP on which `aggregate --transform level --outcome
        # tweets` stopped on the default demo corpus: max|A| 5.9e4, rank 2 of
        # 7. The cold run refuses it; the rerun reaches SLSQP's optimum on the
        # same QP scaled to unit size
        qp = json.loads((Path(__file__).parent / "data" / "scaled_qp.json").read_text())
        A = np.array([[float.fromhex(x) for x in row] for row in qp["A"]])
        b = np.array([float.fromhex(x) for x in qp["b"]])
        uniform = np.full(7, 1 / 7)
        assert synth._active_set(A, b, uniform, uniform > 0, *synth._bordered(A, b)) is None
        w = synth._solve_alone(A, b)
        assert w @ A @ w - 2.0 * b @ w == pytest.approx(-46749.1212121, abs=1e-6)
