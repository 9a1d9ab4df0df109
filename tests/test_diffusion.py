import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

import oracles
from synthpanel.diffusion import (
    PLATFORM_FLOOR,
    PopulationParams,
    ResponseFunction,
    agent_simulation,
    equilibria,
    find_fixed_points,
    phi,
    platform_probability,
    rect_prob,
    theorem1_check,
)
from synthpanel.errors import ConfigurationError, DataError, EmptyPlatformError

P_INDEP = PopulationParams(mu_c=1.0, mu_w=0.5, sigma_c=1.0, sigma_w=1.0, rho=0.0)
V_LIN = ResponseFunction.linear(1.0)


def random_params(rng):
    return PopulationParams(
        mu_c=float(rng.uniform(-1, 2)),
        mu_w=float(rng.uniform(-1, 2)),
        sigma_c=float(rng.uniform(0.3, 2.0)),
        sigma_w=float(rng.uniform(0.3, 2.0)),
        rho=float(rng.uniform(-0.95, 0.95)),
    )


class TestRectProb:
    def test_independence_factorizes(self):
        t, a = 0.3, 0.8
        expected = ndtr((t - 1.0) / 1.0) * (1.0 - ndtr((a - 0.5) / 1.0))
        assert rect_prob(t, a, P_INDEP) == pytest.approx(expected, abs=1e-14)

    def test_vacuous_conditioning_gives_marginal(self):
        p = PopulationParams(mu_c=1.0, mu_w=0.5, sigma_c=1.0, sigma_w=1.0, rho=0.4)
        assert rect_prob(0.3, -1e9, p) == pytest.approx(ndtr(-0.7), abs=1e-12)

    def test_inclusion_exclusion(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            p = random_params(rng)
            t = float(rng.normal(p.mu_c, 2 * p.sigma_c))
            a = float(rng.normal(p.mu_w, 2 * p.sigma_w))
            # P(c<=t, w<a) through the mirrored population exercises the
            # opposite correlation branch
            mirrored = PopulationParams(p.mu_c, -p.mu_w, p.sigma_c, p.sigma_w, -p.rho)
            total = rect_prob(t, a, p) + rect_prob(t, -a, mirrored)
            assert total == pytest.approx(ndtr((t - p.mu_c) / p.sigma_c), abs=1e-9)

    def test_perfect_positive_correlation(self):
        p = PopulationParams(mu_c=0.0, mu_w=0.0, sigma_c=1.0, sigma_w=1.0, rho=1.0)
        # c and w coincide: P(c <= t, c >= a) = Phi(t) - Phi(a) when a < t
        assert rect_prob(1.0, -0.5, p) == pytest.approx(ndtr(1.0) - ndtr(-0.5), abs=1e-14)
        assert rect_prob(-0.5, 1.0, p) == 0.0

    def test_perfect_negative_correlation(self):
        p = PopulationParams(mu_c=0.0, mu_w=0.0, sigma_c=1.0, sigma_w=1.0, rho=-1.0)
        # w = -c: P(c <= t, -c >= a) = Phi(min(t, -a))
        assert rect_prob(0.8, -0.3, p) == pytest.approx(ndtr(0.3), abs=1e-14)

    def test_against_high_precision_quadrature(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30

        def oracle(t, a, p):
            s = mpmath.sqrt(1 - mpmath.mpf(p.rho) ** 2)
            h = (t - p.mu_c) / p.sigma_c
            k = (a - p.mu_w) / p.sigma_w
            f = lambda y: mpmath.npdf(y) * mpmath.ncdf((h - p.rho * y) / s)
            pts = [k]
            if p.rho != 0:
                crit = h / p.rho
                pts.extend(crit + d * float(s) for d in (-8, 0, 8) if crit + d * float(s) > k)
            pts.append(mpmath.inf)
            return float(mpmath.quad(f, sorted(set(pts), key=float)))

        rng = np.random.default_rng(5)
        for rho in (0.2, -0.8, 0.94, -0.99):
            p = PopulationParams(0.4, -0.2, 1.3, 0.7, rho)
            t = float(rng.normal(0.4, 2.0))
            a = float(rng.normal(-0.2, 1.5))
            assert rect_prob(t, a, p) == pytest.approx(oracle(t, a, p), abs=1e-12)

    def test_monte_carlo_oracle_small(self):
        rng = np.random.default_rng(8)
        n = 400_000
        for _ in range(4):
            p = random_params(rng)
            z = rng.standard_normal((n, 2))
            c = p.mu_c + p.sigma_c * z[:, 0]
            w = p.mu_w + p.sigma_w * (p.rho * z[:, 0] + math.sqrt(1 - p.rho**2) * z[:, 1])
            t = float(rng.normal(p.mu_c, p.sigma_c))
            a = float(rng.normal(p.mu_w, p.sigma_w))
            hits = np.mean((c <= t) & (w >= a))
            se = math.sqrt(max(hits * (1 - hits), 1e-12) / n)
            assert abs(rect_prob(t, a, p) - hits) < 4 * se + 1e-6

    def test_vectorized_matches_scalar(self):
        p = random_params(np.random.default_rng(3))
        ts = np.linspace(-2, 2, 7)
        avals = np.linspace(-2, 2, 7)
        vec = rect_prob(ts, avals, p)
        for i in range(7):
            assert vec[i] == pytest.approx(rect_prob(float(ts[i]), float(avals[i]), p), abs=1e-15)


class TestPhi:
    def test_value_at_zero_participation(self):
        # with rho = 0 and v(0) = 0: share of joiners with cost below zero
        assert phi(0.0, 0.5, V_LIN, P_INDEP) == pytest.approx(ndtr(-1.0), abs=1e-12)

    def test_price_drops_out_under_independence(self):
        xs = np.linspace(0, 1, 11)
        a = phi(xs, 0.2, V_LIN, P_INDEP)
        b = phi(xs, 1.4, V_LIN, P_INDEP)
        assert a == pytest.approx(b, abs=1e-12)

    @given(
        x=st.floats(0, 1),
        q=st.floats(-1, 2),
        rho=st.floats(-0.9, 0.9),
        slope=st.floats(0.1, 3.0),
    )
    @settings(max_examples=60)
    def test_output_is_probability(self, x, q, rho, slope):
        p = PopulationParams(0.8, 0.4, 1.1, 0.9, rho)
        value = phi(x, q, ResponseFunction.linear(slope), p)
        assert 0.0 <= value <= 1.0

    def test_empty_platform_raises(self):
        p = PopulationParams(mu_c=1.0, mu_w=0.0, sigma_c=1.0, sigma_w=0.5, rho=0.0)
        with pytest.raises(EmptyPlatformError):
            phi(0.0, 50.0, ResponseFunction.linear(0.1), p)

    def test_monotone_in_x_under_independence(self):
        xs = np.linspace(0, 1, 201)
        values = phi(xs, 0.5, V_LIN, P_INDEP)
        assert np.all(np.diff(values) >= -1e-12)


class TestResponseFunction:
    def test_linear_requires_positive_slope(self):
        with pytest.raises(ConfigurationError):
            ResponseFunction.linear(0.0)

    def test_logistic_vanishes_at_zero_and_increases(self):
        v = ResponseFunction.logistic(scale=1.5, steepness=8.0, midpoint=0.5)
        assert float(v(0.0)) == pytest.approx(0.0, abs=1e-15)
        xs = np.linspace(0, 1, 101)
        assert np.all(np.diff(v(xs)) > 0)

    def test_table_interpolates_through_knots(self):
        v = ResponseFunction.table([(0.5, 0.2), (1.0, 1.0)])
        assert float(v(0.0)) == 0.0
        assert float(v(0.5)) == pytest.approx(0.2)
        assert float(v(0.75)) == pytest.approx(0.6)

    def test_table_rejects_non_increasing(self):
        with pytest.raises(ConfigurationError):
            ResponseFunction.table([(0.5, 0.2), (1.0, 0.1)])


class TestEquilibria:
    def test_constant_map_single_stable_point(self):
        grid = np.linspace(0, 1, 2001)
        points, labels, _ = find_fixed_points(lambda x: np.full_like(np.asarray(x, float), 0.3), grid)
        assert len(points) == 1
        assert points[0] == pytest.approx(0.3, abs=1e-9)
        assert labels == ("stable",)

    def test_identity_map_reports_degenerate_grid(self):
        grid = np.linspace(0, 1, 101)
        points, labels, _ = find_fixed_points(lambda x: np.asarray(x, float), grid)
        assert len(points) == 101
        assert set(labels) == {"degenerate"}

    def test_s_shaped_model_has_three_fixed_points(self):
        p = PopulationParams(mu_c=0.5, mu_w=0.5, sigma_c=0.15, sigma_w=1.0, rho=0.0)
        eq = equilibria(0.3, V_LIN, p)
        assert eq.labels == ("stable", "tipping", "stable")
        # independent graphical oracle: the residual changes sign in the
        # bracketing grid cells around each reported point
        grid = np.linspace(0, 1, 4001)
        residual = phi(grid, 0.3, V_LIN, p) - grid
        for x_star in eq.fixed_points:
            i = int(np.searchsorted(grid, x_star))
            lo, hi = max(0, i - 2), min(len(grid) - 1, i + 2)
            assert residual[lo] * residual[hi] <= 0
        # with rho = 0 the middle point solves ndtr((x - mu_c)/sigma_c) = x
        assert eq.fixed_points[1] == pytest.approx(0.5, abs=1e-9)

    def test_fixed_points_satisfy_residual_bound(self):
        p = PopulationParams(mu_c=0.5, mu_w=0.5, sigma_c=0.15, sigma_w=1.0, rho=-0.6)
        eq = equilibria(0.4, V_LIN, p)
        for x_star in eq.fixed_points:
            assert abs(phi(x_star, 0.4, V_LIN, p) - x_star) < 1e-8

    def test_empty_platform_everywhere_raises(self):
        p = PopulationParams(mu_c=1.0, mu_w=0.0, sigma_c=1.0, sigma_w=0.5, rho=0.0)
        with pytest.raises(EmptyPlatformError):
            equilibria(60.0, ResponseFunction.linear(0.01), p)

    def test_overflow_inside_phi_warns_nothing(self):
        # the grid scan and the fixed-point filter both evaluate phi, whose
        # quadrature overflows harmlessly at so large a valuation mean
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            huge = equilibria(0.0, V_LIN, PopulationParams(1.0, 1e308, 1.0, 1.0, -0.5))
        large = equilibria(0.0, V_LIN, PopulationParams(1.0, 1e150, 1.0, 1.0, -0.5))
        assert huge.labels == large.labels == ("stable",)
        assert huge.fixed_points == large.fixed_points


GRID_RESIDUALS = st.one_of(
    st.sampled_from([0.0, 1e-13, -1e-13, 1e-12, -1e-12, 3e-12, math.nan]),
    st.floats(-1.0, 1.0),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 1.0), GRID_RESIDUALS), min_size=1, max_size=39,
                unique_by=lambda knot: knot[0]))
def test_fixed_points_match_the_frozen_grid_scan(knots):
    """Points, labels and value bits equal the frozen one-point-at-a-time scan's."""
    knots.sort()
    grid = np.array([x for x, _ in knots])
    targets = np.array([x + r for x, r in knots])  # exact zeros, tiny residuals, plateaus, a nan

    def fn(x):  # np.interp could turn a knot beside a nan into a nan, so the grid reads the knots
        return targets if np.ndim(x) else np.interp(x, grid, targets)

    points, labels, values = find_fixed_points(fn, grid)
    ref_points, ref_labels, ref_values = oracles.reference_fixed_points(fn, grid)
    assert [x.hex() for x in points] == [x.hex() for x in ref_points]
    assert labels == ref_labels
    assert values.tobytes() == ref_values.tobytes()


class TestTheorem1:
    def params(self, rho):
        return PopulationParams(mu_c=0.5, mu_w=0.5, sigma_c=0.15, sigma_w=1.0, rho=rho)

    @pytest.mark.parametrize("mu_w, sigma_w, q", [
        (0.5, 1.0, 0.1), (0.5, 1.0, 0.6),  # test_acceptance's grid: every point joins
        (0.0, 0.1, 0.5),  # at q + 0.5 only x above about 0.3 joins
    ])
    @pytest.mark.parametrize("rho", [-0.8, -0.3, 0.0, 0.3, 0.8])
    def test_report_matches_direct_phi_calls(self, mu_w, sigma_w, q, rho):
        v = ResponseFunction.linear(1.0)
        p = PopulationParams(mu_c=0.6, mu_w=mu_w, sigma_c=0.5, sigma_w=sigma_w, rho=rho)
        report = theorem1_check(q, q + 0.5, v, p, grid_n=2001)
        grid = np.linspace(0.0, 1.0, 2001)
        sub = grid[platform_probability(grid, q + 0.5, v, p) > PLATFORM_FLOOR]
        diff = phi(sub, q + 0.5, v, p) - phi(sub, q, v, p)
        sign = int(np.sign(rho))
        bad = {-1: diff < -1e-9, 0: np.abs(diff) > 1e-9, 1: diff > 1e-9}[sign]
        violation = {-1: max(0.0, -diff.min()), 0: np.abs(diff).max(), 1: max(0.0, diff.max())}[sign]
        assert report.passed == (not bad.any())
        assert report.max_violation == float(violation)
        assert report.offending_x == tuple(float(x) for x in sub[bad][:20])
        assert np.array_equal(report.equilibria_high.grid_x, sub)

    def test_zero_covariance_no_change(self):
        report = theorem1_check(0.3, 0.8, V_LIN, self.params(0.0))
        assert report.passed
        assert report.expected == "equal"
        assert report.max_violation < 1e-12

    def test_negative_covariance_raises_phi(self):
        report = theorem1_check(0.3, 0.8, V_LIN, self.params(-0.8))
        assert report.passed
        assert report.expected == "nondecreasing"
        assert report.offending_x == ()

    def test_positive_covariance_lowers_phi(self):
        report = theorem1_check(0.3, 0.8, V_LIN, self.params(0.8))
        assert report.passed
        assert report.expected == "nonincreasing"

    @pytest.mark.parametrize("grid_n", [-1, 0, 1])
    def test_grid_of_fewer_than_two_points_refused(self, grid_n):
        p = PopulationParams(mu_c=0.6, mu_w=0.5, sigma_c=0.5, sigma_w=1.0, rho=0.3)
        with pytest.raises(ConfigurationError, match=f"^grid_n must be at least 2, got {grid_n}$"):
            theorem1_check(0.1, 0.6, ResponseFunction.linear(1.0), p, grid_n=grid_n)

    def test_equilibrium_shifts_follow_diffusion_ordering(self):
        report = theorem1_check(0.3, 0.8, V_LIN, self.params(-0.6))
        assert report.largest_stable_shift >= 0.0
        assert report.smallest_tipping_shift <= 0.0
        report_pos = theorem1_check(0.3, 0.8, V_LIN, self.params(0.6))
        assert report_pos.largest_stable_shift <= 0.0
        assert report_pos.smallest_tipping_shift >= 0.0

    def test_violation_reporting_path(self):
        report = theorem1_check(0.3, 0.8, V_LIN, self.params(-0.8), tol=-1.0)
        assert not report.passed
        assert len(report.offending_x) > 0

    def test_rejects_non_increasing_prices(self):
        with pytest.raises(ConfigurationError):
            theorem1_check(0.8, 0.3, V_LIN, self.params(0.0))


class TestAgentSimulation:
    def test_determinism(self):
        a = agent_simulation(5000, 0.5, V_LIN, P_INDEP, seed=123)
        b = agent_simulation(5000, 0.5, V_LIN, P_INDEP, seed=123)
        assert a == b

    def test_matches_analytic_fixed_point(self):
        p = PopulationParams(mu_c=0.6, mu_w=0.4, sigma_c=0.8, sigma_w=1.0, rho=-0.4)
        eq = equilibria(0.5, V_LIN, p)
        stable = eq.stable_points()
        result = agent_simulation(60_000, 0.5, V_LIN, p, seed=7)
        assert min(abs(result.limit_from_zero - s) for s in stable) < 0.015
        assert min(abs(result.limit_from_one - s) for s in stable) < 0.015

    def test_limits_bracket_multiplicity(self):
        p = PopulationParams(mu_c=0.5, mu_w=0.5, sigma_c=0.15, sigma_w=1.0, rho=0.0)
        eq = equilibria(0.3, V_LIN, p)
        result = agent_simulation(120_000, 0.3, V_LIN, p, seed=11)
        stable = sorted(eq.stable_points())
        assert abs(result.limit_from_zero - stable[0]) < 0.01
        assert abs(result.limit_from_one - stable[-1]) < 0.01

    def test_vanishing_response_reduces_to_marginal(self):
        v_tiny = ResponseFunction.linear(1e-12)
        result = agent_simulation(200_000, 0.2, v_tiny, P_INDEP, seed=3)
        assert result.limit_from_zero == pytest.approx(float(ndtr(-1.0)), abs=0.01)

    def test_small_population_rejected(self):
        with pytest.raises(DataError):
            agent_simulation(500, 0.5, V_LIN, P_INDEP, seed=0)

    def test_empty_platform_flagged(self):
        p = PopulationParams(mu_c=1.0, mu_w=0.0, sigma_c=1.0, sigma_w=0.3, rho=0.0)
        result = agent_simulation(2000, 100.0, ResponseFunction.linear(0.1), p, seed=1)
        assert result.empty_platform
        assert result.limit_from_zero == 0.0


class TestPopulationParams:
    def test_invalid_sigma(self):
        with pytest.raises(ConfigurationError):
            PopulationParams(0, 0, -1.0, 1.0, 0.0)

    def test_invalid_rho(self):
        with pytest.raises(ConfigurationError):
            PopulationParams(0, 0, 1.0, 1.0, 1.5)

    def test_covariance_sign(self):
        p = PopulationParams(0, 0, 2.0, 3.0, -0.5)
        assert p.omega_cw == pytest.approx(-3.0)

    def test_platform_probability_matches_normal_tail(self):
        p = PopulationParams(0.0, 0.5, 1.0, 2.0, 0.3)
        got = platform_probability(0.0, 1.5, V_LIN, p)
        assert got == pytest.approx(1.0 - ndtr((1.5 - 0.5) / 2.0), abs=1e-12)
