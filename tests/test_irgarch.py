import math

import numpy as np
import pytest
from reference_oracles import batch_se

from irvol.core import LOG_2PI, draw_positive_poisson
from irvol.irgarch import (
    IrGarchParams,
    _from_search,
    _neg_loglik,
    _variance_path,
    conditional_loglik,
    filter_sigma2,
    fit_ml,
    persistence_at_min_gap,
    simulate_irgarch,
    validate_gap_constraint,
)

NEG_HALF_LOG_2PI = -0.9189385332046727
SCENARIO_1 = IrGarchParams(0.01, 0.7, 0.25)


def reference_path(params, r2, gaps):
    """The textbook step-by-step variance recursion, sigma2_1..sigma2_n.

    The powered coefficients come from numpy, as in the program; each step
    is the plain omega*(1 - a - b) + a*r2 + b*sigma2 in Python floats.
    """
    g = np.asarray(gaps, dtype=float)
    ag, bg = params.alpha1**g, params.beta1**g
    s2 = params.omega * (1.0 - params.alpha1 - params.beta1)
    path = [s2]
    for a, b, x in zip(ag.tolist(), bg.tolist(), np.asarray(r2)[:-1].tolist()):
        s2 = params.omega * (1.0 - a - b) + a * x + b * s2
        path.append(s2)
    return np.array(path)


def reference_loglik(params, r, gaps):
    r2 = r * r
    s2 = reference_path(params, r2, gaps)[1:]
    return -0.5 * ((r.size - 1) * LOG_2PI
                   + float(np.sum(np.log(s2))) + float(np.sum(r2[1:] / s2)))


def feasible_params(rng, gaps, beta1=None):
    """Random parameters with alpha1**g* + beta1**g* < 1 (beta1 drawn if None)."""
    g_star = min(1.0, float(np.min(gaps)))
    while True:
        alpha = rng.uniform(1e-4, 1.0)
        # beta1**g* is uniform below its bound 1 - alpha**g*
        b = (rng.uniform() * (1.0 - alpha**g_star)) ** (1.0 / g_star) if beta1 is None else beta1
        p = IrGarchParams(math.exp(rng.uniform(-10.0, 1.0)), alpha, b)
        if persistence_at_min_gap(p, gaps) < 1.0:
            return p


class TestParams:
    def test_positivity(self):
        with pytest.raises(ValueError):
            IrGarchParams(0.0, 0.5, 0.1)
        with pytest.raises(ValueError):
            IrGarchParams(0.1, 0.0, 0.1)
        with pytest.raises(ValueError):
            IrGarchParams(0.1, 0.5, -0.1)

    def test_min_gap_constraint(self):
        gaps = np.array([1.0, 2.0, 5.0])
        assert persistence_at_min_gap(SCENARIO_1, gaps) == pytest.approx(0.95)
        validate_gap_constraint(SCENARIO_1, gaps)
        # sub-unit gaps push the powered coefficients toward one
        with pytest.raises(ValueError, match="below 1"):
            validate_gap_constraint(SCENARIO_1, np.array([0.1, 1.0]))


class TestSimulate:
    def test_no_persistence_limit(self):
        p = IrGarchParams(0.02, 1e-10, 1e-10)
        gaps = draw_positive_poisson(9999, 3.0, seed=0)
        s2, r = simulate_irgarch(p, gaps, 10_000, seed=1)
        np.testing.assert_allclose(s2, 0.02, rtol=1e-6)
        assert np.var(r) == pytest.approx(0.02, rel=0.05)

    def test_long_run_variance_matches_omega(self):
        gaps = draw_positive_poisson(99_999, 3.0, seed=2)
        _, r = simulate_irgarch(SCENARIO_1, gaps, 100_000, seed=3)
        r2 = r * r
        assert abs(r2.mean() - SCENARIO_1.omega) < 3.0 * batch_se(r2)

    def test_sigma2_strictly_positive(self):
        gaps = draw_positive_poisson(9999, 3.0, seed=4)
        s2, _ = simulate_irgarch(SCENARIO_1, gaps, 10_000, seed=5)
        assert np.all(s2 > 0)

    def test_zero_mean_returns(self):
        gaps = draw_positive_poisson(99_999, 3.0, seed=6)
        _, r = simulate_irgarch(SCENARIO_1, gaps, 100_000, seed=7)
        assert abs(r.mean()) < 3.0 * batch_se(r)

    def test_constraint_violation_raises(self):
        gaps = np.full(99, 0.25)
        with pytest.raises(ValueError):
            simulate_irgarch(SCENARIO_1, gaps, 100, seed=0)

    def test_arch_long_run_mean_r2(self):
        gaps = draw_positive_poisson(199_999, 3.0, seed=10)
        _, r = simulate_irgarch(IrGarchParams(0.01, 0.6, 0.0), gaps, 200_000, seed=11)
        r2 = r * r
        assert abs(r2.mean() - 0.01) < 3.0 * batch_se(r2)

    def test_arch_centered_square_recursion(self):
        # x_j = alpha**g_j * x_{j-1} + innovation with x = r^2 - omega
        omega, alpha = 0.01, 0.6
        gaps = draw_positive_poisson(199_999, 3.0, seed=12)
        _, r = simulate_irgarch(IrGarchParams(omega, alpha, 0.0), gaps, 200_000, seed=13)
        x = r * r - omega
        resid = x[1:] - alpha**gaps * x[:-1]
        assert abs(resid.mean()) < 3.0 * batch_se(resid)


class TestFilter:
    def test_zero_returns_fixed_point(self):
        # with r == 0 and constant gap g the recursion contracts to
        # omega * (1 - a**g - b**g) / (1 - b**g)
        p = IrGarchParams(0.05, 0.3, 0.5)
        g = 2.0
        gaps = np.full(499, g)
        s2 = filter_sigma2(p, np.zeros(500), gaps)
        fixed_point = p.omega * (1 - p.alpha1**g - p.beta1**g) / (1 - p.beta1**g)
        assert s2[-1] == pytest.approx(fixed_point, rel=1e-10)
        steps = np.abs(s2 - fixed_point)
        assert np.all(steps[1:50] <= steps[:49] + 1e-15)

    def test_filter_reproduces_simulation_exactly(self):
        gaps = draw_positive_poisson(4999, 3.0, seed=14)
        s2, r = simulate_irgarch(SCENARIO_1, gaps, 5000, seed=15)
        np.testing.assert_array_equal(filter_sigma2(SCENARIO_1, r, gaps), s2)

    def test_shock_linearity(self):
        p = IrGarchParams(0.01, 0.4, 0.3)
        gaps = np.array([1.0, 2.0, 1.0])
        base = np.array([0.0, 0.1, 0.0, 0.0])
        bumped = base.copy()
        bumped[1] = 0.3
        s2_base = filter_sigma2(p, base, gaps)
        s2_bump = filter_sigma2(p, bumped, gaps)
        jump = s2_bump[2] - s2_base[2]
        assert jump == pytest.approx(p.alpha1 ** gaps[1] * (0.3**2 - 0.1**2), rel=1e-12)


class TestKernelAgainstReferenceLoop:
    """The bidiagonal solve must equal the step-by-step loop bit for bit."""

    @pytest.mark.parametrize("case", range(60))
    def test_filter_and_loglik_match_bit_for_bit(self, case):
        rng = np.random.default_rng(500 + case)
        n = int(rng.choice([2, 3, int(rng.integers(4, 400))]))
        gaps = draw_positive_poisson(n - 1, 3.0, seed=600 + case).astype(float)
        if case % 2:
            gaps *= rng.uniform(0.05, 1.0)  # some gaps below 1, so g* < 1
        p = feasible_params(rng, gaps, (None, 0.0, math.exp(-40.0))[case % 3])
        r = math.sqrt(p.omega) * rng.standard_normal(n) * rng.uniform(0.1, 10.0)
        # the filter squares by libm pow, as the simulator's ** does
        np.testing.assert_array_equal(
            filter_sigma2(p, r, gaps), reference_path(p, [x**2 for x in r.tolist()], gaps))
        assert conditional_loglik(p, r, gaps) == reference_loglik(p, r, gaps)

    def test_random_beta1_near_the_feasible_edge(self):
        rng = np.random.default_rng(700)
        gaps = draw_positive_poisson(299, 3.0, seed=701).astype(float)
        r = 0.1 * rng.standard_normal(300)
        for _ in range(100):
            alpha = rng.uniform(1e-4, 0.5)
            p = IrGarchParams(0.01, alpha, (1.0 - alpha) * rng.uniform(0.9, 0.999999))
            np.testing.assert_array_equal(
                filter_sigma2(p, r, gaps), reference_path(p, [x**2 for x in r.tolist()], gaps))
            assert conditional_loglik(p, r, gaps) == reference_loglik(p, r, gaps)

    def test_single_observation_filter(self):
        p = IrGarchParams(0.02, 0.3, 0.5)
        s2 = filter_sigma2(p, [0.4], [])
        np.testing.assert_array_equal(s2, [p.omega * (1.0 - p.alpha1 - p.beta1)])


class TestOverflow:
    """An overflowing variance path: -inf from the likelihood, never nan,
    and ValueError from the filter."""

    @pytest.mark.parametrize("beta1", [0.0, 0.6])
    @pytest.mark.parametrize("big", [1e160, 1e200])
    def test_loglik_is_neg_inf(self, beta1, big):
        r = 0.1 * np.random.default_rng(800).standard_normal(60)
        r[30] = r[40] = big  # the second lands on an infinite variance
        with np.errstate(over="ignore", invalid="ignore"):
            assert conditional_loglik(IrGarchParams(0.01, 0.3, beta1), r,
                                      np.full(59, 2.0)) == -math.inf

    @pytest.mark.parametrize("big", [1e160, 1e200])
    def test_filter_raises_value_error(self, big):
        r = 0.1 * np.random.default_rng(801).standard_normal(60)
        r[30] = big
        with pytest.raises(ValueError, match="overflow"):
            filter_sigma2(IrGarchParams(0.01, 0.3, 0.6), r, np.full(59, 2.0))


class TestSearchObjective:
    """The optimizer's objective in (log omega, log-odds) coordinates."""

    @staticmethod
    def random_case(case):
        rng = np.random.default_rng(900 + case)
        n = int(rng.integers(2, 300))
        gaps = draw_positive_poisson(n - 1, 3.0, seed=950 + case) * rng.uniform(0.05, 1.0)
        x = np.concatenate(([rng.uniform(-8.0, 0.0)], rng.uniform(-5.0, 3.0, 1 + case % 2)))
        if case % 4 == 1:
            x[2] = -25.0  # beta1**g* is about e^-25 of 1 - alpha1**g* - beta1**g*
        r = math.exp(0.5 * x[0]) * rng.uniform(0.3, 3.0) * rng.standard_normal(n)
        g_star = min(1.0, float(np.min(gaps)))
        # an ARCH point holds log(b/c) at -inf
        x = np.concatenate((x, [-np.inf] * (3 - x.size)))
        return x, r, gaps, (np.array([g_star]), (r * r)[None], gaps[None])

    @pytest.mark.parametrize("case", range(40))
    def test_value_is_conditional_loglik(self, case):
        x, r, gaps, args = self.random_case(case)
        omega, alpha1, beta1 = _from_search(x[None], args[0])[0][:, 0].tolist()
        value, _ = _neg_loglik(x[None], *args)
        assert -value[0] == conditional_loglik(IrGarchParams(omega, alpha1, beta1), r, gaps)

    @pytest.mark.parametrize("case", range(40))
    def test_gradient_matches_central_differences(self, case):
        x, _, _, args = self.random_case(case)
        grad = _neg_loglik(x[None], *args)[1][0]
        free = np.isfinite(x)
        h = 1e-6
        numeric = [(_neg_loglik((x + h * e)[None], *args)[0][0]
                    - _neg_loglik((x - h * e)[None], *args)[0][0]) / (2 * h)
                   for e in np.eye(3)[free]]
        assert np.max(np.abs(grad[free] - numeric)) <= 1e-6 * np.max(np.abs(grad))

    @pytest.mark.parametrize("case", range(0, 40, 5))
    def test_fisher_information_matches_difference_quotients(self, case):
        # 1/2 sum_j (d log sigma2_j / dx)(d log sigma2_j / dx)' over j >= 2
        x, r, gaps, args = self.random_case(case)
        info = _neg_loglik(x[None], *args, fisher=True)[2][0]
        free = np.flatnonzero(np.isfinite(x))
        h = 1e-6

        def log_path(point):
            theta = _from_search(point[None], args[0])[0][:, 0]
            return np.log(filter_sigma2(IrGarchParams(*theta.tolist()), r, gaps)[1:])

        slopes = np.array([(log_path(x + h * e) - log_path(x - h * e)) / (2 * h)
                           for e in np.eye(3)[free]])
        expected = 0.5 * slopes @ slopes.T
        np.testing.assert_allclose(info[np.ix_(free, free)], expected, rtol=1e-5,
                                   atol=1e-8 * np.max(np.abs(expected)))


class TestConditionalLoglik:
    def test_single_standard_normal_term(self):
        # choose omega so that sigma2 at the second step is exactly 1
        alpha, beta, g = 0.2, 0.3, 1.0
        # sigma2_1 = omega/2, sigma2_2 = omega/2 + 0.3*omega/2 = 0.65*omega with r_1 = 0
        omega = 1.0 / 0.65
        p = IrGarchParams(omega, alpha, beta)
        r = np.array([0.0, 0.0])
        s2 = filter_sigma2(p, r, [g])
        assert s2[1] == pytest.approx(1.0, rel=1e-12)
        assert conditional_loglik(p, r, [g]) == pytest.approx(NEG_HALF_LOG_2PI, abs=1e-4)

    def test_sum_starts_at_second_observation(self):
        gaps = draw_positive_poisson(199, 3.0, seed=16)
        _, r = simulate_irgarch(SCENARIO_1, gaps, 200, seed=17)
        ll = conditional_loglik(SCENARIO_1, r, gaps)
        s2 = filter_sigma2(SCENARIO_1, r, gaps)
        direct = -0.5 * np.sum(np.log(2 * np.pi) + np.log(s2[1:]) + r[1:] ** 2 / s2[1:])
        assert ll == pytest.approx(direct, rel=1e-12)

    def test_infeasible_params_give_neg_inf(self):
        assert conditional_loglik(IrGarchParams(0.01, 0.9, 0.2), [0.1, 0.2],
                                  [1.0]) == -math.inf

    def test_truth_beats_perturbation(self):
        wins = 0
        for rep in range(20):
            gaps = draw_positive_poisson(4999, 3.0, seed=100 + rep)
            _, r = simulate_irgarch(SCENARIO_1, gaps, 5000, seed=200 + rep)
            ll_true = conditional_loglik(SCENARIO_1, r, gaps)
            worse = IrGarchParams(SCENARIO_1.omega, SCENARIO_1.alpha1 + 0.2,
                                  SCENARIO_1.beta1)
            wins += ll_true > conditional_loglik(worse, r, gaps)
        assert wins >= 19

    def test_no_nan_on_feasible_draws(self):
        rng = np.random.default_rng(18)
        gaps = draw_positive_poisson(499, 3.0, seed=19)
        _, r = simulate_irgarch(SCENARIO_1, gaps, 500, seed=20)
        for _ in range(200):
            alpha = rng.uniform(0.01, 0.9)
            beta = rng.uniform(0.0, 0.95 - alpha)
            p = IrGarchParams(rng.uniform(1e-4, 0.1), alpha, beta)
            value = conditional_loglik(p, r, gaps)
            assert not math.isnan(value)


class TestFitMl:
    def test_iid_gaussian_recovers_variance(self):
        rng = np.random.default_rng(21)
        r = 0.1 * rng.standard_normal(5000)
        gaps = draw_positive_poisson(4999, 3.0, seed=22)
        fit = fit_ml([(r, gaps)])[0]
        assert fit.params.omega == pytest.approx(np.var(r), rel=0.10)

    def test_needs_enough_data(self):
        with pytest.raises(ValueError):
            fit_ml([(np.zeros(10), np.ones(9))])

    def test_sub_unit_gaps_scale_the_starts_feasible(self):
        # at g* = 0.05 every powered grid start has alpha1**g* + beta1**g* ~ 2
        gaps = np.full(99, 0.05)
        rng = np.random.default_rng(23)
        fit = fit_ml([(0.1 * rng.standard_normal(100), gaps)])[0]
        assert fit.converged and np.isfinite(fit.loglik)
        assert persistence_at_min_gap(fit.params, gaps) < 1.0

    def test_small_min_gap_garch_fit_nests_the_arch_fit(self):
        # gaps of 3 and every seventh 0.5: no powered start was feasible
        gaps = np.full(299, 3.0)
        gaps[6::7] = 0.5
        _, r = simulate_irgarch(IrGarchParams(0.01, 0.05, 0.2), gaps, 300, seed=1)
        garch, arch = fit_ml([(r, gaps)])[0], fit_ml([(r, gaps)], arch_only=True)[0]
        assert arch.loglik == pytest.approx(290.70, abs=0.01)
        assert garch.loglik >= arch.loglik and garch.converged

    def test_median_alpha_error_small(self):
        errors = []
        for rep in range(20):
            gaps = draw_positive_poisson(1999, 3.0, seed=300 + rep)
            _, r = simulate_irgarch(SCENARIO_1, gaps, 2000, seed=400 + rep)
            fit = fit_ml([(r, gaps)])[0]
            errors.append(abs(fit.params.alpha1 - SCENARIO_1.alpha1))
        assert float(np.median(errors)) < 0.05

    def test_report_fields(self):
        gaps = draw_positive_poisson(999, 3.0, seed=24)
        _, r = simulate_irgarch(SCENARIO_1, gaps, 1000, seed=25)
        fit = fit_ml([(r, gaps)])[0]
        assert fit.converged
        assert 0 <= fit.best_start < 5
        assert fit.grad_norm < 1e-4
        assert np.isfinite(fit.loglik)

    @staticmethod
    def series(gap_seed, sim_seed):
        gaps = draw_positive_poisson(299, 3.0, seed=gap_seed)
        _, r = simulate_irgarch(IrGarchParams(0.01, 0.3, 0.6), gaps, 300, seed=sim_seed)
        return r, gaps

    def test_no_stall_at_the_persistence_edge(self):
        # a simplex with a -inf penalty stopped at alpha1 + beta1 = 1 - 1e-16
        # with loglik 262.334; the optimum is 262.535 at (0.0128, 0.9701)
        fit = fit_ml([self.series(10_006, 20_006)])[0]
        assert fit.loglik >= 262.53
        assert fit.params.alpha1 + fit.params.beta1 < 0.99

    def test_optimum_on_the_alpha1_edge(self):
        # every interior search ends at a local optimum, loglik 250.5576 at
        # (0.285, 0.380); the maximum, 250.5858, is at alpha1 -> 0, beta1 0.642
        rng = np.random.default_rng(np.random.SeedSequence(1318712413, spawn_key=(3,)))
        gaps = draw_positive_poisson(299, 3.0, rng)
        _, r = simulate_irgarch(IrGarchParams(0.01, 0.3, 0.6), gaps, 300, rng)
        fit = fit_ml([(r, gaps)])[0]
        assert fit.loglik >= 250.5858
        assert fit.params.alpha1 < 1e-10 and fit.params.beta1 == pytest.approx(0.642, abs=1e-3)

    def test_no_early_stop_on_the_way_to_an_edge(self):
        # the supremum is at alpha1 -> 0, where the likelihood flattens: a
        # stop on the projected gradient alone (1e-5) came 3.2e-6 short
        rng = np.random.default_rng(np.random.SeedSequence(1255706865, spawn_key=(24,)))
        gaps = draw_positive_poisson(299, 3.0, rng)
        _, r = simulate_irgarch(IrGarchParams(0.01, 0.3, 0.6), gaps, 300, rng)
        fit = fit_ml([(r, gaps)], arch_only=True)[0]
        assert fit.loglik >= 283.5840244 and fit.params.alpha1 < 1e-8

    def test_no_leap_into_the_persistence_corner(self):
        # without a cap on the step, the search from start 0 leapt to log-odds
        # (30, 30), c about e^-30, and ended there at 283.9983; the optimum is
        # 284.0028 at (0.438, 0.548)
        rng = np.random.default_rng(np.random.SeedSequence(1061182003, spawn_key=(50,)))
        gaps = draw_positive_poisson(299, 3.0, rng)
        _, r = simulate_irgarch(IrGarchParams(0.01, 0.3, 0.6), gaps, 300, rng)
        fit = fit_ml([(r, gaps)])[0]
        assert fit.loglik >= 284.0027
        assert fit.params.alpha1 + fit.params.beta1 < 0.99

    def test_garch_fit_nests_the_arch_fit(self):
        r, gaps = self.series(10_174, 20_174)
        garch, arch = fit_ml([(r, gaps)])[0], fit_ml([(r, gaps)], arch_only=True)[0]
        assert garch.loglik >= arch.loglik
        assert garch.converged and arch.converged

    def test_arch_only_mode(self):
        gaps = draw_positive_poisson(4999, 3.0, seed=26)
        _, r = simulate_irgarch(IrGarchParams(0.01, 0.6, 0.0), gaps, 5000, seed=27)
        fit = fit_ml([(r, gaps)], arch_only=True)[0]
        assert fit.params.beta1 == 0.0
        assert fit.params.alpha1 == pytest.approx(0.6, abs=0.1)


class TestLockstep:
    """Stacking problems, or fitting series together, changes no result."""

    @pytest.mark.parametrize("n", [1, 2, 3, 300])
    def test_stacked_kernel_equals_each_path_alone(self, n):
        rng = np.random.default_rng(1000 + n)
        thetas, r2, gaps = [], [], []
        for k in range(25):
            g = draw_positive_poisson(n, 3.0, seed=1100 + 10 * n + k)[:n - 1].astype(float)
            if k % 2:
                g *= rng.uniform(0.05, 1.0)
            p = feasible_params(rng, np.append(g, 1.0), 0.0 if k % 3 == 0 else None)
            r2.append((math.sqrt(p.omega) * rng.standard_normal(n)) ** 2)
            thetas.append([p.omega, p.alpha1, p.beta1])
            gaps.append(g)
        r2[11][0] = np.inf  # this path overflows; its neighbours must not see it
        theta, r2, gaps = np.array(thetas).T, np.array(r2), np.array(gaps)
        with np.errstate(over="ignore", invalid="ignore"):
            stacked = _variance_path(theta, r2, gaps, derivs=True)
            for k in range(25):
                alone = _variance_path(theta[:, k:k + 1], r2[k:k + 1], gaps[k:k + 1], derivs=True)
                np.testing.assert_array_equal(stacked[0][k], alone[0][0])
                np.testing.assert_array_equal(stacked[1][:, k], alone[1][:, 0])
        assert np.isfinite(np.delete(stacked[0], 11, axis=0)).all()

    def test_batch_fits_equal_fits_alone(self):
        series = []
        for k in range(22):
            n = 120 if k % 5 else 80  # two lengths: the searches run in two lockstep groups
            gaps = draw_positive_poisson(n - 1, 3.0, seed=1200 + k)
            _, r = simulate_irgarch(IrGarchParams(0.01, 0.3, 0.6), gaps, n, seed=1300 + k)
            series.append((r, gaps))
        series[7][0][60] = 1e150  # trial variance paths of this series overflow
        assert fit_ml(series) == [fit_ml([one])[0] for one in series]
