import math

import numpy as np
import pytest
from scipy.integrate import quad

from reference_densities import observation_density, state_transition_density, stationary_state_density
from reference_oracles import batch_se

from irvol.core import generate_gaps
from irvol.irsv import IrSvParams, forecast, gap_law, simulate_irsv

NEG_HALF_LOG_2PI = -0.9189385332046727


class TestParams:
    def test_phi_bounds(self):
        with pytest.raises(ValueError):
            IrSvParams(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            IrSvParams(0.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            IrSvParams(0.0, 1.2, 0.5)

    def test_sigma_positive(self):
        with pytest.raises(ValueError):
            IrSvParams(0.0, 0.5, 0.0)

    def test_stationary_var(self):
        p = IrSvParams(-9.0, 0.2, 0.8)
        assert p.stationary_var == pytest.approx(0.64 / 0.96)


class TestSimulate:
    def test_degenerate_state_noise(self):
        p = IrSvParams(-2.0, 0.5, 1e-300)
        gaps = generate_gaps(4999, 3.0, seed=1)
        h, r = simulate_irsv(p, gaps, 5000, seed=2)
        np.testing.assert_array_equal(h, np.full(5000, -2.0))
        assert np.var(r) == pytest.approx(math.exp(-2.0), rel=0.1)

    def test_stationary_variance(self):
        p = IrSvParams(-9.0, 0.2, 0.8)
        gaps = generate_gaps(4999, 3.0, seed=3)
        h, _ = simulate_irsv(p, gaps, 5000, seed=4)
        se = batch_se((h - h.mean()) ** 2)
        assert abs(np.var(h) - 0.64 / 0.96) < 3.0 * se

    def test_unit_gaps_reduce_to_ar1(self):
        p = IrSvParams(-9.0, 0.2, 0.8)
        gaps = np.ones(4999)
        h, _ = simulate_irsv(p, gaps, 5000, seed=5)
        lag1 = np.corrcoef(h[:-1], h[1:])[0, 1]
        assert abs(lag1 - 0.2) < 0.05

    def test_seeded_determinism(self):
        p = IrSvParams(-9.0, 0.6, 0.8)
        gaps = generate_gaps(99, 3.0, seed=6)
        a = simulate_irsv(p, gaps, 100, seed=7)
        b = simulate_irsv(p, gaps, 100, seed=7)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_negative_phi_rejected(self):
        # fractional gap powers need phi > 0, so the parameters cannot be built
        with pytest.raises(ValueError, match="0 < phi < 1"):
            IrSvParams(0.0, -0.5, 1.0)

    def test_needs_enough_gaps(self):
        p = IrSvParams(0.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            simulate_irsv(p, np.array([0.5, 0.5]), 10, seed=0)

    def test_gap_time_covariance_of_h(self):
        # alternating gaps: every second pair of states is exactly one
        # time unit apart, exercising Cov(h_t, h_{t+l}) = s2 * phi**l
        p = IrSvParams(0.0, 0.7, 0.6)
        gaps = np.tile([0.4, 0.6], 100_000)
        h, _ = simulate_irsv(p, gaps, gaps.size + 1, seed=8)
        prod = (h[:-2] - h[:-2].mean()) * (h[2:] - h[2:].mean())
        expected = p.stationary_var * p.phi**1.0
        assert abs(prod.mean() - expected) < 3.0 * batch_se(prod)


class TestDensities:
    def test_transition_mode_at_conditional_mean(self):
        p = IrSvParams(1.0, 0.6, 0.9)
        gap = 0.37
        mean = p.mu + p.phi**gap * (2.5 - p.mu)
        at_mode = state_transition_density(mean, 2.5, gap, p)
        for offset in (-0.3, -0.05, 0.05, 0.3):
            assert state_transition_density(mean + offset, 2.5, gap, p) < at_mode

    def test_transition_unit_variance_case(self):
        # mu=0, phi=0.5, sigma=1, g=1: variance (1 - 0.25)/0.75 = 1
        p = IrSvParams(0.0, 0.5, 1.0)
        value = state_transition_density(0.0, 0.0, 1.0, p)
        assert value == pytest.approx(NEG_HALF_LOG_2PI, abs=1e-4)

    def test_unit_gap_variance_identity(self):
        # g=1 collapses the innovation variance to sigma_eta**2 exactly
        p = IrSvParams(0.0, 0.9, 0.7)
        lp = state_transition_density(0.3, 0.0, 1.0, p)
        var = p.sigma_eta**2
        expected = -0.5 * (math.log(2 * math.pi * var) + 0.09 / var)
        assert lp == pytest.approx(expected, rel=1e-12)

    def test_gap_range_enforced(self):
        p = IrSvParams(0.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            state_transition_density(0.0, 0.0, 1.5, p)
        with pytest.raises(ValueError):
            state_transition_density(0.0, 0.0, 0.0, p)

    def test_stationary_density(self):
        p = IrSvParams(-1.0, 0.5, 1.0)
        var = p.stationary_var
        expected = -0.5 * (math.log(2 * math.pi * var))
        assert stationary_state_density(-1.0, p) == pytest.approx(expected, rel=1e-12)

    def test_observation_density_values(self):
        assert observation_density(0.0, 0.0) == pytest.approx(NEG_HALF_LOG_2PI, abs=1e-4)
        assert observation_density(1.0, 0.0) == pytest.approx(NEG_HALF_LOG_2PI - 0.5,
                                                              abs=1e-4)

    def test_observation_density_maximized_at_log_r2(self):
        r = 0.37
        hs = np.linspace(-6, 3, 2001)
        values = observation_density(r, hs)
        assert hs[np.argmax(values)] == pytest.approx(math.log(r**2), abs=0.01)

    def test_densities_integrate_to_one(self):
        p = IrSvParams(0.4, 0.8, 0.6)
        gap = 0.55
        cond_sd = math.sqrt(p.stationary_var * (1 - p.phi ** (2 * gap)))
        mean = p.mu + p.phi**gap * (1.2 - p.mu)
        total, _ = quad(lambda h: math.exp(state_transition_density(h, 1.2, gap, p)),
                        mean - 12 * cond_sd, mean + 12 * cond_sd)
        assert total == pytest.approx(1.0, abs=1e-6)

        h_fixed = -0.8
        obs_sd = math.exp(h_fixed / 2.0)
        total, _ = quad(lambda r: math.exp(observation_density(r, h_fixed)),
                        -12 * obs_sd, 12 * obs_sd)
        assert total == pytest.approx(1.0, abs=1e-6)

        stat_sd = math.sqrt(p.stationary_var)
        total, _ = quad(lambda h: math.exp(stationary_state_density(h, p)),
                        p.mu - 12 * stat_sd, p.mu + 12 * stat_sd)
        assert total == pytest.approx(1.0, abs=1e-6)


Z_975 = 1.959963984540054


def mixture_cdf(x, m, v):
    """CDF of the equal-weight mixture of N(m_d, v_d) at x."""
    return float(np.mean([0.5 * math.erfc(-(x - md) / math.sqrt(2.0 * vd))
                          for md, vd in zip(m, v)]))


class TestForecast:
    def test_noiseless_recursion_is_exact(self):
        gaps = np.array([0.5, 0.25, 1.0])
        out = forecast(-1.0, 0.7, 0.0, 2.0, gaps)
        expected = [-1.0 + 0.7 ** np.sum(gaps[: k + 1]) * 3.0 for k in range(3)]
        np.testing.assert_allclose(out.h_mean, expected, rtol=1e-12)
        # a draw without state noise is a point mass
        np.testing.assert_array_equal(out.h_q025, out.h_mean)
        np.testing.assert_array_equal(out.h_q975, out.h_mean)
        np.testing.assert_allclose(out.r2_mean, np.exp(expected), rtol=1e-12)

    def test_one_step_conditional_mean(self):
        out = forecast(0.0, 0.5, 0.0, 2.0, [1.0])
        assert out.h_mean[0] == 1.0

    def test_long_horizon_reverts_to_mu(self):
        p = IrSvParams(-3.0, 0.6, 0.5)
        out = forecast(p.mu, p.phi, p.sigma_eta**2, 4.0, np.ones(400))
        s2 = p.stationary_var
        assert out.h_mean[-1] == pytest.approx(p.mu, rel=1e-12)
        assert out.r2_mean[-1] == pytest.approx(math.exp(p.mu + s2 / 2.0), rel=1e-12)
        assert out.vol_mean[-1] == pytest.approx(math.exp(p.mu / 2.0 + s2 / 8.0), rel=1e-12)
        assert out.h_q975[-1] == pytest.approx(p.mu + Z_975 * math.sqrt(s2), rel=1e-12)

    def test_r2_is_exp_h(self):
        # one draw: h is N(m, v), so every column has its textbook value
        mu, phi, sigma2, last_h, gaps = -2.0, 0.5, 0.4, -1.0, np.array([0.5, 1.0])
        out = forecast(mu, phi, sigma2, last_h, gaps)
        reach = np.cumsum(gaps)
        m = mu + phi**reach * (last_h - mu)
        v = sigma2 * (1.0 - phi ** (2.0 * reach)) / (1.0 - phi**2)
        np.testing.assert_allclose(out.h_mean, m, rtol=1e-12)
        np.testing.assert_allclose(out.r2_mean, np.exp(m + v / 2.0), rtol=1e-12)
        np.testing.assert_allclose(out.vol_mean, np.exp(m / 2.0 + v / 8.0), rtol=1e-12)
        np.testing.assert_allclose(out.h_q025, m - Z_975 * np.sqrt(v), rtol=1e-12)
        np.testing.assert_allclose(out.h_q975, m + Z_975 * np.sqrt(v), rtol=1e-12)

    def test_mixture_cdf_at_quantiles_equals_level(self):
        mu = np.array([-1.0, -0.5, -2.0])
        phi = np.array([0.6, 0.8, 0.95])
        sigma2 = np.array([0.3, 0.05, 0.6])
        last_h = np.array([0.5, -1.0, -3.0])
        gaps = np.array([0.3, 0.7, 2.0])
        out = forecast(mu, phi, sigma2, last_h, gaps)
        for k, reach in enumerate(np.cumsum(gaps)):
            a, c = gap_law(phi, reach)
            m, v = mu + a * (last_h - mu), sigma2 * c
            assert out.h_mean[k] == pytest.approx(m.mean(), rel=1e-12)
            assert mixture_cdf(out.h_q025[k], m, v) == pytest.approx(0.025, abs=1e-12)
            assert mixture_cdf(out.h_q975[k], m, v) == pytest.approx(0.975, abs=1e-12)

    def test_point_mass_mixture_quantiles(self):
        # three noiseless draws: the mixture is uniform on their means
        out = forecast([0.0, 1.0, 2.0], 0.5, 0.0, [0.0, 1.0, 2.0], [1.0])
        assert out.h_q025[0] == pytest.approx(0.0, abs=1e-12)
        assert out.h_q975[0] == pytest.approx(2.0, abs=1e-12)

    def test_matches_brute_force_simulation(self):
        # textbook recursion, n paths per draw; every column must lie
        # within 5 Monte Carlo standard errors of the simulated value
        mu = np.array([-1.0, -0.5, -1.5])
        phi = np.array([0.6, 0.8, 0.9])
        sigma2 = np.array([0.3, 0.2, 0.1])
        last_h = np.array([0.5, -1.0, -1.2])
        gaps = np.array([0.3, 0.7, 1.0, 0.5])
        n = 100_000
        out = forecast(mu, phi, sigma2, last_h, gaps)
        rng = np.random.default_rng(11)
        x = np.repeat((last_h - mu)[:, None], n, axis=1)
        for k, g in enumerate(gaps):
            sd = np.sqrt(sigma2 * (1.0 - phi ** (2.0 * g)) / (1.0 - phi**2))
            x = (phi**g)[:, None] * x + sd[:, None] * rng.standard_normal(x.shape)
            h = (mu[:, None] + x).ravel()
            for column, samples in (("h_mean", h), ("r2_mean", np.exp(h)),
                                    ("vol_mean", np.exp(h / 2.0))):
                se = samples.std() / math.sqrt(h.size)
                assert abs(getattr(out, column)[k] - samples.mean()) < 5.0 * se, column
            a, c = gap_law(phi, np.sum(gaps[: k + 1]))
            m, v = mu + a * (last_h - mu), sigma2 * c
            for level, q in ((0.025, out.h_q025[k]), (0.975, out.h_q975[k])):
                density = np.mean(np.exp(-0.5 * (q - m) ** 2 / v) / np.sqrt(2.0 * math.pi * v))
                se = math.sqrt(level * (1.0 - level) / h.size) / density
                assert abs(q - np.quantile(h, level)) < 5.0 * se, level

    def test_steps_select_rows(self):
        full = forecast(-1.0, 0.7, 0.3, 0.5, [0.5, 0.25, 1.0])
        some = forecast(-1.0, 0.7, 0.3, 0.5, [0.5, 0.25, 1.0], steps=[1, 3])
        for column in ("h_mean", "h_q025", "h_q975", "r2_mean", "vol_mean"):
            np.testing.assert_array_equal(getattr(some, column), getattr(full, column)[[0, 2]])

    def test_empty_gaps_rejected(self):
        with pytest.raises(ValueError):
            forecast(0.0, 0.5, 1.0, 0.0, [])

    def test_invalid_draws_rejected(self):
        with pytest.raises(ValueError):
            forecast([0.0, 0.1], [0.5, 0.5, 0.5], 1.0, 0.0, [1.0])
        with pytest.raises(ValueError):
            forecast(0.0, -0.5, 1.0, 0.0, [1.0])
        with pytest.raises(ValueError):
            forecast(0.0, 0.5, 1.0, 0.0, [1.0], steps=[2])

    def test_deterministic(self):
        # no random numbers: repeated calls agree bit for bit
        args = ([0.0, 0.2], [0.5, 0.7], [1.0, 0.5], [0.3, -0.1], [0.5, 0.5])
        a, b = forecast(*args), forecast(*args)
        for column in ("h_mean", "h_q025", "h_q975", "r2_mean", "vol_mean"):
            np.testing.assert_array_equal(getattr(a, column), getattr(b, column))
