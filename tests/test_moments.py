import math

import numpy as np
import pytest
from reference_oracles import batch_se

from irvol import moments
from irvol.core import generate_gaps
from irvol.irmsv import CorrelationMatrix, IrMsvParams, simulate_irmsv
from irvol.irsv import IrSvParams, simulate_irsv

# Expected values below were computed with 40-digit arithmetic (mpmath)
# from the closed forms and cross-checked by Monte Carlo.
P1 = IrSvParams(mu=-9.0, phi=0.2, sigma_eta=0.8)


class TestMeanSq:
    def test_degenerate_volatility(self):
        p = IrSvParams(0.0, 0.5, 1e-12)
        assert moments.irsv_mean_sq(p) == pytest.approx(1.0, abs=1e-12)

    def test_scenario_one_value(self):
        assert moments.irsv_mean_sq(P1) == pytest.approx(1.7223225596081005e-4,
                                                         abs=1e-7)

    def test_mu_shift_doubles(self):
        p2 = IrSvParams(P1.mu + math.log(2.0), P1.phi, P1.sigma_eta)
        assert moments.irsv_mean_sq(p2) == pytest.approx(2.0 * moments.irsv_mean_sq(P1),
                                                         rel=1e-12)


class TestVarSq:
    def test_gaussian_limit(self):
        p = IrSvParams(0.0, 0.5, 1e-12)
        assert moments.irsv_var_sq(p) == pytest.approx(2.0, abs=1e-9)

    def test_scenario_one_value(self):
        assert moments.irsv_var_sq(P1) == pytest.approx(1.4366850558922421e-7,
                                                        abs=1e-10)

    def test_exceeds_gaussian_bound(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = IrSvParams(rng.uniform(-10, 0), rng.uniform(0.05, 0.95),
                           rng.uniform(0.1, 1.2))
            assert moments.irsv_var_sq(p) > 2.0 * moments.irsv_mean_sq(p) ** 2


class TestKurtosis:
    def test_gaussian_limit(self):
        assert moments.irsv_kurtosis(IrSvParams(0.0, 0.5, 1e-12)) == pytest.approx(3.0)

    def test_scenario_one_value(self):
        assert moments.irsv_kurtosis(P1) == pytest.approx(5.8432021231640276, abs=1e-3)

    def test_always_heavy_tailed(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = IrSvParams(rng.uniform(-10, 0), rng.uniform(0.05, 0.95),
                           rng.uniform(0.05, 1.5))
            assert moments.irsv_kurtosis(p) > 3.0


class TestAutocovSq:
    def test_vanishes_at_long_lags(self):
        assert moments.irsv_autocov_sq(P1, 200.0) == pytest.approx(0.0, abs=1e-20)

    def test_scenario_one_lag_one(self):
        assert moments.irsv_autocov_sq(P1, 1.0) == pytest.approx(4.2309932686192295e-9,
                                                                 abs=1e-12)

    def test_monotone_decreasing(self):
        assert moments.irsv_autocov_sq(P1, 2.0) < moments.irsv_autocov_sq(P1, 1.0)

    def test_lag_zero_rejected(self):
        with pytest.raises(ValueError):
            moments.irsv_autocov_sq(P1, 0.0)
        with pytest.raises(ValueError):
            moments.irsv_autocov_sq(P1, -1.0)


class TestAlgebraicIdentities:
    def test_var_equals_meansq_times_kurtosis_minus_one(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = IrSvParams(rng.uniform(-12, 2), rng.uniform(0.05, 0.95),
                           rng.uniform(0.05, 1.5))
            lhs = moments.irsv_var_sq(p)
            rhs = moments.irsv_mean_sq(p) ** 2 * (moments.irsv_kurtosis(p) - 1.0)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_cov_matrix_diagonal_matches_univariate(self):
        params = _msv_params()
        cov = moments.irmsv_cov_sq_matrix(params)
        for i in range(params.n_assets):
            assert cov[i, i] == moments.irsv_var_sq(params.asset(i))


def _msv_params(rho=(0.6, 0.4, 0.2)):
    corr = CorrelationMatrix([
        [1.0, rho[0], rho[1]],
        [rho[0], 1.0, rho[2]],
        [rho[1], rho[2], 1.0],
    ])
    return IrMsvParams(mu=[-9.0, -9.5, -8.5], phi=[0.7, 0.5, 0.3],
                       sigma=[1.0, math.sqrt(0.8), math.sqrt(0.5)],
                       correlation=corr)


class TestMsvMoments:
    def test_single_asset_collapse(self):
        params = _msv_params()
        vec = moments.irmsv_mean_sq_vector(params)
        for i in range(3):
            assert vec[i] == moments.irsv_mean_sq(params.asset(i))

    def test_independent_of_correlation(self):
        a = moments.irmsv_mean_sq_vector(_msv_params((0.6, 0.4, 0.2)))
        b = moments.irmsv_mean_sq_vector(_msv_params((-0.3, 0.1, 0.5)))
        np.testing.assert_array_equal(a, b)

    def test_zero_correlation_gives_zero_offdiagonal(self):
        cov = moments.irmsv_cov_sq_matrix(_msv_params((0.0, 0.0, 0.0)))
        assert cov[0, 1] == 0.0 and cov[0, 2] == 0.0 and cov[1, 2] == 0.0

    def test_sign_invariance(self):
        plus = moments.irmsv_cov_sq_matrix(_msv_params((0.6, 0.4, 0.2)))
        minus = moments.irmsv_cov_sq_matrix(_msv_params((-0.6, -0.4, 0.2)))
        np.testing.assert_allclose(plus, minus, rtol=1e-14)

    def test_pairwise_offdiagonal_value(self):
        corr = CorrelationMatrix([[1.0, 0.6], [0.6, 1.0]])
        params = IrMsvParams(mu=[-9.0, -9.0], phi=[0.2, 0.2], sigma=[0.8, 0.8],
                             correlation=corr)
        cov = moments.irmsv_cov_sq_matrix(params)
        assert cov[0, 1] == pytest.approx(2.1358043995211992e-8, abs=1e-11)
        assert cov[0, 1] == cov[1, 0]


class TestMonteCarloCrossChecks:
    def test_univariate_marginal_moments(self):
        # marginal moments do not depend on the gap layout
        gaps = generate_gaps(199_999, 3.0, seed=21)
        _, r = simulate_irsv(P1, gaps, 200_000, seed=22)
        r2 = r * r
        mean_se = batch_se(r2)
        assert abs(r2.mean() - moments.irsv_mean_sq(P1)) < 3.0 * mean_se

    def test_msv_mean_vector(self):
        params = _msv_params()
        gaps = generate_gaps(99_999, 3.0, seed=23)
        _, r = simulate_irmsv(params, gaps, 100_000, seed=24)
        expected = moments.irmsv_mean_sq_vector(params)
        for i in range(3):
            se = batch_se(r[i] ** 2)
            assert abs((r[i] ** 2).mean() - expected[i]) < 3.0 * se
