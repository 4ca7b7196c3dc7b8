import math

import numpy as np
import pytest

from reference_densities import joint_observation_density, observation_density

from irvol.core import generate_gaps
from irvol.irmsv import (
    CorrelationMatrix,
    IrMsvParams,
    corr_from_lower,
    correlation_names,
    lower_entries,
    simulate_irmsv,
)
from irvol.irsv import IrSvParams, forecast, simulate_irsv


def table_params(rho=(0.6, 0.4, 0.2)):
    corr = CorrelationMatrix([
        [1.0, rho[0], rho[1]],
        [rho[0], 1.0, rho[2]],
        [rho[1], rho[2], 1.0],
    ])
    return IrMsvParams(mu=[-9.0, -9.5, -8.5], phi=[0.7, 0.5, 0.3],
                       sigma=[1.0, math.sqrt(0.8), math.sqrt(0.5)],
                       correlation=corr)


class TestCorrelationMatrix:
    def test_validation(self):
        with pytest.raises(ValueError, match="symmetric"):
            CorrelationMatrix([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError, match="unit diagonal"):
            CorrelationMatrix([[1.0, 0.5], [0.5, 0.9]])
        with pytest.raises(ValueError, match="positive definite"):
            CorrelationMatrix([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="positive definite"):
            # eigenvalue 1 - rho12 falls below the 1e-10 floor
            CorrelationMatrix([[1.0, 1.0 - 1e-12], [1.0 - 1e-12, 1.0]])
        with pytest.raises(ValueError, match="square"):
            CorrelationMatrix([[1.0, 0.0]])

    def test_cholesky_roundtrip(self):
        corr = CorrelationMatrix([[1.0, 0.3], [0.3, 1.0]])
        chol = corr.cholesky()
        np.testing.assert_allclose(chol @ chol.T, corr.values, atol=1e-14)

    def test_lower_entry_helpers(self):
        corr = table_params().correlation.values
        flat = lower_entries(corr)
        np.testing.assert_allclose(flat, [0.6, 0.4, 0.2])
        np.testing.assert_allclose(corr_from_lower(3, flat), corr)
        assert correlation_names(3) == ["rho_12", "rho_13", "rho_23"]


class TestParams:
    def test_needs_two_assets(self):
        corr = CorrelationMatrix([[1.0]])
        with pytest.raises(ValueError):
            IrMsvParams(mu=[0.0], phi=[0.5], sigma=[1.0], correlation=corr)

    def test_dimension_agreement(self):
        corr = CorrelationMatrix([[1.0, 0.2], [0.2, 1.0]])
        with pytest.raises(ValueError):
            IrMsvParams(mu=[0.0, 1.0, 2.0], phi=[0.5, 0.5, 0.5],
                        sigma=[1.0, 1.0, 1.0], correlation=corr)

    @pytest.mark.parametrize("mu, phi, sigma, message", [
        ([0.0, 0.0], [0.5, -0.5], [1.0, 1.0], "asset 2: phi must satisfy 0 < phi < 1"),
        ([0.0, np.nan], [0.5, 0.5], [1.0, 1.0], "asset 2: mu must be finite"),
        ([0.0, 0.0], [0.5, 0.5], [0.0, 1.0], "asset 1: sigma must be positive"),
        ([0.0, 0.0], [0.5, 0.5], [1.0, np.inf], "asset 2: sigma must be finite"),
    ])
    def test_each_asset_checked_by_its_univariate_params(self, mu, phi, sigma, message):
        corr = CorrelationMatrix([[1.0, 0.2], [0.2, 1.0]])
        with pytest.raises(ValueError, match=message):
            IrMsvParams(mu=mu, phi=phi, sigma=sigma, correlation=corr)

    def test_asset_accessor(self):
        params = table_params()
        one = params.asset(1)
        assert one == IrSvParams(-9.5, 0.5, math.sqrt(0.8))


class TestSimulate:
    def test_identity_correlation_independence(self):
        corr = CorrelationMatrix(np.eye(3))
        params = IrMsvParams(mu=[-9.0, -9.5, -8.5], phi=[0.7, 0.5, 0.3],
                             sigma=[1.0, 0.9, 0.7], correlation=corr)
        T = 5000
        gaps = generate_gaps(T - 1, 3.0, seed=1)
        h, r = simulate_irmsv(params, gaps, T, seed=2)
        eps = r * np.exp(-h / 2.0)
        for i in range(3):
            for k in range(i + 1, 3):
                assert abs(np.corrcoef(eps[i], eps[k])[0, 1]) < 3.0 / math.sqrt(T)

    def test_table_scenario_correlations(self):
        # moderate positive correlations 0.6 / 0.4 / 0.2
        params = table_params()
        T = 5000
        gaps = generate_gaps(T - 1, 3.0, seed=3)
        h, r = simulate_irmsv(params, gaps, T, seed=4)
        eps = r * np.exp(-h / 2.0)  # returns scaled by the true volatilities
        sample = np.corrcoef(eps)
        np.testing.assert_allclose(sample, params.correlation.values, atol=0.03)

    def test_latent_processes_independent_across_assets(self):
        params = table_params()
        T = 4000
        gaps = generate_gaps(T - 1, 3.0, seed=5)
        h, _ = simulate_irmsv(params, gaps, T, seed=6)
        centered = h - h.mean(axis=1, keepdims=True)
        for i in range(3):
            for k in range(i + 1, 3):
                corr_ik = np.corrcoef(centered[i], centered[k])[0, 1]
                assert abs(corr_ik) < 3.0 / math.sqrt(T)

    def test_seeded_determinism(self):
        params = table_params()
        gaps = generate_gaps(99, 3.0, seed=7)
        a = simulate_irmsv(params, gaps, 100, seed=8)
        b = simulate_irmsv(params, gaps, 100, seed=8)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_marginal_matches_univariate_law(self):
        # identity R: each asset is marginally a univariate simulation
        corr = CorrelationMatrix(np.eye(2))
        params = IrMsvParams(mu=[-9.0, -8.0], phi=[0.4, 0.6], sigma=[0.8, 0.6],
                             correlation=corr)
        gaps = generate_gaps(39_999, 3.0, seed=9)
        h, r = simulate_irmsv(params, gaps, 40_000, seed=10)
        _, r_uni = simulate_irsv(params.asset(0), gaps, 40_000, seed=11)
        assert np.var(h[0]) == pytest.approx(params.asset(0).stationary_var, rel=0.1)
        assert np.mean(r[0] ** 2) == pytest.approx(np.mean(r_uni**2), rel=0.15)


class TestJointObservationDensity:
    def test_bivariate_standard_normal_at_origin(self):
        corr = CorrelationMatrix(np.eye(2))
        value = joint_observation_density([0.0, 0.0], [0.0, 0.0], corr)
        assert value == pytest.approx(-1.8378770664093453, abs=1e-4)

    def test_identity_factorizes(self):
        corr = CorrelationMatrix(np.eye(3))
        r = [0.01, -0.02, 0.005]
        h = [-9.0, -8.5, -9.5]
        joint = joint_observation_density(r, h, corr)
        split = sum(observation_density(ri, hi) for ri, hi in zip(r, h))
        assert joint == pytest.approx(split, rel=1e-12)

    def test_permutation_symmetry(self):
        params = table_params()
        r = np.array([0.01, -0.02, 0.005])
        h = np.array([-9.0, -8.5, -9.5])
        base = joint_observation_density(r, h, params.correlation)
        perm = [2, 0, 1]
        corr_perm = params.correlation.values[np.ix_(perm, perm)]
        permuted = joint_observation_density(r[perm], h[perm], corr_perm)
        assert permuted == pytest.approx(base, rel=1e-12)

    def test_single_asset_matches_univariate(self):
        value = joint_observation_density([0.013], [-8.7], np.array([[1.0]]))
        assert value == pytest.approx(observation_density(0.013, -8.7), abs=1e-12)

    def test_singular_matrix_rejected(self):
        singular = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="positive definite"):
            joint_observation_density([0.0, 0.0], [0.0, 0.0], singular)


class TestForecastMsv:
    # the latent recursions are independent across assets, so each asset's
    # forecast is the univariate one at its own parameters
    def test_noiseless_recursions(self):
        corr = CorrelationMatrix([[1.0, 0.5], [0.5, 1.0]])
        params = IrMsvParams(mu=[-1.0, -2.0], phi=[0.7, 0.4],
                             sigma=[1e-300, 1e-300], correlation=corr)
        gaps = np.array([0.5, 1.0])
        last_h = np.array([1.0, 0.5])
        for i in range(2):
            out = forecast(params.mu[i], params.phi[i], params.sigma[i] ** 2, last_h[i], gaps)
            expected = [params.mu[i] + params.phi[i] ** np.sum(gaps[: k + 1])
                        * (last_h[i] - params.mu[i]) for k in range(2)]
            np.testing.assert_allclose(out.h_mean, expected, rtol=1e-12)

    def test_long_horizon_reverts_to_mu(self):
        params = table_params()
        for i in range(3):
            p = params.asset(i)
            out = forecast(p.mu, p.phi, p.sigma_eta**2, 0.0, np.ones(300))
            assert out.h_mean[-1] == pytest.approx(p.mu, rel=1e-12)
            assert out.r2_mean[-1] == pytest.approx(
                math.exp(p.mu + p.stationary_var / 2.0), rel=1e-12)
