import dataclasses
import math

import numpy as np
import pytest
from reference_densities import lkj_log_density
from scipy import stats

from irvol.core import generate_gaps
from irvol.irmsv import CorrelationMatrix, IrMsvParams, simulate_irmsv
from irvol.irsv import IrSvParams, simulate_irsv
from irvol.mcmc import fit as fit_module
from irvol.mcmc.chain import McmcChain, McmcConfig, effective_sample_size, summarize
from irvol.mcmc.fit import asset_draws, fit_irmsv, fit_irsv
from irvol.mcmc.priors import IrMsvPriors, IrSvPriors, beta_logpdf, truncated_normal_logpdf
from irvol.mcmc.samplers import (ADAPT_INTERVAL, AdaptiveScale, adaptive_rwm_scalar,
                                 correlation_block_step)

# the config of a chain whose run does not matter to the test
CONFIG = McmcConfig(200, 100, 1)


class TestPhiWalks:
    """Both models walk phi itself; each brings only its prior."""

    def test_irsv_walks_phi_under_beta(self):
        priors = IrSvPriors()
        for phi in (0.01, 0.5, 0.99):
            assert priors.phi_logprior(phi) == beta_logpdf((phi + 1.0) / 2.0, 20.0, 1.5)

    def test_irsv_support_keeps_phi_in_unit_interval(self, monkeypatch):
        # Beta(1.5, 20) on (phi + 1)/2 has its mode at phi = -0.95
        r, gaps = _scenario_series(0.2, seed=14, length=80)
        _assert_phi_kept_in_unit_interval(monkeypatch, fit_irsv, r, gaps,
                                          IrSvPriors(phi_beta=(1.5, 20.0)), "phi")

    def test_irsv_beta_prior_mode(self):
        # mode of Beta(20, 1.5) at (a-1)/(a+b-2), that is phi = 0.9487179487
        priors = IrSvPriors()
        phi_star = 2.0 * (19.0 / 19.5) - 1.0
        assert phi_star == pytest.approx(0.9487179487179487, abs=1e-15)
        base = priors.phi_logprior(phi_star)
        for eps in (-1e-3, 1e-3):
            assert priors.phi_logprior(phi_star + eps) < base

    def test_irmsv_walks_phi_under_truncated_normal(self):
        priors = IrMsvPriors(phi_normal=(0.2, 0.3))
        for phi in (0.01, 0.5, 0.99):
            assert priors.phi_logprior(phi) == truncated_normal_logpdf(phi, 0.2, 0.3, -1.0, 1.0)

    def test_irmsv_support_keeps_phi_in_unit_interval(self, monkeypatch):
        r, gaps = _msv_data(seed=30, length=60)
        _assert_phi_kept_in_unit_interval(monkeypatch, fit_irmsv, r, gaps,
                                          IrMsvPriors(phi_normal=(-0.9, 0.01)), "phi_1")

    @pytest.mark.parametrize("model", ["irsv", "irmsv"])
    def test_every_walk_starts_at_one_half_with_scale_one_tenth(self, monkeypatch, model):
        if model == "irsv":
            fit, (r, gaps) = fit_irsv, _scenario_series(0.5, seed=17, length=30)
        else:
            fit, (r, gaps) = fit_irmsv, _msv_data(seed=31, length=30)
        steps = []
        step = fit_module.adaptive_rwm_scalar

        def spy(current, log_target, scale, rng, current_log_target=None):
            steps.append((current, scale.values[0]))
            return step(current, log_target, scale, rng, current_log_target)

        monkeypatch.setattr(fit_module, "adaptive_rwm_scalar", spy)
        fit(r, gaps, config=McmcConfig(1, 0))
        # each asset's scalar steps are mu, phi and log sigma_eta**2, in that order
        assert steps[1::3] == [(0.5, 0.1)] * (len(steps) // 3)


def _assert_phi_kept_in_unit_interval(monkeypatch, fit, r, gaps, priors, column):
    """Under a prior whose mass lies below 0, the chain still never evaluates
    the gap-time law at a phi outside (0, 1), and its phi draws hug 0."""
    law = fit_module._law
    seen = []

    def spy(phi, distinct):
        seen.append(phi)
        return law(phi, distinct)

    monkeypatch.setattr(fit_module, "_law", spy)
    chain, _ = fit(r, gaps, priors, McmcConfig(600, 200, 2, rng_seed=4))
    assert 0.0 < min(seen) and max(seen) < 1.0
    phi = chain.column(column)
    assert np.all(phi > 0.0) and np.all(phi < 1.0)
    assert np.median(phi) < 0.1


class TestLkjLogDensity:
    def test_value_at_rho_half(self):
        corr = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert lkj_log_density(corr, 1.2) == pytest.approx(0.2 * math.log(0.75), rel=1e-12)

    def test_uniform_lkj_contributes_nothing(self):
        assert lkj_log_density(np.array([[1.0, 0.5], [0.5, 1.0]]), 1.0) == 0.0

    def test_identity_matrix_contributes_nothing(self):
        for eta in (0.5, 1.2, 3.0):
            assert lkj_log_density(np.eye(3), eta) == 0.0

    def test_not_positive_definite(self):
        assert lkj_log_density(np.ones((2, 2)), 1.2) == -math.inf


class TestAdaptiveScale:
    START, TARGET = [0.3, 1.0, 2.5], 0.44

    def test_a_vector_adapts_as_its_scales_alone(self):
        rng = np.random.default_rng(7)
        vector = AdaptiveScale(self.START, self.TARGET)
        singles = [AdaptiveScale(value, self.TARGET) for value in self.START]
        for flags in rng.random((10 * ADAPT_INTERVAL + 3, 3)) < [0.1, 0.44, 0.9]:
            vector.observe(flags)
            for scale, flag in zip(singles, flags):
                scale.observe(bool(flag))
        assert vector.values.tolist() == [scale.values[0] for scale in singles]
        assert vector.values.tolist() != self.START

    def test_a_round_multiplies_by_exp_of_rate_minus_target(self):
        # a quarter of the first scale's flags, none of the second's, all of the third's
        flags = np.zeros((ADAPT_INTERVAL, 3), dtype=bool)
        flags[: ADAPT_INTERVAL // 4, 0] = True
        flags[:, 2] = True
        scale = AdaptiveScale(self.START, self.TARGET)
        for row in flags[:-1]:
            scale.observe(row)
        assert scale.values.tolist() == self.START
        scale.observe(flags[-1])
        rates = [0.25, 0.0, 1.0]
        assert scale.values.tolist() == [value * np.exp(rate - self.TARGET)
                                         for value, rate in zip(self.START, rates)]

    def test_a_frozen_scale_never_changes(self):
        scale = AdaptiveScale(self.START, self.TARGET)
        scale.freeze()
        for flags in ([True] * 3, [False] * 3) * ADAPT_INTERVAL:
            scale.observe(flags)
        assert scale.values.tolist() == self.START

    def test_a_frozen_scale_counts_the_accepts_fed_since_freeze(self):
        rng = np.random.default_rng(11)
        scale = AdaptiveScale(self.START, self.TARGET)
        for flags in rng.random((2 * ADAPT_INTERVAL + 2, 3)) < 0.5:
            scale.observe(flags)
        scale.freeze()
        values = scale.values.tolist()
        fed = rng.random((2 * ADAPT_INTERVAL, 3)) < [0.1, 0.44, 0.9]
        for flags in fed:
            scale.observe(flags)
        assert scale.accepted.tolist() == fed.sum(axis=0).tolist()
        assert scale.values.tolist() == values

    def test_a_scale_frozen_before_any_observation_counts_every_flag(self):
        scale = AdaptiveScale(0.5, self.TARGET)
        scale.freeze()
        for flag in [True, False, True, True, False] * (ADAPT_INTERVAL // 5 + 1):
            scale.observe(flag)
        assert scale.accepted.tolist() == [3.0 * (ADAPT_INTERVAL // 5 + 1)]

    def test_the_tally_restarts_at_freeze_not_at_the_last_round(self):
        scale = AdaptiveScale(0.5, self.TARGET)
        for _ in range(ADAPT_INTERVAL + 2):  # one round, then two accepts that no round has used
            scale.observe(True)
        scale.freeze()
        for flag in [False, True, False]:
            scale.observe(flag)
        assert scale.accepted.tolist() == [1.0]

    @pytest.mark.parametrize("values",[0.0, -1.0, [1.0, 0.0], [[1.0]]])
    def test_non_positive_or_non_vector_scales_rejected(self, values):
        with pytest.raises(ValueError, match="initial scales"):
            AdaptiveScale(values, self.TARGET)


class TestAdaptiveRwmScalar:
    def test_flat_target_always_accepts(self):
        rng = np.random.default_rng(0)
        scale = AdaptiveScale(1.0, 0.44)
        scale.freeze()
        x, accepted = 0.0, 0
        for _ in range(500):
            step = adaptive_rwm_scalar(x, lambda _: 0.0, scale, rng)
            x = step.value
            accepted += step.accepted
        assert accepted == 500

    def test_standard_normal_target_moments(self):
        rng = np.random.default_rng(1)
        scale = AdaptiveScale(1.0, 0.44)
        target = lambda x: -0.5 * x * x
        x = 0.0
        draws = np.empty(100_000)
        for i in range(draws.size):
            step = adaptive_rwm_scalar(x, target, scale, rng)
            x = step.value
            draws[i] = x
        kept = draws[5000:]
        assert abs(kept.mean()) < 0.05
        assert abs(kept.var() - 1.0) < 0.1

    def test_neg_inf_proposal_keeps_current(self):
        rng = np.random.default_rng(2)
        scale = AdaptiveScale(1.0, 0.44)
        step = adaptive_rwm_scalar(0.5, lambda x: 0.0 if x == 0.5 else -math.inf,
                                   scale, rng)
        assert step.value == 0.5
        assert not step.accepted

    def test_adaptation_reaches_target(self):
        rng = np.random.default_rng(3)
        scale = AdaptiveScale(50.0, 0.44)
        target = lambda x: -0.5 * x * x
        x = 0.0
        for _ in range(20_000):
            x = adaptive_rwm_scalar(x, target, scale, rng).value
        scale.freeze()
        accepted = 0
        for _ in range(5000):
            step = adaptive_rwm_scalar(x, target, scale, rng)
            x = step.value
            accepted += step.accepted
        assert abs(accepted / 5000 - 0.44) < 0.08


class TestCorrelationBlockStep:
    def test_out_of_range_proposal_rejected(self):
        rng = np.random.default_rng(4)
        scale = AdaptiveScale(5.0, 0.234)  # huge steps leave (-1, 1) immediately
        scale.freeze()
        corr = np.eye(2)
        rejected = 0
        for _ in range(50):
            step = correlation_block_step(corr, scale, rng, lambda R, chol: 0.0)
            rejected += not step.accepted
        assert rejected > 25

    def test_flat_target_gives_uniform_rho(self):
        # for p = 2 validity is exactly |rho| < 1, so a flat target should
        # produce rho ~ Uniform(-1, 1)
        rng = np.random.default_rng(5)
        scale = AdaptiveScale(0.5, 0.234)
        corr = np.eye(2)
        draws = np.empty(100_000)
        for i in range(draws.size):
            step = correlation_block_step(corr, scale, rng, lambda R, chol: 0.0)
            corr = step.value
            draws[i] = corr[1, 0]
        kept = draws[5000:]
        ks = stats.kstest(kept, stats.uniform(loc=-1.0, scale=2.0).cdf)
        assert ks.statistic < 0.02

    def test_symmetry_and_unit_diagonal_preserved(self):
        rng = np.random.default_rng(6)
        scale = AdaptiveScale(0.2, 0.234)
        corr = np.eye(3)
        for _ in range(500):
            step = correlation_block_step(corr, scale, rng,
                                          lambda R, chol: -0.5 * float(np.sum(R * R)))
            corr = step.value
            np.testing.assert_array_equal(corr, corr.T)
            np.testing.assert_array_equal(np.diag(corr), np.ones(3))
            np.linalg.cholesky(corr)


class TestSummarize:
    def _chain(self, values, name="x"):
        arr = np.asarray(values, dtype=float)[:, np.newaxis]
        return McmcChain((name,), arr, {}, CONFIG)

    def test_constant_chain(self):
        summary = summarize(self._chain(np.full(50, 2.5)))
        stats_ = summary["x"]
        assert stats_.sd == 0.0
        assert stats_.quantiles[0.025] == 2.5
        assert stats_.quantiles[0.975] == 2.5

    def test_interpolated_quantiles(self):
        summary = summarize(self._chain(np.arange(1.0, 101.0)))
        assert summary["x"].quantiles[0.025] == pytest.approx(3.475)
        assert summary["x"].quantiles[0.975] == pytest.approx(97.525)

    def test_iid_ess_near_sample_size(self):
        rng = np.random.default_rng(7)
        n = 4000
        summary = summarize(self._chain(rng.standard_normal(n)))
        assert abs(summary["x"].ess - n) / n < 0.15

    def test_correlated_chain_has_reduced_ess(self):
        rng = np.random.default_rng(8)
        n, rho = 20_000, 0.95
        x = np.empty(n)
        x[0] = 0.0
        noise = rng.standard_normal(n)
        for i in range(1, n):
            x[i] = rho * x[i - 1] + noise[i]
        ess = effective_sample_size(x)
        # AR(1) theory: ESS ~ n (1 - rho) / (1 + rho)
        expected = n * (1 - rho) / (1 + rho)
        assert ess == pytest.approx(expected, rel=0.4)

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            summarize(McmcChain(("x",), np.empty((0, 1)), {}, CONFIG))

    @pytest.mark.parametrize("phi", [-0.5, 0.0, 0.6, 0.99])
    @pytest.mark.parametrize("n", [4, 5, 199, 200, 1001, 1000])
    def test_ess_equals_the_pair_loop_bit_for_bit(self, n, phi):
        noise = np.random.default_rng(n).standard_normal(n)
        x = np.empty(n)
        x[0] = noise[0]
        for i in range(1, n):
            x[i] = phi * x[i - 1] + noise[i]
        assert effective_sample_size(x) == _loop_ess(x)


def _loop_ess(x) -> float:
    """Geyer's initial monotone sequence ESS with the pair sums formed, cut at
    the first one <= 0, in a Python loop: the reference for the array form."""
    n = x.size
    centered = x - x.mean()
    m = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(centered, m)
    acov = np.fft.irfft(spec * np.conj(spec), m)[:n].real / n
    rho = acov / acov[0]
    pair_sums = []
    k = 0
    while 2 * k + 1 < n:
        s = rho[2 * k] + rho[2 * k + 1]
        if s <= 0.0:
            break
        pair_sums.append(s)
        k += 1
    if not pair_sums:
        return float(n)
    pair_sums = np.minimum.accumulate(pair_sums)
    iact = max(1.0, 2.0 * float(np.sum(pair_sums)) - 1.0)
    return float(min(n, n / iact))


class TestConfig:
    def test_fields_are_the_run_length_and_seed(self):
        # the adaptation interval, latent stride and acceptance targets are fixed
        assert ([field.name for field in dataclasses.fields(McmcConfig)]
                == ["n_iterations", "burn_in", "thin", "rng_seed"])

    def test_draw_count_divisibility(self):
        with pytest.raises(ValueError):
            McmcConfig(n_iterations=1000, burn_in=100, thin=7)
        cfg = McmcConfig(n_iterations=1100, burn_in=100, thin=10)
        assert cfg.n_draws == 100

    def test_burn_in_bounds(self):
        with pytest.raises(ValueError):
            McmcConfig(n_iterations=100, burn_in=100, thin=1)


def _scenario_series(phi, seed, length=600):
    params = IrSvParams(-9.0, phi, 0.8)
    ss = np.random.SeedSequence(seed)
    s_gaps, s_sim = ss.spawn(2)
    gaps = generate_gaps(length - 1, 3.0, seed=s_gaps)
    _, r = simulate_irsv(params, gaps, length, seed=s_sim)
    return r, gaps


class TestFitIrsv:
    def test_preconditions(self):
        with pytest.raises(ValueError, match="at least 10"):
            fit_irsv(np.full(5, 0.01), np.full(4, 0.5), config=McmcConfig(100, 50, 1))
        with pytest.raises(ValueError, match="scaled"):
            fit_irsv(np.full(20, 0.01), np.full(19, 2.0), config=McmcConfig(100, 50, 1))

    def test_takes_one_series_as_a_vector_or_one_row(self):
        r, gaps = _scenario_series(0.5, seed=18, length=40)
        cfg = McmcConfig(100, 50, 1, rng_seed=6)
        a, _ = fit_irsv(r, gaps, config=cfg)
        b, _ = fit_irsv(r[np.newaxis, :], gaps, config=cfg)
        np.testing.assert_array_equal(a.draws, b.draws)
        with pytest.raises(ValueError, match="one series"):
            fit_irsv(np.vstack([r, r]), gaps, config=cfg)
        with pytest.raises(ValueError, match="finite"):
            fit_irsv(np.append(r[:-1], np.nan), gaps, config=cfg)
        for wrong in (gaps[:-1], np.append(gaps, 0.5)):  # one gap too few, one too many
            with pytest.raises(ValueError, match=f"need exactly 39 gap times for 40 returns, "
                                                 f"not {wrong.size}"):
                fit_irsv(r, wrong, config=cfg)

    def test_all_zero_returns_warn_not_fail(self):
        with pytest.warns(UserWarning, match="zero"):
            chain, _ = fit_irsv(np.zeros(30), np.full(29, 0.5), config=McmcConfig(200, 100, 1, rng_seed=1))
        assert np.all(np.isfinite(chain.draws))

    def test_bit_reproducible(self):
        series = _scenario_series(0.5, seed=10, length=80)
        cfg = McmcConfig(300, 100, 2, rng_seed=42)
        a, _ = fit_irsv(*series, config=cfg)
        b, _ = fit_irsv(*series, config=cfg)
        np.testing.assert_array_equal(a.draws, b.draws)
        assert a.acceptance_rates == b.acceptance_rates

    def test_chain_layout(self):
        series = _scenario_series(0.5, seed=11, length=95)
        cfg = McmcConfig(400, 100, 3, rng_seed=1)
        chain, summary = fit_irsv(*series, config=cfg)
        assert chain.n_draws == 100
        assert chain.names[:3] == ("mu", "phi", "sigma_eta")
        assert "h_94" in chain.names  # final site always stored
        assert set(chain.acceptance_rates) == {"h", "mu", "phi", "sigma_eta"}
        for rate in chain.acceptance_rates.values():
            assert 0.0 <= rate <= 1.0
        assert list(summary) == list(chain.names)

    def test_no_correlation_step_for_one_asset(self, monkeypatch):
        # the block step draws from the stream even with no free entries
        def forbidden(*args, **kwargs):
            raise AssertionError("correlation_block_step called for one asset")

        monkeypatch.setattr(fit_module, "correlation_block_step", forbidden)
        series = _scenario_series(0.5, seed=15, length=40)
        chain, _ = fit_irsv(*series, config=McmcConfig(100, 50, 1, rng_seed=5))
        assert chain.n_draws == 50

    def test_recovers_truth_at_moderate_scale(self):
        series = _scenario_series(0.6, seed=13, length=1200)
        cfg = McmcConfig(6000, 2000, 4, rng_seed=3)
        _, summary = fit_irsv(*series, config=cfg)
        phi = summary["phi"]
        assert phi.quantiles[0.025] - 0.15 <= 0.6 <= phi.quantiles[0.975] + 0.15
        mu = summary["mu"]
        assert mu.quantiles[0.025] - 0.3 <= -9.0 <= mu.quantiles[0.975] + 0.3

    def test_phi_draws_stay_in_unit_interval(self):
        series = _scenario_series(0.2, seed=14, length=150)
        chain, _ = fit_irsv(*series, config=McmcConfig(500, 100, 4, rng_seed=4))
        phi = chain.column("phi")
        assert np.all(phi > 0.0) and np.all(phi < 1.0)
        assert np.all(chain.column("sigma_eta") > 0.0)


def _msv_data(seed, length=400, rho=(0.6, 0.4, 0.2)):
    corr = CorrelationMatrix([
        [1.0, rho[0], rho[1]],
        [rho[0], 1.0, rho[2]],
        [rho[1], rho[2], 1.0],
    ])
    params = IrMsvParams(mu=[-9.0, -9.5, -8.5], phi=[0.7, 0.5, 0.3],
                         sigma=[1.0, math.sqrt(0.8), math.sqrt(0.5)],
                         correlation=corr)
    ss = np.random.SeedSequence(seed)
    s_gaps, s_sim = ss.spawn(2)
    gaps = generate_gaps(length - 1, 3.0, seed=s_gaps)
    _, r = simulate_irmsv(params, gaps, length, seed=s_sim)
    return r, gaps


class TestFitIrmsv:
    def test_preconditions(self):
        r, gaps = _msv_data(seed=20, length=50)
        with pytest.raises(ValueError, match="p >= 2"):
            fit_irmsv(r[:1], gaps, config=McmcConfig(100, 50, 1))
        with pytest.raises(ValueError, match="scaled"):
            fit_irmsv(r, gaps * 3.0, config=McmcConfig(100, 50, 1))

    def test_bit_reproducible(self):
        r, gaps = _msv_data(seed=21, length=60)
        cfg = McmcConfig(200, 50, 3, rng_seed=5)
        a, _ = fit_irmsv(r, gaps, config=cfg)
        b, _ = fit_irmsv(r, gaps, config=cfg)
        np.testing.assert_array_equal(a.draws, b.draws)

    def test_correlation_draws_always_valid(self):
        r, gaps = _msv_data(seed=22, length=80)
        cfg = McmcConfig(400, 100, 2, rng_seed=6)
        chain, _ = fit_irmsv(r, gaps, config=cfg)
        rho_cols = [chain.column(n) for n in ("rho_12", "rho_13", "rho_23")]
        for draw in zip(*rho_cols):
            matrix = np.eye(3)
            matrix[np.tril_indices(3, -1)] = draw
            matrix[np.triu_indices(3, 1)] = matrix.T[np.triu_indices(3, 1)]
            np.linalg.cholesky(matrix)  # PD, symmetric, unit diagonal

    def test_chain_layout(self):
        r, gaps = _msv_data(seed=23, length=70)
        cfg = McmcConfig(200, 100, 2, rng_seed=7)
        chain, _ = fit_irmsv(r, gaps, config=cfg)
        for name in ("mu_1", "phi_2", "sigma2_3", "rho_12", "rho_23", "h1_0", "h3_69"):
            assert name in chain.names
        assert set(chain.acceptance_rates) == {
            "h", "correlation", "mu_1", "mu_2", "mu_3", "phi_1", "phi_2", "phi_3",
            "sigma2_1", "sigma2_2", "sigma2_3"}
        for rate in chain.acceptance_rates.values():
            assert 0.0 <= rate <= 1.0

    def test_independence_recovery(self):
        # true R = I: posterior of each rho concentrates near zero
        corr = CorrelationMatrix(np.eye(2))
        params = IrMsvParams(mu=[-9.0, -9.0], phi=[0.3, 0.3], sigma=[0.8, 0.8],
                             correlation=corr)
        gaps = generate_gaps(1999, 3.0, seed=24)
        _, r = simulate_irmsv(params, gaps, 2000, seed=25)
        cfg = McmcConfig(6000, 2000, 4, rng_seed=8)
        _, summary = fit_irmsv(r, gaps, config=cfg)
        assert abs(summary["rho_12"].mean) < 0.05

    def test_negative_correlation_recovery(self):
        corr = CorrelationMatrix([[1.0, -0.4], [-0.4, 1.0]])
        params = IrMsvParams(mu=[-9.0, -9.5], phi=[0.5, 0.3], sigma=[0.9, 0.7],
                             correlation=corr)
        gaps = generate_gaps(999, 3.0, seed=26)
        _, r = simulate_irmsv(params, gaps, 1000, seed=27)
        cfg = McmcConfig(6000, 2000, 4, rng_seed=9)
        _, summary = fit_irmsv(r, gaps, config=cfg)
        rho = summary["rho_12"]
        assert abs(rho.mean - (-0.4)) < 0.1
        assert rho.quantiles[0.975] < 0.0


class TestAssetDraws:
    def test_irsv_layout(self):
        series = _scenario_series(0.5, seed=16, length=47)
        chain, _ = fit_irsv(*series, config=McmcConfig(120, 20, 2, rng_seed=8))
        (mu, phi, sigma2, last_h), = asset_draws(chain, "irsv", 1, 47)
        np.testing.assert_array_equal(mu, chain.column("mu"))
        np.testing.assert_array_equal(phi, chain.column("phi"))
        np.testing.assert_array_equal(sigma2, chain.column("sigma_eta") ** 2)
        np.testing.assert_array_equal(last_h, chain.column("h_46"))

    def test_irmsv_layout(self):
        r, gaps = _msv_data(seed=29, length=45)
        chain, _ = fit_irmsv(r, gaps, config=McmcConfig(120, 20, 2, rng_seed=9))
        groups = asset_draws(chain, "irmsv", 3, 45)
        assert len(groups) == 3
        for i, (mu, phi, sigma2, last_h) in enumerate(groups, start=1):
            np.testing.assert_array_equal(mu, chain.column(f"mu_{i}"))
            np.testing.assert_array_equal(phi, chain.column(f"phi_{i}"))
            np.testing.assert_array_equal(sigma2, chain.column(f"sigma2_{i}"))
            np.testing.assert_array_equal(last_h, chain.column(f"h{i}_44"))

    def test_latest_site_chosen_by_number(self):
        # the last site is the fit length less one, wherever its column is
        draws = np.arange(12.0).reshape(2, 6)
        chain = McmcChain(("mu", "phi", "sigma_eta", "h_10", "h_9", "h_2"), draws, {}, CONFIG)
        (_, _, _, last_h), = asset_draws(chain, "irsv", 1, 11)
        np.testing.assert_array_equal(last_h, chain.column("h_10"))

    def test_missing_columns_rejected(self):
        # an irsv chain without latent columns
        chain = McmcChain(("mu", "phi", "sigma_eta"), np.zeros((40, 3)), {}, CONFIG)
        with pytest.raises(KeyError, match="h_29"):
            asset_draws(chain, "irsv", 1, 30)
        with pytest.raises(KeyError, match="mu_1"):
            asset_draws(chain, "irmsv", 2, 30)
        with pytest.raises(ValueError, match="one asset"):
            asset_draws(chain, "irsv", 2, 30)
