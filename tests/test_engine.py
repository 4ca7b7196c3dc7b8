"""The sampler engine's precision-form arithmetic, and its chains against the
per-site engine it replaced (``reference_engine``), draw for draw."""

import math

import numpy as np
import pytest
import reference_engine
from reference_densities import joint_observation_density, path_log_prior

from irvol.core import LOG_2PI
from irvol.irmsv import CorrelationMatrix, IrMsvParams, simulate_irmsv
from irvol.irsv import IrSvParams
from irvol.mcmc import fit as fm
from irvol.mcmc.chain import McmcConfig
from irvol.mcmc.priors import IrMsvPriors, IrSvPriors


def _gaps(kind: str, count: int, rng) -> np.ndarray:
    """Gaps in (0, 1]: five repeated values, or all distinct."""
    if kind == "repeated":
        return rng.integers(1, 6, count) / 5.0
    return rng.uniform(0.01, 1.0, count)


def _precision_log_prior(h, mu, s2, prior) -> float:
    x = h - mu
    quad = float(x @ (prior.d * x)) + 2.0 * float(prior.e[1:-1] @ (x[:-1] * x[1:]))
    return -0.5 * (x.size * (LOG_2PI + math.log(s2)) + prior.log_c) - 0.5 * quad / s2


class TestPrecisionForm:
    @pytest.mark.parametrize("kind", ["repeated", "distinct"])
    @pytest.mark.parametrize("length", [1, 2, 3, 50, 1001])
    def test_prior_log_density_is_stationary_plus_transitions(self, kind, length):
        rng = np.random.default_rng(length + (kind == "distinct"))
        for _ in range(5):
            phi, s2, mu = rng.uniform(0.05, 0.99), rng.uniform(0.1, 2.0), rng.normal(-9.0, 1.0)
            gaps = _gaps(kind, length - 1, rng)
            h = mu + rng.normal(0.0, 1.5, length)
            prior = fm._prior(*fm._law(phi, fm._distinct(gaps)))
            direct = path_log_prior(h, gaps, IrSvParams(mu, phi, math.sqrt(s2)))
            assert _precision_log_prior(h, mu, s2, prior) == pytest.approx(direct, rel=1e-12)
            # the residual form of x'Qx that the scalar steps use
            x = h - mu
            quad = float(x @ (prior.d * x)) + 2.0 * float(prior.e[1:-1] @ (x[:-1] * x[1:]))
            assert fm._quad(x, prior.a, prior.inv_c)[1] == pytest.approx(quad, rel=1e-12)

    def test_law_takes_gap_law_at_every_site(self):
        rng = np.random.default_rng(3)
        gaps = _gaps("repeated", 200, rng)
        a_law, inv_c, log_c = fm._law(0.83, fm._distinct(gaps))
        a, c = fm.gap_law(0.83, gaps)
        np.testing.assert_array_equal(a_law, np.concatenate(([0.0], a)))
        np.testing.assert_array_equal(inv_c[1:], 1.0 / c)
        assert inv_c[0] == pytest.approx(1.0 - 0.83 * 0.83, rel=1e-15)
        assert log_c == pytest.approx(math.log(1.0 / (1.0 - 0.83**2)) + np.log(c).sum(),
                                          rel=1e-12)

    @pytest.mark.parametrize("kind", ["repeated", "distinct"])
    def test_mu_shift_updates_the_quadratic_form(self, kind):
        rng = np.random.default_rng(8)
        gaps = _gaps(kind, 299, rng)
        prior = fm._prior(*fm._law(0.9, fm._distinct(gaps)))
        mu = -9.0
        h = mu + rng.normal(0.0, 1.0, 300)
        resid, q = fm._quad(h - mu, prior.a, prior.inv_c)
        rw = float(resid @ prior.w)
        for dm in (-0.7, -1e-3, 0.05, 1.3):
            shifted = q - 2.0 * dm * rw + dm * dm * prior.b
            assert shifted == pytest.approx(fm._quad(h - (mu + dm), prior.a, prior.inv_c)[1],
                                            rel=1e-12)


def _full_conditional(h, r, corr, gaps, params, i, t) -> float:
    """Log full conditional of h[i, t] up to a constant, from the reference densities."""
    return (path_log_prior(h[i], gaps, params[i])
            + joint_observation_density(r[:, t], h[:, t], corr))


class TestSweepLogRatio:
    @pytest.mark.parametrize("p", [1, 3])
    @pytest.mark.parametrize("length", [11, 12])
    def test_log_ratio_equals_full_conditional_difference(self, p, length):
        rng = np.random.default_rng(10 * p + length)
        gaps = _gaps("repeated", length - 1, rng)
        mu = rng.normal(-9.0, 0.5, p)
        phi = rng.uniform(0.2, 0.95, p)
        s2 = rng.uniform(0.3, 1.5, p)
        corr = np.eye(p)
        if p == 3:
            corr = CorrelationMatrix([[1.0, 0.5, -0.2], [0.5, 1.0, 0.3], [-0.2, 0.3, 1.0]]).values
        prec = np.linalg.inv(corr)
        hp = np.zeros((p, length + 2))
        hp[:, 1:-1] = mu[:, None] + rng.normal(0.0, 1.0, (p, length))
        h = hp[:, 1:-1]
        r = np.exp(h / 2.0) * rng.standard_normal((p, length))
        eps = r * np.exp(-h / 2.0)
        params = [IrSvParams(mu[i], phi[i], math.sqrt(s2[i])) for i in range(p)]
        for i in range(p):
            prior = fm._prior(*fm._law(phi[i], fm._distinct(gaps)))
            cross = prec[i] @ eps - prec[i, i] * eps[i] if p > 1 else None
            for parity in fm._parities(length):
                left, at, _ = parity
                cur = hp[i, at].copy()
                prop = cur + rng.normal(0.0, 0.8, cur.size)
                eps_prop = r[i, left] * np.exp(-prop / 2.0)
                ratios = fm._log_ratios(hp[i], parity, prop, eps_prop, eps[i, left], mu[i],
                                        prior, 1.0 / s2[i], prec[i, i], cross)
                for k, t in enumerate(range(length)[left]):
                    before = _full_conditional(h, r, corr, gaps, params, i, t)
                    moved = h.copy()
                    moved[i, t] = prop[k]
                    after = _full_conditional(moved, r, corr, gaps, params, i, t)
                    assert ratios[k] == pytest.approx(after - before, abs=1e-10)


def _msv_returns(length, kind, seed):
    rng = np.random.default_rng(seed)
    gaps = _gaps(kind, length - 1, rng)
    corr = CorrelationMatrix([[1.0, 0.6, 0.4], [0.6, 1.0, 0.2], [0.4, 0.2, 1.0]])
    params = IrMsvParams(mu=[-9.0, -9.5, -8.5], phi=[0.7, 0.5, 0.9],
                         sigma=[1.0, 0.9, 0.7], correlation=corr)
    _, r = simulate_irmsv(params, gaps, length, seed=rng)
    return r, gaps


class TestReferenceEngine:
    """Chains equal the replaced per-site engine's draw for draw and rate for rate."""

    @pytest.mark.parametrize("p", [1, 3])
    @pytest.mark.parametrize("kind", ["repeated", "distinct"])
    @pytest.mark.parametrize("length", [61, 80])
    # burn-in ends before the first 200-iteration adaptation round, or after two
    # rounds and part of a third
    @pytest.mark.parametrize("burn_in", [0, 150, 450])
    def test_short_fits_match_the_reference_engine(self, p, kind, length, burn_in):
        r, gaps = _msv_returns(length, kind, seed=length + 7 * p + burn_in)
        r = r[:p]
        priors = IrSvPriors() if p == 1 else IrMsvPriors()
        config = McmcConfig(n_iterations=480, burn_in=burn_in, thin=3, rng_seed=length + p)
        run = fm._sample(r, gaps, priors, config)
        draws, rates = reference_engine.sample(r, gaps, priors, config)
        np.testing.assert_array_equal(run.draws, draws)
        assert run.rates == rates
