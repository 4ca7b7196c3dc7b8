"""Posterior sampler for the gap-time stochastic volatility models.

The univariate model is the multivariate one with p = 1 and no
correlation, so one engine samples both.  It takes a (p, T) return
matrix over shared gaps.  The prior of each asset's latent path
x = h - mu (stationary start plus gap-time AR(1) transitions) is
Gaussian with a tridiagonal precision Q / sigma_eta**2; ``_prior``
builds Q's diagonals from ``gap_law`` on the distinct gaps, once per
accepted phi.  One chain is a strictly sequential sweep per iteration:

* every latent log-volatility gets a single-site adaptive random-walk
  update against its full conditional (observation density at the site,
  which couples assets at a fixed time through the precision matrix,
  plus the prior, whose log-ratio comes from the site's row of Q).
  Sites of the same parity have mutually independent full conditionals,
  so the even sites of an asset are updated in one vectorized pass and
  then the odd sites in another — the same per-site updates, just
  batched;
* per asset, mu, phi and sigma_eta**2 get adaptive random-walk updates
  in that order (sigma_eta**2 on the log scale, with the Jacobian folded
  into the target).  One pass over the path gives x'Qx, after which the
  mu and sigma_eta**2 targets cost O(1) and each phi proposal one pass.
  Both models walk phi itself, from ``PHI_START`` = 0.5 at the initial
  scale ``PHI_SCALE`` = 0.1, and keep it in (0, 1); a model only brings
  its prior, through ``phi_logprior`` (``irsv``: Beta on (phi + 1)/2,
  ``irmsv``: a normal truncated to (-1, 1));
* for p > 1, all free correlations are updated jointly by a block
  random walk.

Proposal scales adapt toward the fixed acceptance targets
``TARGET_ACCEPT_SCALAR`` and ``TARGET_ACCEPT_BLOCK`` during burn-in and
are frozen afterwards.  Chains are bit-reproducible for a fixed seed.
``fit_irsv`` and ``fit_irmsv`` take the same (returns, gaps), check them
in one place, run the engine and name its columns; ``asset_draws`` reads
each asset's parameters and last latent state back out of a chain of
either model.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

from irvol.core import gap_values, squared_returns
from irvol.irmsv import correlation_names, lower_entries
from irvol.irsv import gap_law
from irvol.mcmc.chain import McmcChain, McmcConfig, ParameterSummary, summarize
from irvol.mcmc.priors import IrMsvPriors, IrSvPriors, normal_logpdf, variance_logprior
from irvol.mcmc.samplers import AdaptiveScale, adaptive_rwm_scalar, correlation_block_step

H_INIT_FLOOR = 1e-12  # added to r^2 before the log when initializing h
MU_INIT_OFFSET = 1.27  # rough mean of -log(chi2_1), recentres log r^2 on mu
DEFAULT_CONFIG = McmcConfig(n_iterations=20_000, burn_in=5_000, thin=10)  # a fit given none
# the optimal random-walk acceptance rates (Roberts, Gelman & Gilks 1997; Roberts & Rosenthal 2001)
TARGET_ACCEPT_SCALAR = 0.44
TARGET_ACCEPT_BLOCK = 0.234
LATENT_STRIDE = 10  # a chain stores every 10th latent site and the last one
PHI_START = 0.5  # every chain's first phi, for either model
PHI_SCALE = 0.1  # and the initial scale of its random walk


def _parities(length: int) -> list[tuple[slice, slice, slice]]:
    """Per parity, the slices taking its sites t, t + 1 and t + 2 out of an
    array: of a per-site array the first takes the sites; of the path
    padded by one entry at each end, the left neighbours, the sites and the
    right neighbours; of ``_Prior.e``, the first two the couplings to them."""
    return [(slice(s, length, 2), slice(s + 1, length + 1, 2), slice(s + 2, length + 2, 2))
            for s in (0, 1)]


def _distinct(gaps: np.ndarray):
    """Distinct gaps behind an infinite one, each site's index among them and
    their counts: site 0, the stationary start, is the law after an
    infinite gap, and site t >= 1 the law after g_t."""
    unique, inverse, counts = np.unique(gaps, return_inverse=True, return_counts=True)
    return np.append(np.inf, unique), np.append(0, inverse + 1), np.append(1, counts)


def _law(phi: float, distinct) -> tuple[np.ndarray, np.ndarray, float]:
    """Per-site AR coefficients a and inverse unit-variance factors 1/c, with
    (a[t], c[t]) = ``gap_law(phi, g_t)`` taken once per distinct gap (so
    a[0] = 0 and c[0] = 1 / (1 - phi^2)), and the sum of log c.  The
    transition variance at sigma_eta**2 = s2 is s2 * c."""
    unique, inverse, counts = distinct
    a, c = gap_law(phi, unique)
    return a.take(inverse), (1.0 / c).take(inverse), float(counts @ np.log(c))


class _Prior(NamedTuple):
    """Tridiagonal prior precision of one asset's path at unit sigma_eta**2.

    With x = h - mu and ``_law``'s a, 1/c and log_c, the stationary start
    and the transitions add up to -(T log(2 pi s2) + log_c) / 2 -
    x'Qx / (2 s2), where Q has the diagonal d[t] = 1/c[t] + a[t+1]^2 /
    c[t+1] and couples sites t - 1 and t by e[t] = -a[t] / c[t] (zero at
    t = 0 and t = T).  Shifting mu by m moves each residual
    x[t] - a[t] x[t-1] by -m (1 - a[t]), so with w = (1 - a) / c and
    b = sum((1 - a)^2 / c) the form at mu + m is x'Qx - 2 m resid'w + m^2 b.
    """

    a: np.ndarray
    inv_c: np.ndarray
    log_c: float
    d: np.ndarray
    e: np.ndarray
    w: np.ndarray
    b: float


def _prior(a: np.ndarray, inv_c: np.ndarray, log_c: float) -> _Prior:
    e = np.append(-a * inv_c, 0.0)
    one_minus_a = 1.0 - a
    w = one_minus_a * inv_c
    return _Prior(a, inv_c, log_c, inv_c - np.append(a[1:] * e[1:-1], 0.0), e, w,
                  float(one_minus_a @ w))


def _quad(x: np.ndarray, a: np.ndarray, inv_c: np.ndarray) -> tuple[np.ndarray, float]:
    """The residuals x[t] - a[t] x[t-1] (a[0] = 0 leaves x[0]) and x'Qx at
    unit sigma_eta**2, the sum of their squares over c."""
    resid = x.copy()
    resid[1:] -= a[1:] * x[:-1]
    return resid, float(resid @ (resid * inv_c))


def _latent_sites(length: int) -> np.ndarray:
    """Every ``LATENT_STRIDE``-th site plus the final one, which forecasting needs."""
    sites = np.arange(0, length, LATENT_STRIDE)
    if sites[-1] != length - 1:
        sites = np.append(sites, length - 1)
    return sites


def _log_ratios(hp_i, parity, prop, eps_prop, eps_cur, mu_i, prior, inv_s2, qii, cross):
    """Log full-conditional ratios of moving one parity's sites of a path to ``prop``.

    ``hp_i`` is the path between one pad entry at each end (e is zero
    there).  With x = h - mu and s = prop - cur, the prior term is
    -s (1/2 + (d (x_p + x_c) / 2 + e[t] x[t-1] + e[t+1] x[t+1]) / s2) and
    the observation term -(eps_p - eps_c) (qii (eps_p + eps_c) / 2 + cross).
    """
    left, at, right = parity
    cur = hp_i[at]
    lin = (prior.d[left] * (0.5 * (prop + cur) - mu_i) + prior.e[left] * (hp_i[left] - mu_i)
           + prior.e[at] * (hp_i[right] - mu_i))
    obs = 0.5 * qii * (eps_prop + eps_cur)
    if cross is not None:
        obs += cross[left]
    return (cur - prop) * (0.5 + lin * inv_s2) - (eps_prop - eps_cur) * obs


def _msv_sweep(hp_i, eps_i, r_i, parity, mu_i, prior, inv_s2, qii, cross, scales, flags,
               rng) -> None:
    """Single-site updates of one parity class for one asset's latent path;
    each site's accept flag goes into its entry of ``flags``."""
    left, at, _ = parity
    cur = hp_i[at]  # a view: accepted proposals are written through it
    prop = cur + scales.values[left] * rng.standard_normal(cur.size)
    logu = np.log(rng.random(cur.size))
    eps_cur = eps_i[left]
    eps_prop = r_i[left] * np.exp(np.minimum(-prop / 2.0, 700.0))
    accept = np.less(logu, _log_ratios(hp_i, parity, prop, eps_prop, eps_cur, mu_i, prior,
                                       inv_s2, qii, cross), out=flags[left])
    np.copyto(cur, prop, where=accept)
    np.copyto(eps_cur, eps_prop, where=accept)


class _Run(NamedTuple):
    """Engine output.

    Each row of ``draws`` is mu (p), phi (p), sigma2 (p), the free
    correlations, then each asset's latent states at ``sites``.  ``rates``
    holds the h and correlation acceptance rates and per-asset lists for
    mu, phi and sigma2, each read off its frozen scales.
    """

    draws: np.ndarray
    sites: np.ndarray
    rates: dict


def _scalar_steps(h_i, state, distinct, priors, scales, rng):
    """Random-walk updates of mu, then phi, then log sigma_eta**2.

    ``state`` is (mu, phi, sigma2, prior) of one asset; returns its update.
    One pass over the path gives x'Qx and resid'w at the current mu; after
    it the mu and sigma_eta**2 targets are O(1), and each phi proposal
    costs one pass with its own law.  Targets drop terms that cancel in
    the step's log-ratio.
    """
    mu, phi, s2, prior = state
    half_inv_s2 = 0.5 / s2
    resid, q = _quad(h_i - mu, prior.a, prior.inv_c)
    rw = float(resid @ prior.w)
    pm_mean, pm_var = priors.mu_normal

    def mu_target(m):
        dm = m - mu
        return normal_logpdf(m, pm_mean, pm_var) - (q - 2.0 * dm * rw + dm * dm * prior.b) * half_inv_s2

    mu_step = adaptive_rwm_scalar(mu, mu_target, scales[0], rng)
    if mu_step.accepted:
        dm = mu_step.value - mu
        q -= 2.0 * dm * rw - dm * dm * prior.b
        mu = mu_step.value

    dev = h_i - mu
    proposed = []  # the last proposal's law and x'Qx

    def phi_target(phi_v):
        if not 0.0 < phi_v < 1.0:  # phi**g over a fractional gap g needs phi > 0
            return -math.inf
        a, inv_c, log_c = _law(phi_v, distinct)
        proposed[:] = (a, inv_c, log_c), _quad(dev, a, inv_c)[1]
        return priors.phi_logprior(phi_v) - 0.5 * log_c - proposed[1] * half_inv_s2

    current = priors.phi_logprior(phi) - 0.5 * prior.log_c - q * half_inv_s2
    phi_step = adaptive_rwm_scalar(phi, phi_target, scales[1], rng, current)
    if phi_step.accepted:
        phi = phi_step.value
        prior, q = _prior(*proposed[0]), proposed[1]

    gshape, grate = priors.precision_gamma

    def u_target(uv):
        if uv > 700.0:
            return -math.inf
        s2v = math.exp(uv)
        log_prior = variance_logprior(s2v, gshape, grate)
        if log_prior == -math.inf:
            return log_prior
        return log_prior + uv - 0.5 * (h_i.size * uv + q / s2v)

    u_step = adaptive_rwm_scalar(math.log(s2), u_target, scales[2], rng)
    if u_step.accepted:
        s2 = math.exp(u_step.value)
    return mu, phi, s2, prior


def _sample(r: np.ndarray, gaps: np.ndarray, priors, config: McmcConfig) -> _Run:
    """Run one chain on a (p, T) return matrix over shared scaled gaps.

    ``priors`` is the model's ``IrSvPriors`` or ``IrMsvPriors``; the
    correlation step, run only for p > 1, reads its ``lkj_eta``.
    """
    p, length = r.shape
    rng = np.random.default_rng(config.rng_seed)

    r2 = squared_returns(r)
    states = []
    distinct = _distinct(gaps)
    for i in range(p):
        positive = r2[i][r2[i] > 0]
        if positive.size == 0:
            warnings.warn(f"asset {i + 1}: all returns are zero; the volatility level "
                          "is unidentified")
            mu_i = 0.0
        else:
            mu_i = float(np.mean(np.log(positive))) + MU_INIT_OFFSET
        states.append((mu_i, PHI_START, 1.0, _prior(*_law(PHI_START, distinct))))
    hp = np.zeros((p, length + 2))  # each path between two pads that e weighs by zero
    h = hp[:, 1:-1]
    h[:] = np.log(r2 + H_INIT_FLOOR)
    eps = r * np.exp(-h / 2.0)
    corr = np.eye(p)
    prec = np.eye(p)  # corr's inverse
    logdet = 0.0  # and its log-determinant

    parities = _parities(length)
    target = TARGET_ACCEPT_SCALAR
    h_scales = [AdaptiveScale(np.ones(length), target) for _ in range(p)]
    h_flags = np.empty(length, dtype=bool)  # one asset's latent accept flags of a sweep
    scalar_scales = [[AdaptiveScale(v, target) for v in (0.2, PHI_SCALE, 0.3)] for _ in range(p)]
    corr_scale = AdaptiveScale(0.05, TARGET_ACCEPT_BLOCK)
    all_scales = h_scales + sum(scalar_scales, []) + [corr_scale]

    sites = _latent_sites(length)
    draws = np.empty((config.n_draws, 3 * p + p * (p - 1) // 2 + p * sites.size))

    for it in range(1, config.n_iterations + 1):
        if it == config.burn_in + 1:
            for scale in all_scales:
                scale.freeze()
        for i in range(p):
            # a lone asset has no cross term: it would subtract exact zeros
            cross = prec[i] @ eps - prec[i, i] * eps[i] if p > 1 else None
            mu_i, _, s2_i, prior = states[i]
            for parity in parities:
                _msv_sweep(hp[i], eps[i], r[i], parity, mu_i, prior, 1.0 / s2_i,
                           float(prec[i, i]), cross, h_scales[i], h_flags, rng)
            h_scales[i].observe(h_flags)

        for i in range(p):
            states[i] = _scalar_steps(h[i], states[i], distinct, priors, scalar_scales[i],
                                      rng)

        # with one asset there is no free correlation, and the step would
        # still draw from the stream
        if p > 1:
            scatter = eps @ eps.T

            def corr_target(logdet_c, prec_c):
                quad = float(np.sum(prec_c * scatter))
                return (priors.lkj_eta - 1.0) * logdet_c - 0.5 * (length * logdet_c + quad)

            proposed = []  # the proposal's log-determinant and inverse

            def proposal_target(candidate, chol):
                proposed[:] = 2.0 * float(np.sum(np.log(np.diag(chol)))), np.linalg.inv(candidate)
                return corr_target(*proposed)

            block = correlation_block_step(corr, corr_scale, rng, proposal_target,
                                           corr_target(logdet, prec))
            if block.accepted:
                corr = block.value
                logdet, prec = proposed

        if it > config.burn_in and (it - config.burn_in) % config.thin == 0:
            mu, phi, sigma2, _ = zip(*states)
            draws[(it - config.burn_in) // config.thin - 1] = np.concatenate(
                [mu, phi, sigma2, lower_entries(corr), h[:, sites].ravel()])

    # each tally holds whole numbers, so each rate is the exact ratio rounded once
    kept = config.n_iterations - config.burn_in
    rates = {"h": float(sum(scale.accepted.sum() for scale in h_scales)) / (kept * p * length),
             "correlation": float(corr_scale.accepted[0]) / kept}
    for name, scales in zip(("mu", "phi", "sigma2"), zip(*scalar_scales)):
        rates[name] = [float(scale.accepted[0]) / kept for scale in scales]
    return _Run(draws, sites, rates)


def _chain(run: _Run, names: list[str], config: McmcConfig):
    """A run's chain and its summary.  The first 3p ``names`` are the mu,
    phi and sigma columns, and each keys its scale's acceptance rate; "h"
    keys the latent sites' and, for p > 1, "correlation" the block's."""
    mu = run.rates["mu"]
    rates = dict(zip(names, mu + run.rates["phi"] + run.rates["sigma2"]), h=run.rates["h"])
    if len(mu) > 1:
        rates["correlation"] = run.rates["correlation"]
    chain = McmcChain(tuple(names), run.draws, rates, config)
    return chain, summarize(chain)


def _fit_data(returns, gaps, multivariate: bool) -> tuple[np.ndarray, np.ndarray]:
    """The (p, T) return matrix and T - 1 scaled gaps of a fit, checked.

    ``fit_irsv`` takes one series, (T,) or (1, T); ``fit_irmsv`` p >= 2.
    """
    r = np.atleast_2d(np.asarray(returns, dtype=float))
    if r.ndim != 2 or not (r.shape[0] >= 2 if multivariate else r.shape[0] == 1):
        raise ValueError("returns must be a (p >= 2, T) matrix" if multivariate
                         else "returns must be one series: a (T,) or (1, T) array")
    if not np.all(np.isfinite(r)):
        raise ValueError("returns must contain only finite values")
    if r.shape[1] < 10:
        raise ValueError("need at least 10 observations to fit")
    return r, gap_values(gaps, count=r.shape[1] - 1, max_one=True)


def fit_irsv(returns, gaps, priors: IrSvPriors | None = None,
             config: McmcConfig | None = None) -> tuple[McmcChain, dict[str, ParameterSummary]]:
    """Sample the joint posterior of (h, mu, phi, sigma_eta) for one series.

    ``returns`` is one series of T returns, (T,) or (1, T), and ``gaps``
    its T - 1 gap times, scaled into (0, 1].  The chain stores mu, phi,
    sigma_eta, and a strided subset of latent sites (always including the
    final one, which forecasting needs).
    """
    priors = priors or IrSvPriors()
    config = config or DEFAULT_CONFIG
    r, g = _fit_data(returns, gaps, multivariate=False)
    run = _sample(r, g, priors, config)
    run.draws[:, 2] = np.sqrt(run.draws[:, 2])
    return _chain(run, ["mu", "phi", "sigma_eta"] + [f"h_{j}" for j in run.sites], config)


def fit_irmsv(returns, gaps, priors: IrMsvPriors | None = None,
              config: McmcConfig | None = None) -> tuple[McmcChain, dict[str, ParameterSummary]]:
    """Sample the joint posterior of the multivariate model.

    ``returns`` is a (p, T) matrix of synchronized returns sharing one
    gap sequence (scaled into (0, 1]).  The chain stores mu_i, phi_i,
    sigma2_i, the correlations, and strided latent sites per asset.
    """
    priors = priors or IrMsvPriors()
    config = config or DEFAULT_CONFIG
    r, g = _fit_data(returns, gaps, multivariate=True)
    p = r.shape[0]
    run = _sample(r, g, priors, config)
    assets = range(1, p + 1)
    names = ([f"mu_{i}" for i in assets] + [f"phi_{i}" for i in assets]
             + [f"sigma2_{i}" for i in assets] + correlation_names(p)
             + [f"h{i}_{j}" for i in assets for j in run.sites])
    return _chain(run, names, config)


def asset_draws(chain: McmcChain, model: str, n_assets: int,
                length: int) -> list[tuple[np.ndarray, ...]]:
    """Each asset's (mu, phi, sigma2, last h) draws from a ``model`` chain
    fit to ``n_assets`` series of ``length`` observations.

    ``fit_irsv``'s layout is mu, phi, sigma_eta, h_<site> (one asset);
    ``fit_irmsv``'s is mu_i, phi_i, sigma2_i, h<i>_<site>.  Both store the
    last site, ``length - 1``, which forecasting starts from.
    """
    last = length - 1
    if model == "irsv":
        if n_assets != 1:
            raise ValueError(f"an irsv chain holds one asset, not {n_assets}")
        return [(chain.column("mu"), chain.column("phi"), chain.column("sigma_eta") ** 2,
                 chain.column(f"h_{last}"))]
    return [(chain.column(f"mu_{i}"), chain.column(f"phi_{i}"), chain.column(f"sigma2_{i}"),
             chain.column(f"h{i}_{last}")) for i in range(1, n_assets + 1)]
