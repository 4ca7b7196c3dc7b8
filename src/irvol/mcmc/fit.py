"""Posterior samplers for the gap-time stochastic volatility models.

One chain is a strictly sequential sweep per iteration:

* every latent log-volatility gets a single-site adaptive random-walk
  update against its full conditional (observation density at the site
  plus the transitions into and out of it).  Sites of the same parity
  have mutually independent full conditionals, so the even sites are
  updated in one vectorized pass and then the odd sites in another —
  the same per-site updates, just batched;
* each scalar parameter gets an adaptive random-walk update (phi on the
  (phi + 1)/2 scale for the univariate model and on its natural scale
  for the multivariate one, sigma_eta**2 on the log scale, with the
  Jacobians folded into the targets);
* the multivariate model additionally updates all free correlations
  jointly by a block random walk.

Proposal scales adapt toward fixed acceptance targets during burn-in and
are frozen afterwards.  Chains are bit-reproducible for a fixed seed.
"""

from __future__ import annotations

import math
import sys
import warnings
from typing import NamedTuple

import numpy as np

from irvol.core import LOG_2PI, GapSeries
from irvol.irmsv import correlation_names, lower_entries
from irvol.irsv import gap_law
from irvol.mcmc.chain import McmcChain, McmcConfig, PosteriorSummary, summarize
from irvol.mcmc.priors import (
    IrMsvPriors,
    IrSvPriors,
    beta_logpdf,
    normal_logpdf,
    truncated_normal_logpdf,
    variance_logprior,
)
from irvol.mcmc.samplers import AdaptiveScale, VectorAdaptiveScale, adaptive_rwm_scalar, correlation_block_step

H_INIT_FLOOR = 1e-12  # added to r^2 before the log when initializing h
MU_INIT_OFFSET = 1.27  # rough mean of -log(chi2_1), recentres log r^2 on mu


class _Parity(NamedTuple):
    sites: np.ndarray
    has_next: np.ndarray
    next_sites: np.ndarray


def _parities(length: int) -> list[_Parity]:
    out = []
    for start in (0, 1):
        sites = np.arange(start, length, 2)
        has_next = sites < length - 1
        out.append(_Parity(sites, has_next, sites[has_next] + 1))
    return out


def _transition_arrays(phi: float, gaps: np.ndarray):
    """Per-site AR coefficients a and unit-variance factors c.

    Index 0 is the stationary start: a[0] = 0 and c[0] = 1 / (1 - phi^2);
    for j >= 1, (a[j], c[j]) = ``gap_law(phi, g_j)``.  The transition
    variance at sigma_eta**2 = s2 is s2 * c.
    """
    a, c = gap_law(phi, gaps)
    return np.concatenate(([0.0], a)), np.concatenate(([1.0 / (1.0 - phi * phi)], c))


def _transition_loglik(h: np.ndarray, mu: float, a: np.ndarray, v: np.ndarray) -> float:
    """Stationary start plus all gap-time AR(1) transition log-densities."""
    resid = h - mu
    resid[1:] -= a[1:] * (h[:-1] - mu)
    return -0.5 * float(np.sum(np.log(v) + resid * resid / v)) - 0.5 * v.size * LOG_2PI


def _safe_exp(x: np.ndarray) -> np.ndarray:
    return np.exp(np.minimum(x, 700.0))


def _sv_sweep(h, parity, r2, mu, a, v, scales, rng) -> int:
    """Vectorized single-site updates of one parity class; returns accepts."""
    sites = parity.sites
    if sites.size == 0:
        return 0
    cur = h[sites]
    prop = cur + scales.values[sites] * rng.standard_normal(sites.size)
    logu = np.log(rng.random(sites.size))
    delta = -0.5 * ((prop - cur) + r2[sites] * (_safe_exp(-prop) - _safe_exp(-cur)))
    # transition into the site; a[0] = 0 neutralizes the wrapped h[-1] read
    mean_in = mu + a[sites] * (h[sites - 1] - mu)
    delta -= ((prop - mean_in) ** 2 - (cur - mean_in) ** 2) / (2.0 * v[sites])
    # transition out of every non-terminal site
    ns = parity.next_sites
    if ns.size:
        h_next = h[ns]
        shifted_prop = prop[parity.has_next]
        shifted_cur = cur[parity.has_next]
        mean_new = mu + a[ns] * (shifted_prop - mu)
        mean_old = mu + a[ns] * (shifted_cur - mu)
        delta[parity.has_next] -= ((h_next - mean_new) ** 2 - (h_next - mean_old) ** 2) / (2.0 * v[ns])
    accept = logu < delta
    h[sites[accept]] = prop[accept]
    scales.record(sites, accept)
    return int(accept.sum())


def _latent_site_names(prefix: str, length: int, stride: int) -> tuple[np.ndarray, list[str]]:
    sites = np.arange(0, length, stride)
    if sites[-1] != length - 1:
        sites = np.append(sites, length - 1)
    return sites, [f"{prefix}{j}" for j in sites]


def _progress(it: int, total: int, every: int) -> None:
    if every and it % every == 0:
        print(f"iteration {it}/{total}", file=sys.stderr)


def fit_irsv(series: GapSeries, priors: IrSvPriors | None = None,
             config: McmcConfig | None = None) -> tuple[McmcChain, PosteriorSummary]:
    """Sample the joint posterior of (h, mu, phi, sigma_eta) for one series.

    ``series.gaps`` must already be scaled into (0, 1].  The chain stores
    mu, phi, sigma_eta, and a strided subset of latent sites (always
    including the final one, which forecasting needs).
    """
    priors = priors or IrSvPriors()
    config = config or McmcConfig(n_iterations=20_000, burn_in=5_000, thin=10)
    r = series.values
    length = r.size
    if length < 10:
        raise ValueError("need at least 10 observations to fit")
    gaps = series.gaps
    if float(np.max(gaps)) > 1.0:
        raise ValueError("gaps must be scaled into (0, 1] before fitting")
    rng = np.random.default_rng(config.rng_seed)

    r2 = r * r
    positive = r2[r2 > 0]
    if positive.size == 0:
        warnings.warn("all returns are zero; the volatility level is unidentified")
        mu = 0.0
    else:
        mu = float(np.mean(np.log(positive))) + MU_INIT_OFFSET
    w = 0.75  # phi = 0.5
    sigma2 = 1.0
    h = np.log(r2 + H_INIT_FLOOR)

    a_cur, c_cur = _transition_arrays(2.0 * w - 1.0, gaps)
    v_cur = sigma2 * c_cur

    parities = _parities(length)
    h_scales = VectorAdaptiveScale(length, 1.0, config.target_accept_scalar,
                                   config.adapt_interval)
    mu_scale = AdaptiveScale(0.2, config.target_accept_scalar, config.adapt_interval)
    w_scale = AdaptiveScale(0.05, config.target_accept_scalar, config.adapt_interval)
    u_scale = AdaptiveScale(0.3, config.target_accept_scalar, config.adapt_interval)

    stored_sites, site_names = _latent_site_names("h_", length, config.latent_stride)
    names = ["mu", "phi", "sigma_eta"] + (site_names if config.store_latent else [])
    draws = np.empty((config.n_draws, len(names)))
    row = 0
    accepts = {"h": 0, "mu": 0, "phi": 0, "sigma_eta": 0}
    tracked_iters = 0

    ba, bb = priors.phi_beta
    gshape, grate = priors.precision_gamma
    pm_mean, pm_var = priors.mu_normal

    if config.burn_in == 0:
        for scale in (h_scales, mu_scale, w_scale, u_scale):
            scale.freeze()

    for it in range(1, config.n_iterations + 1):
        h_acc = 0
        for parity in parities:
            h_acc += _sv_sweep(h, parity, r2, mu, a_cur, v_cur, h_scales, rng)
        h_scales.sweep_done()

        def mu_target(m):
            return normal_logpdf(m, pm_mean, pm_var) + _transition_loglik(h, m, a_cur, v_cur)

        step = adaptive_rwm_scalar(mu, mu_target, mu_scale, rng)
        mu = step.value
        mu_accepted = step.accepted

        def w_target(wv):
            if not (0.0 < wv < 1.0):
                return -math.inf
            phiv = 2.0 * wv - 1.0
            if phiv <= 0.0:
                return -math.inf
            a2, c2 = _transition_arrays(phiv, gaps)
            return beta_logpdf(wv, ba, bb) + _transition_loglik(h, mu, a2, sigma2 * c2)

        step = adaptive_rwm_scalar(w, w_target, w_scale, rng)
        if step.accepted:
            w = step.value
            a_cur, c_cur = _transition_arrays(2.0 * w - 1.0, gaps)
            v_cur = sigma2 * c_cur
        w_accepted = step.accepted

        def u_target(uv):
            if uv > 700.0:
                return -math.inf
            s2v = math.exp(uv)
            return (variance_logprior(s2v, gshape, grate) + uv
                    + _transition_loglik(h, mu, a_cur, s2v * c_cur))

        step = adaptive_rwm_scalar(math.log(sigma2), u_target, u_scale, rng)
        if step.accepted:
            sigma2 = math.exp(step.value)
            v_cur = sigma2 * c_cur
        u_accepted = step.accepted

        if it > config.burn_in:
            tracked_iters += 1
            accepts["h"] += h_acc
            accepts["mu"] += mu_accepted
            accepts["phi"] += w_accepted
            accepts["sigma_eta"] += u_accepted
            if (it - config.burn_in) % config.thin == 0:
                head = [mu, 2.0 * w - 1.0, math.sqrt(sigma2)]
                draws[row] = head + (list(h[stored_sites]) if config.store_latent else [])
                row += 1
        elif it == config.burn_in:
            for scale in (h_scales, mu_scale, w_scale, u_scale):
                scale.freeze()
        _progress(it, config.n_iterations, config.progress_every)

    denom = max(tracked_iters, 1)
    rates = {
        "h": accepts["h"] / (denom * length),
        "mu": accepts["mu"] / denom,
        "phi": accepts["phi"] / denom,
        "sigma_eta": accepts["sigma_eta"] / denom,
    }
    chain = McmcChain(tuple(names), draws, rates, config)
    return chain, summarize(chain)


def _msv_sweep(h_i, eps_i, r_i, parity, mu_i, a, v, qii, cross, scales, rng) -> int:
    """Single-site updates of one parity class for one asset's latent path."""
    sites = parity.sites
    if sites.size == 0:
        return 0
    cur = h_i[sites]
    eps_cur = eps_i[sites]
    prop = cur + scales.values[sites] * rng.standard_normal(sites.size)
    logu = np.log(rng.random(sites.size))
    eps_prop = r_i[sites] * _safe_exp(-prop / 2.0)
    delta = (-0.5 * (prop - cur)
             - 0.5 * qii * (eps_prop**2 - eps_cur**2)
             - (eps_prop - eps_cur) * cross[sites])
    mean_in = mu_i + a[sites] * (h_i[sites - 1] - mu_i)
    delta -= ((prop - mean_in) ** 2 - (cur - mean_in) ** 2) / (2.0 * v[sites])
    ns = parity.next_sites
    if ns.size:
        h_next = h_i[ns]
        mean_new = mu_i + a[ns] * (prop[parity.has_next] - mu_i)
        mean_old = mu_i + a[ns] * (cur[parity.has_next] - mu_i)
        delta[parity.has_next] -= ((h_next - mean_new) ** 2 - (h_next - mean_old) ** 2) / (2.0 * v[ns])
    accept = logu < delta
    idx = sites[accept]
    h_i[idx] = prop[accept]
    eps_i[idx] = eps_prop[accept]
    scales.record(sites, accept)
    return int(accept.sum())


def fit_irmsv(returns, gaps, priors: IrMsvPriors | None = None,
              config: McmcConfig | None = None) -> tuple[McmcChain, PosteriorSummary]:
    """Sample the joint posterior of the multivariate model.

    ``returns`` is a (p, T) matrix of synchronized returns sharing one
    gap sequence (scaled into (0, 1]).  Latent sites are updated per
    (asset, time) scalar; the observation full conditional couples assets
    at a fixed time through the correlation matrix, whose free entries
    get a joint block random-walk update each iteration.  The chain
    stores mu_i, phi_i, sigma2_i, the correlations, and strided latent
    sites per asset.
    """
    priors = priors or IrMsvPriors()
    config = config or McmcConfig(n_iterations=20_000, burn_in=5_000, thin=10)
    r = np.asarray(returns, dtype=float)
    if r.ndim != 2 or r.shape[0] < 2:
        raise ValueError("returns must be a (p >= 2, T) matrix")
    p, length = r.shape
    if length < 10:
        raise ValueError("need at least 10 observations to fit")
    g = np.asarray(gaps, dtype=float)
    if g.shape != (length - 1,):
        raise ValueError("need exactly T - 1 shared gap times")
    if np.any(g <= 0) or float(np.max(g)) > 1.0:
        raise ValueError("gaps must be scaled into (0, 1] before fitting")
    rng = np.random.default_rng(config.rng_seed)

    r2 = r * r
    mu = np.empty(p)
    for i in range(p):
        positive = r2[i][r2[i] > 0]
        if positive.size == 0:
            warnings.warn(f"asset {i + 1}: all returns are zero; volatility level unidentified")
            mu[i] = 0.0
        else:
            mu[i] = float(np.mean(np.log(positive))) + MU_INIT_OFFSET
    phi = np.full(p, 0.5)
    sigma2 = np.ones(p)
    h = np.log(r2 + H_INIT_FLOOR)
    eps = r * np.exp(-h / 2.0)
    corr = np.eye(p)
    prec = np.eye(p)

    trans = [_transition_arrays(float(phi[i]), g) for i in range(p)]
    parities = _parities(length)
    h_scales = [VectorAdaptiveScale(length, 1.0, config.target_accept_scalar,
                                    config.adapt_interval) for _ in range(p)]
    mu_scales = [AdaptiveScale(0.2, config.target_accept_scalar, config.adapt_interval)
                 for _ in range(p)]
    phi_scales = [AdaptiveScale(0.1, config.target_accept_scalar, config.adapt_interval)
                  for _ in range(p)]
    u_scales = [AdaptiveScale(0.3, config.target_accept_scalar, config.adapt_interval)
                for _ in range(p)]
    corr_scale = AdaptiveScale(0.05, config.target_accept_block, config.adapt_interval)

    names: list[str] = []
    names += [f"mu_{i + 1}" for i in range(p)]
    names += [f"phi_{i + 1}" for i in range(p)]
    names += [f"sigma2_{i + 1}" for i in range(p)]
    names += correlation_names(p)
    stored_sites = None
    if config.store_latent:
        latent_names = []
        for i in range(p):
            stored_sites, asset_names = _latent_site_names(f"h{i + 1}_", length,
                                                           config.latent_stride)
            latent_names += asset_names
        names += latent_names
    draws = np.empty((config.n_draws, len(names)))
    row = 0
    accepts: dict[str, float] = {"h": 0, "correlation": 0}
    for i in range(p):
        accepts.update({f"mu_{i + 1}": 0, f"phi_{i + 1}": 0, f"sigma2_{i + 1}": 0})
    tracked_iters = 0

    gshape, grate = priors.precision_gamma
    pm_mean, pm_var = priors.mu_normal
    ph_mean, ph_var = priors.phi_normal
    eta = priors.lkj_eta

    if config.burn_in == 0:
        for group in (h_scales, mu_scales, phi_scales, u_scales):
            for scale in group:
                scale.freeze()
        corr_scale.freeze()

    for it in range(1, config.n_iterations + 1):
        h_acc = 0
        for i in range(p):
            cross = prec[i] @ eps - prec[i, i] * eps[i]
            a_i, c_i = trans[i]
            v_i = sigma2[i] * c_i
            for parity in parities:
                h_acc += _msv_sweep(h[i], eps[i], r[i], parity, float(mu[i]), a_i,
                                    v_i, float(prec[i, i]), cross, h_scales[i], rng)
            h_scales[i].sweep_done()

        for i in range(p):
            a_i, c_i = trans[i]
            h_i = h[i]
            s2_i = float(sigma2[i])

            def mu_target(m, i=i, a_i=a_i, c_i=c_i, h_i=h_i, s2_i=s2_i):
                return normal_logpdf(m, pm_mean, pm_var) + _transition_loglik(
                    h_i, m, a_i, s2_i * c_i)

            step = adaptive_rwm_scalar(float(mu[i]), mu_target, mu_scales[i], rng)
            mu[i] = step.value
            accepts[f"mu_{i + 1}"] += step.accepted if it > config.burn_in else 0

            def phi_target(ph, i=i, h_i=h_i, s2_i=s2_i):
                if ph <= 0.0 or ph >= 1.0:
                    return -math.inf
                a2, c2 = _transition_arrays(ph, g)
                return truncated_normal_logpdf(ph, ph_mean, ph_var, -1.0, 1.0) + \
                    _transition_loglik(h_i, float(mu[i]), a2, s2_i * c2)

            step = adaptive_rwm_scalar(float(phi[i]), phi_target, phi_scales[i], rng)
            if step.accepted:
                phi[i] = step.value
                trans[i] = _transition_arrays(float(phi[i]), g)
                a_i, c_i = trans[i]
            accepts[f"phi_{i + 1}"] += step.accepted if it > config.burn_in else 0

            def u_target(uv, i=i, a_i=a_i, c_i=c_i, h_i=h_i):
                if uv > 700.0:
                    return -math.inf
                s2v = math.exp(uv)
                return (variance_logprior(s2v, gshape, grate) + uv
                        + _transition_loglik(h_i, float(mu[i]), a_i, s2v * c_i))

            step = adaptive_rwm_scalar(math.log(float(sigma2[i])), u_target,
                                       u_scales[i], rng)
            if step.accepted:
                sigma2[i] = math.exp(step.value)
            accepts[f"sigma2_{i + 1}"] += step.accepted if it > config.burn_in else 0

        scatter = eps @ eps.T

        def corr_target(candidate):
            chol = np.linalg.cholesky(candidate)
            logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
            quad = float(np.sum(np.linalg.inv(candidate) * scatter))
            return (eta - 1.0) * logdet - 0.5 * (length * logdet + quad)

        block = correlation_block_step(corr, corr_scale, rng, corr_target)
        if block.accepted:
            corr = block.matrix
            prec = np.linalg.inv(corr)
        accepts["correlation"] += block.accepted if it > config.burn_in else 0

        if it > config.burn_in:
            tracked_iters += 1
            accepts["h"] += h_acc
            if (it - config.burn_in) % config.thin == 0:
                parts = [mu, phi, sigma2, lower_entries(corr)]
                if config.store_latent:
                    parts.append(h[:, stored_sites].ravel())
                draws[row] = np.concatenate(parts)
                row += 1
        elif it == config.burn_in:
            for group in (h_scales, mu_scales, phi_scales, u_scales):
                for scale in group:
                    scale.freeze()
            corr_scale.freeze()
        _progress(it, config.n_iterations, config.progress_every)

    denom = max(tracked_iters, 1)
    rates = {key: value / denom for key, value in accepts.items()}
    rates["h"] = accepts["h"] / (denom * p * length)
    chain = McmcChain(tuple(names), draws, rates, config)
    return chain, summarize(chain)
