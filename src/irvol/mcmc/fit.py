"""Posterior sampler for the gap-time stochastic volatility models.

The univariate model is the multivariate one with p = 1 and no
correlation, so one engine samples both.  It takes a (p, T) return
matrix over shared gaps, and one chain is a strictly sequential sweep
per iteration:

* every latent log-volatility gets a single-site adaptive random-walk
  update against its full conditional (observation density at the site,
  which couples assets at a fixed time through the precision matrix,
  plus the transitions into and out of it).  Sites of the same parity
  have mutually independent full conditionals, so the even sites of an
  asset are updated in one vectorized pass and then the odd sites in
  another — the same per-site updates, just batched;
* per asset, mu, phi and sigma_eta**2 get adaptive random-walk updates
  in that order (sigma_eta**2 on the log scale, with the Jacobian folded
  into the target).  How phi is walked is each model's choice: ``irsv``
  walks (phi + 1)/2 under its Beta prior, ``irmsv`` walks phi under its
  truncated normal prior;
* for p > 1, all free correlations are updated jointly by a block
  random walk.

Proposal scales adapt toward fixed acceptance targets during burn-in and
are frozen afterwards.  Chains are bit-reproducible for a fixed seed.
``fit_irsv`` and ``fit_irmsv`` validate their inputs, run the engine and
name its columns; ``asset_draws`` reads each asset's parameters and last
stored latent state back out of a chain of either model.
"""

from __future__ import annotations

import math
import sys
import warnings
from typing import Callable, NamedTuple

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


def _latent_sites(length: int, stride: int) -> np.ndarray:
    """Every ``stride``-th site plus the final one, which forecasting needs."""
    sites = np.arange(0, length, stride)
    if sites[-1] != length - 1:
        sites = np.append(sites, length - 1)
    return sites


def _progress(it: int, total: int, every: int) -> None:
    if every and it % every == 0:
        print(f"iteration {it}/{total}", file=sys.stderr)


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
    delta = -0.5 * (prop - cur) - 0.5 * qii * (eps_prop**2 - eps_cur**2)
    if cross is not None:
        delta -= (eps_prop - eps_cur) * cross[sites]
    # transition into the site; a[0] = 0 neutralizes the wrapped h[-1] read
    mean_in = mu_i + a[sites] * (h_i[sites - 1] - mu_i)
    delta -= ((prop - mean_in) ** 2 - (cur - mean_in) ** 2) / (2.0 * v[sites])
    # transition out of every non-terminal site
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


class _PhiWalk(NamedTuple):
    """The coordinate x a model's sampler walks phi on, with phi = to_phi(x).

    ``log_prior`` is the prior log-density of x, -inf outside the walk's
    support; the walk starts at ``start`` with proposal scale ``scale``.
    """

    start: float
    scale: float
    to_phi: Callable[[float], float]
    log_prior: Callable[[float], float]


def _irsv_walk(priors: IrSvPriors) -> _PhiWalk:
    """w = (phi + 1)/2 under Beta(phi_beta), from w = 0.75, with phi kept in (0, 1)."""
    ba, bb = priors.phi_beta

    def log_prior(w: float) -> float:
        if not (0.0 < w < 1.0) or 2.0 * w - 1.0 <= 0.0:
            return -math.inf
        return beta_logpdf(w, ba, bb)

    return _PhiWalk(0.75, 0.05, lambda w: 2.0 * w - 1.0, log_prior)


def _irmsv_walk(priors: IrMsvPriors) -> _PhiWalk:
    """phi itself under Normal(phi_normal) truncated to (-1, 1), from 0.5, kept in (0, 1)."""
    mean, var = priors.phi_normal

    def log_prior(phi: float) -> float:
        if phi <= 0.0 or phi >= 1.0:
            return -math.inf
        return truncated_normal_logpdf(phi, mean, var, -1.0, 1.0)

    return _PhiWalk(0.5, 0.1, lambda phi: phi, log_prior)


class _Run(NamedTuple):
    """Engine output.

    Each row of ``draws`` is mu (p), phi (p), sigma2 (p), the free
    correlations, then each asset's latent states at ``sites`` (when
    stored).  ``rates`` holds the h and correlation acceptance rates and
    per-asset lists for mu, phi and sigma2.
    """

    draws: np.ndarray
    sites: np.ndarray
    rates: dict


def _sample(r: np.ndarray, gaps: np.ndarray, walk: _PhiWalk, priors,
            config: McmcConfig) -> _Run:
    """Run one chain on a (p, T) return matrix over shared scaled gaps."""
    p, length = r.shape
    rng = np.random.default_rng(config.rng_seed)

    r2 = r * r
    mu = np.empty(p)
    for i in range(p):
        positive = r2[i][r2[i] > 0]
        if positive.size == 0:
            warnings.warn(f"asset {i + 1}: all returns are zero; the volatility level "
                          "is unidentified")
            mu[i] = 0.0
        else:
            mu[i] = float(np.mean(np.log(positive))) + MU_INIT_OFFSET
    x = np.full(p, walk.start)
    phi = np.full(p, walk.to_phi(walk.start))
    sigma2 = np.ones(p)
    h = np.log(r2 + H_INIT_FLOOR)
    eps = r * np.exp(-h / 2.0)
    corr = np.eye(p)
    prec = np.eye(p)

    trans = [_transition_arrays(float(phi[i]), gaps) for i in range(p)]
    v = [sigma2[i] * trans[i][1] for i in range(p)]  # transition variances
    parities = _parities(length)
    target, interval = config.target_accept_scalar, config.adapt_interval
    h_scales = [VectorAdaptiveScale(length, 1.0, target, interval) for _ in range(p)]
    mu_scales = [AdaptiveScale(0.2, target, interval) for _ in range(p)]
    x_scales = [AdaptiveScale(walk.scale, target, interval) for _ in range(p)]
    u_scales = [AdaptiveScale(0.3, target, interval) for _ in range(p)]
    corr_scale = AdaptiveScale(0.05, config.target_accept_block, interval)
    all_scales = h_scales + mu_scales + x_scales + u_scales + [corr_scale]

    sites = _latent_sites(length, config.latent_stride)
    n_cols = 3 * p + p * (p - 1) // 2 + (p * sites.size if config.store_latent else 0)
    draws = np.empty((config.n_draws, n_cols))
    row = 0
    h_accepts = corr_accepts = tracked_iters = 0
    mu_accepts, phi_accepts, s2_accepts = [0] * p, [0] * p, [0] * p

    gshape, grate = priors.precision_gamma
    pm_mean, pm_var = priors.mu_normal

    if config.burn_in == 0:
        for scale in all_scales:
            scale.freeze()

    for it in range(1, config.n_iterations + 1):
        tracking = it > config.burn_in
        h_acc = 0
        for i in range(p):
            # a lone asset has no cross term: it would subtract exact zeros
            cross = prec[i] @ eps - prec[i, i] * eps[i] if p > 1 else None
            for parity in parities:
                h_acc += _msv_sweep(h[i], eps[i], r[i], parity, float(mu[i]), trans[i][0],
                                    v[i], float(prec[i, i]), cross, h_scales[i], rng)
            h_scales[i].sweep_done()

        for i in range(p):
            a_i, c_i = trans[i]
            h_i = h[i]
            s2_i = float(sigma2[i])

            def mu_target(m, a_i=a_i, v_i=v[i], h_i=h_i):
                return normal_logpdf(m, pm_mean, pm_var) + _transition_loglik(h_i, m, a_i, v_i)

            step = adaptive_rwm_scalar(float(mu[i]), mu_target, mu_scales[i], rng)
            mu[i] = step.value
            mu_accepts[i] += step.accepted if tracking else 0

            def x_target(xv, mu_i=float(mu[i]), h_i=h_i, s2_i=s2_i):
                log_prior = walk.log_prior(xv)
                if log_prior == -math.inf:
                    return log_prior
                a2, c2 = _transition_arrays(walk.to_phi(xv), gaps)
                return log_prior + _transition_loglik(h_i, mu_i, a2, s2_i * c2)

            step = adaptive_rwm_scalar(float(x[i]), x_target, x_scales[i], rng)
            if step.accepted:
                x[i] = step.value
                phi[i] = walk.to_phi(step.value)
                trans[i] = _transition_arrays(float(phi[i]), gaps)
                a_i, c_i = trans[i]
                v[i] = s2_i * c_i
            phi_accepts[i] += step.accepted if tracking else 0

            def u_target(uv, mu_i=float(mu[i]), a_i=a_i, c_i=c_i, h_i=h_i):
                if uv > 700.0:
                    return -math.inf
                s2v = math.exp(uv)
                return (variance_logprior(s2v, gshape, grate) + uv
                        + _transition_loglik(h_i, mu_i, a_i, s2v * c_i))

            step = adaptive_rwm_scalar(math.log(s2_i), u_target, u_scales[i], rng)
            if step.accepted:
                sigma2[i] = math.exp(step.value)
                v[i] = sigma2[i] * c_i
            s2_accepts[i] += step.accepted if tracking else 0

        # with one asset there is no free correlation, and the step would
        # still draw from the stream
        if p > 1:
            scatter = eps @ eps.T

            def corr_target(candidate):
                chol = np.linalg.cholesky(candidate)
                logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
                quad = float(np.sum(np.linalg.inv(candidate) * scatter))
                return (priors.lkj_eta - 1.0) * logdet - 0.5 * (length * logdet + quad)

            block = correlation_block_step(corr, corr_scale, rng, corr_target)
            if block.accepted:
                corr = block.matrix
                prec = np.linalg.inv(corr)
            corr_accepts += block.accepted if tracking else 0

        if tracking:
            tracked_iters += 1
            h_accepts += h_acc
            if (it - config.burn_in) % config.thin == 0:
                parts = [mu, phi, sigma2, lower_entries(corr)]
                if config.store_latent:
                    parts.append(h[:, sites].ravel())
                draws[row] = np.concatenate(parts)
                row += 1
        elif it == config.burn_in:
            for scale in all_scales:
                scale.freeze()
        _progress(it, config.n_iterations, config.progress_every)

    denom = max(tracked_iters, 1)
    rates = {
        "h": h_accepts / (denom * p * length),
        "correlation": corr_accepts / denom,
        "mu": [count / denom for count in mu_accepts],
        "phi": [count / denom for count in phi_accepts],
        "sigma2": [count / denom for count in s2_accepts],
    }
    return _Run(draws, sites, rates)


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
    if r.size < 10:
        raise ValueError("need at least 10 observations to fit")
    if float(np.max(series.gaps)) > 1.0:
        raise ValueError("gaps must be scaled into (0, 1] before fitting")
    run = _sample(r[np.newaxis, :], series.gaps, _irsv_walk(priors), priors, config)
    draws = run.draws
    draws[:, 2] = np.sqrt(draws[:, 2])
    names = ["mu", "phi", "sigma_eta"]
    if config.store_latent:
        names += [f"h_{j}" for j in run.sites]
    rates = {"h": run.rates["h"], "mu": run.rates["mu"][0], "phi": run.rates["phi"][0],
             "sigma_eta": run.rates["sigma2"][0]}
    chain = McmcChain(tuple(names), draws, rates, config)
    return chain, summarize(chain)


def fit_irmsv(returns, gaps, priors: IrMsvPriors | None = None,
              config: McmcConfig | None = None) -> tuple[McmcChain, PosteriorSummary]:
    """Sample the joint posterior of the multivariate model.

    ``returns`` is a (p, T) matrix of synchronized returns sharing one
    gap sequence (scaled into (0, 1]).  The chain stores mu_i, phi_i,
    sigma2_i, the correlations, and strided latent sites per asset.
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
    run = _sample(r, g, _irmsv_walk(priors), priors, config)
    assets = range(1, p + 1)
    names = ([f"mu_{i}" for i in assets] + [f"phi_{i}" for i in assets]
             + [f"sigma2_{i}" for i in assets] + correlation_names(p))
    if config.store_latent:
        names += [f"h{i}_{j}" for i in assets for j in run.sites]
    rates = {"h": run.rates["h"], "correlation": run.rates["correlation"]}
    for i in assets:
        rates.update({f"mu_{i}": run.rates["mu"][i - 1], f"phi_{i}": run.rates["phi"][i - 1],
                      f"sigma2_{i}": run.rates["sigma2"][i - 1]})
    chain = McmcChain(tuple(names), run.draws, rates, config)
    return chain, summarize(chain)


def _last_latent_column(names, prefix: str) -> str:
    """Latest-site latent column among names like '<prefix><site>'."""
    best, best_site = None, -1
    for name in names:
        if name.startswith(prefix):
            try:
                site = int(name[len(prefix):])
            except ValueError:
                continue
            if site > best_site:
                best, best_site = name, site
    if best is None:
        raise ValueError(f"chain holds no latent columns with prefix {prefix!r}")
    return best


def asset_draws(chain: McmcChain) -> list[tuple[np.ndarray, ...]]:
    """Each asset's (mu, phi, sigma2, last stored h) draws.

    Reads either layout: ``fit_irsv``'s mu, phi, sigma_eta, h_<site> (one
    asset) or ``fit_irmsv``'s mu_i, phi_i, sigma2_i, h<i>_<site>.
    """
    if "mu" in chain.names:
        return [(chain.column("mu"), chain.column("phi"), chain.column("sigma_eta") ** 2,
                 chain.column(_last_latent_column(chain.names, "h_")))]
    out = []
    while f"mu_{len(out) + 1}" in chain.names:
        i = len(out) + 1
        out.append((chain.column(f"mu_{i}"), chain.column(f"phi_{i}"),
                    chain.column(f"sigma2_{i}"),
                    chain.column(_last_latent_column(chain.names, f"h{i}_"))))
    if not out:
        raise ValueError("chain holds neither irsv nor irmsv parameter columns")
    return out
