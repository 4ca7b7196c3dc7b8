"""The per-site sampler engine that ``irvol.mcmc.fit._sample`` replaced.

A bit-level oracle for sampler work, run only by tests: given the same
returns, gaps, priors and config it must produce the same
draws and acceptance rates as the engine in ``irvol.mcmc.fit``.  Each
latent site's target here is the observation term plus the separate
transitions into and out of the site, indexed by site; each scalar step
re-evaluates the whole-path transition log-likelihood at both points;
the correlation step factors every matrix again.  Only the proposal
scales, their acceptance targets, phi's starting point and the priors
come from the package.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np
from reference_densities import transition_loglik

from irvol.irmsv import corr_from_lower, lower_entries
from irvol.irsv import gap_law
from irvol.mcmc.fit import (
    H_INIT_FLOOR,
    MU_INIT_OFFSET,
    PHI_SCALE,
    PHI_START,
    TARGET_ACCEPT_BLOCK,
    TARGET_ACCEPT_SCALAR,
    _latent_sites,
)
from irvol.mcmc.priors import normal_logpdf, variance_logprior
from irvol.mcmc.samplers import AdaptiveScale


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
    """Per-site a and c, with the stationary start at index 0."""
    a, c = gap_law(phi, gaps)
    return np.concatenate(([0.0], a)), np.concatenate(([1.0 / (1.0 - phi * phi)], c))


def _safe_exp(x: np.ndarray) -> np.ndarray:
    return np.exp(np.minimum(x, 700.0))


def _msv_sweep(h_i, eps_i, r_i, parity, mu_i, a, v, qii, cross, scales, flags, rng) -> int:
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
    flags[sites] = accept
    return int(accept.sum())


def _scalar_step(current, log_target, scale, rng):
    current_lp = log_target(current)
    proposal = current + float(scale.values[0]) * rng.standard_normal()
    proposal_lp = log_target(proposal)
    if proposal_lp == -math.inf:
        accepted = False
    elif current_lp == -math.inf:
        accepted = True
    else:
        accepted = math.log(rng.uniform()) < proposal_lp - current_lp
    scale.observe(accepted)
    return (proposal, True) if accepted else (current, False)


def _correlation_step(corr, scale, rng, log_target):
    p = corr.shape[0]
    rows, cols = np.tril_indices(p, -1)
    current_lp = log_target(corr)
    proposal_flat = corr[rows, cols] + float(scale.values[0]) * rng.standard_normal(rows.size)
    if np.any(np.abs(proposal_flat) >= 1.0):
        scale.observe(False)
        return corr, False
    proposal = corr_from_lower(p, proposal_flat)
    try:
        np.linalg.cholesky(proposal)
    except np.linalg.LinAlgError:
        scale.observe(False)
        return corr, False
    proposal_lp = log_target(proposal)
    if proposal_lp == -math.inf:
        accepted = False
    elif current_lp == -math.inf:
        accepted = True
    else:
        accepted = math.log(rng.uniform()) < proposal_lp - current_lp
    scale.observe(accepted)
    return (proposal, True) if accepted else (corr, False)


def sample(r, gaps, priors, config):
    """(draws, rates) of one chain, laid out as ``irvol.mcmc.fit._sample``'s."""
    p, length = r.shape
    rng = np.random.default_rng(config.rng_seed)

    r2 = r * r
    mu = np.empty(p)
    for i in range(p):
        positive = r2[i][r2[i] > 0]
        if positive.size == 0:
            warnings.warn(f"asset {i + 1}: all returns are zero")
            mu[i] = 0.0
        else:
            mu[i] = float(np.mean(np.log(positive))) + MU_INIT_OFFSET
    phi = np.full(p, PHI_START)
    sigma2 = np.ones(p)
    h = np.log(r2 + H_INIT_FLOOR)
    eps = r * np.exp(-h / 2.0)
    corr = np.eye(p)
    prec = np.eye(p)

    trans = [_transition_arrays(float(phi[i]), gaps) for i in range(p)]
    v = [sigma2[i] * trans[i][1] for i in range(p)]
    parities = _parities(length)
    target = TARGET_ACCEPT_SCALAR
    h_scales = [AdaptiveScale(np.ones(length), target) for _ in range(p)]
    h_flags = np.empty(length, dtype=bool)
    mu_scales = [AdaptiveScale(0.2, target) for _ in range(p)]
    phi_scales = [AdaptiveScale(PHI_SCALE, target) for _ in range(p)]
    u_scales = [AdaptiveScale(0.3, target) for _ in range(p)]
    corr_scale = AdaptiveScale(0.05, TARGET_ACCEPT_BLOCK)
    all_scales = h_scales + mu_scales + phi_scales + u_scales + [corr_scale]

    sites = _latent_sites(length)
    draws = np.empty((config.n_draws, 3 * p + p * (p - 1) // 2 + p * sites.size))
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
            cross = prec[i] @ eps - prec[i, i] * eps[i] if p > 1 else None
            for parity in parities:
                h_acc += _msv_sweep(h[i], eps[i], r[i], parity, float(mu[i]), trans[i][0],
                                    v[i], float(prec[i, i]), cross, h_scales[i], h_flags, rng)
            h_scales[i].observe(h_flags)

        for i in range(p):
            a_i, c_i = trans[i]
            h_i = h[i]
            s2_i = float(sigma2[i])

            def mu_target(m, a_i=a_i, v_i=v[i], h_i=h_i):
                return normal_logpdf(m, pm_mean, pm_var) + transition_loglik(h_i, m, a_i, v_i)

            mu[i], accepted = _scalar_step(float(mu[i]), mu_target, mu_scales[i], rng)
            mu_accepts[i] += accepted if tracking else 0

            def phi_target(phi_v, mu_i=float(mu[i]), h_i=h_i, s2_i=s2_i):
                if phi_v <= 0.0 or phi_v >= 1.0:
                    return -math.inf
                a2, c2 = _transition_arrays(phi_v, gaps)
                return priors.phi_logprior(phi_v) + transition_loglik(h_i, mu_i, a2, s2_i * c2)

            value, accepted = _scalar_step(float(phi[i]), phi_target, phi_scales[i], rng)
            if accepted:
                phi[i] = value
                trans[i] = _transition_arrays(float(phi[i]), gaps)
                a_i, c_i = trans[i]
                v[i] = s2_i * c_i
            phi_accepts[i] += accepted if tracking else 0

            def u_target(uv, mu_i=float(mu[i]), a_i=a_i, c_i=c_i, h_i=h_i):
                if uv > 700.0:
                    return -math.inf
                s2v = math.exp(uv)
                return (variance_logprior(s2v, gshape, grate) + uv
                        + transition_loglik(h_i, mu_i, a_i, s2v * c_i))

            value, accepted = _scalar_step(math.log(s2_i), u_target, u_scales[i], rng)
            if accepted:
                sigma2[i] = math.exp(value)
                v[i] = sigma2[i] * c_i
            s2_accepts[i] += accepted if tracking else 0

        if p > 1:
            scatter = eps @ eps.T

            def corr_target(candidate):
                chol = np.linalg.cholesky(candidate)
                logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
                quad = float(np.sum(np.linalg.inv(candidate) * scatter))
                return (priors.lkj_eta - 1.0) * logdet - 0.5 * (length * logdet + quad)

            corr, accepted = _correlation_step(corr, corr_scale, rng, corr_target)
            if accepted:
                prec = np.linalg.inv(corr)
            corr_accepts += accepted if tracking else 0

        if tracking:
            tracked_iters += 1
            h_accepts += h_acc
            if (it - config.burn_in) % config.thin == 0:
                draws[row] = np.concatenate([mu, phi, sigma2, lower_entries(corr),
                                             h[:, sites].ravel()])
                row += 1
        elif it == config.burn_in:
            for scale in all_scales:
                scale.freeze()

    denom = max(tracked_iters, 1)
    rates = {
        "h": h_accepts / (denom * p * length),
        "correlation": corr_accepts / denom,
        "mu": [count / denom for count in mu_accepts],
        "phi": [count / denom for count in phi_accepts],
        "sigma2": [count / denom for count in s2_accepts],
    }
    return draws, rates
