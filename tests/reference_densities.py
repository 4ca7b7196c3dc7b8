"""Reference log-densities of the gap-time SV models, written out term by term.

The sampler never evaluates these: it works with the tridiagonal prior
precision of each latent path and with log-ratios of full conditionals.
Tests compare its arithmetic against these direct forms.
"""

from __future__ import annotations

import math

import numpy as np

from irvol.core import LOG_2PI
from irvol.irmsv import CorrelationMatrix
from irvol.irsv import IrSvParams


def stationary_state_density(h: float, params: IrSvParams) -> float:
    """Log-density of the stationary law of log-volatility (first state)."""
    var = params.stationary_var
    return -0.5 * (LOG_2PI + math.log(var) + (h - params.mu) ** 2 / var)


def state_transition_density(h_curr: float, h_prev: float, gap: float,
                             params: IrSvParams) -> float:
    """Log-density of the gap-time AR(1) transition h_prev -> h_curr.

    Mean is mu + phi**gap * (h_prev - mu) and variance
    sigma_eta**2 * (1 - phi**(2*gap)) / (1 - phi**2); ``gap`` must lie in
    (0, 1] and phi must be positive.
    """
    if not (0.0 < gap <= 1.0):
        raise ValueError("gap must lie in (0, 1]")
    if params.phi <= 0:
        raise ValueError("fractional gap powers need phi in (0, 1)")
    mean = params.mu + params.phi**gap * (h_prev - params.mu)
    var = params.stationary_var * (1.0 - params.phi ** (2.0 * gap))
    return -0.5 * (LOG_2PI + math.log(var) + (h_curr - mean) ** 2 / var)


def observation_density(r, h):
    """Log-density of a return given log-volatility: N(0, exp(h)) at r.

    Accepts scalars or arrays (broadcasting elementwise).
    """
    r_arr = np.asarray(r, dtype=float)
    h_arr = np.asarray(h, dtype=float)
    out = -0.5 * (LOG_2PI + h_arr + np.square(r_arr) * np.exp(-h_arr))
    if out.ndim == 0:
        return float(out)
    return out


def joint_observation_density(r, h, correlation) -> float:
    """Joint log-density of one return vector given its log-volatilities.

    The covariance is H^(1/2) R H^(1/2) with H = diag(exp(h)).
    ``correlation`` may be a ``CorrelationMatrix`` or a plain symmetric
    array; a factorization failure raises ``ValueError``.
    """
    r_arr = np.asarray(r, dtype=float)
    h_arr = np.asarray(h, dtype=float)
    if r_arr.ndim != 1 or r_arr.shape != h_arr.shape:
        raise ValueError("r and h must be equal-length vectors")
    if isinstance(correlation, CorrelationMatrix):
        corr = correlation.values
    else:
        corr = np.asarray(correlation, dtype=float)
    if corr.shape != (r_arr.size, r_arr.size):
        raise ValueError("correlation matrix size must match the return vector")
    try:
        chol = np.linalg.cholesky(corr)
    except np.linalg.LinAlgError as exc:
        raise ValueError("correlation matrix is not positive definite") from exc
    eps = r_arr * np.exp(-h_arr / 2.0)
    y = np.linalg.solve(chol, eps)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return -0.5 * (r_arr.size * LOG_2PI + logdet + float(np.sum(h_arr)) + float(y @ y))


def path_log_prior(h, gaps, params: IrSvParams) -> float:
    """Stationary start plus every transition, summed one state at a time."""
    total = stationary_state_density(float(h[0]), params)
    for j in range(1, len(h)):
        total += state_transition_density(float(h[j]), float(h[j - 1]), float(gaps[j - 1]), params)
    return total


def transition_loglik(h: np.ndarray, mu: float, a: np.ndarray, v: np.ndarray) -> float:
    """Stationary start plus all transitions, vectorized over per-site a and
    variances v (a[0] = 0, v[0] the stationary variance)."""
    resid = h - mu
    resid[1:] -= a[1:] * (h[:-1] - mu)
    return -0.5 * float(np.sum(np.log(v) + resid * resid / v)) - 0.5 * v.size * LOG_2PI


def lkj_log_density(corr_values: np.ndarray, eta: float) -> float:
    """Unnormalized LKJ log-density (eta - 1) * log det R; -inf if not PD."""
    try:
        chol = np.linalg.cholesky(np.asarray(corr_values, dtype=float))
    except np.linalg.LinAlgError:
        return -math.inf
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return (eta - 1.0) * logdet
