"""Closed-form moments of squared returns for the gap-time SV models.

These serve as analytic oracles for the simulators: every formula here is
cross-checked against brute-force Monte Carlo in the test suite.  Writing
s2 = sigma_eta**2 / (1 - phi**2) for the stationary latent variance,

    E[r^2]            = exp(mu + s2 / 2)
    Var[r^2]          = exp(2*mu + s2) * (3*exp(s2) - 1)
    kurtosis          = 3 * exp(s2)                      (always > 3)
    Cov[r^2_t, r^2_{t+l}] = exp(2*mu + s2) * (exp(s2 * phi**l) - 1)

where l > 0 is the *gap-time* lag (elapsed time, not an index offset).
The multivariate model shares the univariate marginals per asset; the
cross-asset covariance of squared returns is
2 * rho_ik**2 * m_i * m_k with m_i = E[r_i^2].
"""

from __future__ import annotations

import math

import numpy as np

from irvol.irmsv import IrMsvParams
from irvol.irsv import IrSvParams


def irsv_mean_sq(params: IrSvParams) -> float:
    """E[r^2] = exp(mu + s2/2)."""
    return math.exp(params.mu + params.stationary_var / 2.0)


def irsv_var_sq(params: IrSvParams) -> float:
    """Var[r^2] = exp(2*mu + s2) * (3*exp(s2) - 1)."""
    s2 = params.stationary_var
    return math.exp(2.0 * params.mu + s2) * (3.0 * math.exp(s2) - 1.0)


def irsv_kurtosis(params: IrSvParams) -> float:
    """Return kurtosis 3*exp(s2); exceeds 3 whenever sigma_eta > 0."""
    return 3.0 * math.exp(params.stationary_var)


def irsv_autocov_sq(params: IrSvParams, lag: float) -> float:
    """Cov of squared returns separated by gap-time ``lag`` > 0.

    The independence argument behind the formula holds only for strictly
    positive lags; at lag 0 use ``irsv_var_sq`` instead.
    """
    if not (lag > 0):
        raise ValueError("lag must be a positive gap time; use irsv_var_sq at lag 0")
    s2 = params.stationary_var
    return math.exp(2.0 * params.mu + s2) * math.expm1(s2 * params.phi**lag)


def irmsv_mean_sq_vector(params: IrMsvParams) -> np.ndarray:
    """Componentwise E[r_i^2]; independent of the correlation matrix."""
    out = np.empty(params.n_assets)
    for i in range(params.n_assets):
        out[i] = irsv_mean_sq(params.asset(i))
    return out


def irmsv_cov_sq_matrix(params: IrMsvParams) -> np.ndarray:
    """Covariance matrix of the squared-returns vector.

    Diagonal entries follow the univariate Var[r^2] formula per asset;
    off-diagonals are 2 * rho_ik**2 * m_i * m_k, which depends on the
    correlation only through its square.
    """
    p = params.n_assets
    m = irmsv_mean_sq_vector(params)
    rho = params.correlation.values
    out = np.empty((p, p))
    for i in range(p):
        out[i, i] = irsv_var_sq(params.asset(i))
        for k in range(i + 1, p):
            out[i, k] = out[k, i] = 2.0 * rho[i, k] ** 2 * m[i] * m[k]
    return out
