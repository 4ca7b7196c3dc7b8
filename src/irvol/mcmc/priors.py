"""Prior distributions for Bayesian estimation of the gap-time SV models.

Conventions matter here and are easy to get wrong by a large factor:

* The Gamma prior on the precision 1/sigma_eta**2 is parameterized as
  shape-rate, so Gamma(2.5, 0.025) has prior mean 100 (a shape-scale
  reading would change results by a factor of 1600).
* Normal priors are parameterized as mean-variance.
* The correlation prior has unnormalized log-density
  (eta - 1) * log det R, which is all MCMC needs.

Support violations return -inf rather than raising, so samplers can use
these directly in acceptance ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from irvol.core import LOG_2PI
from irvol.irsv import IrSvParams

LOG_HALF = math.log(0.5)


def normal_logpdf(x: float, mean: float, variance: float) -> float:
    """Gaussian log-density with a mean-variance parameterization."""
    return -0.5 * (LOG_2PI + math.log(variance) + (x - mean) ** 2 / variance)


def beta_logpdf(x: float, a: float, b: float) -> float:
    """Beta(a, b) log-density; -inf outside (0, 1)."""
    if not (0.0 < x < 1.0):
        return -math.inf
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    return log_norm + (a - 1.0) * math.log(x) + (b - 1.0) * math.log(1.0 - x)


def variance_logprior(sigma2: float, shape: float, rate: float) -> float:
    """Log-density induced on sigma2 by Gamma(shape, rate) on 1/sigma2.

    This is the inverse-gamma density on sigma2, i.e. the precision prior
    with the change-of-variables Jacobian folded in.
    """
    if sigma2 <= 0.0:
        return -math.inf
    return (shape * math.log(rate) - math.lgamma(shape)
            - (shape + 1.0) * math.log(sigma2) - rate / sigma2)


def _std_normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def truncated_normal_logpdf(x: float, mean: float, variance: float,
                            lower: float, upper: float) -> float:
    """Normal log-density truncated to (lower, upper), normalization included."""
    if not (lower < x < upper):
        return -math.inf
    sd = math.sqrt(variance)
    mass = _std_normal_cdf((upper - mean) / sd) - _std_normal_cdf((lower - mean) / sd)
    return normal_logpdf(x, mean, variance) - math.log(mass)


def lkj_log_density(corr_values: np.ndarray, eta: float) -> float:
    """Unnormalized LKJ log-density (eta - 1) * log det R; -inf if not PD."""
    try:
        chol = np.linalg.cholesky(np.asarray(corr_values, dtype=float))
    except np.linalg.LinAlgError:
        return -math.inf
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return (eta - 1.0) * logdet


@dataclass(frozen=True)
class IrSvPriors:
    """Priors for the univariate model.

    (phi + 1)/2 ~ Beta(phi_beta), 1/sigma_eta**2 ~ Gamma(precision_gamma)
    as shape-rate, mu ~ Normal(mu_normal) as mean-variance.
    """

    phi_beta: tuple[float, float] = (20.0, 1.5)
    precision_gamma: tuple[float, float] = (2.5, 0.025)
    mu_normal: tuple[float, float] = (0.0, 10.0)

    def __post_init__(self):
        if min(self.phi_beta) <= 0 or min(self.precision_gamma) <= 0:
            raise ValueError("shape and rate parameters must be positive")
        if self.mu_normal[1] <= 0:
            raise ValueError("the normal prior variance must be positive")


@dataclass(frozen=True)
class IrMsvPriors:
    """Priors for the multivariate model (applied per asset where scalar).

    phi_i ~ Normal(phi_normal) truncated to (-1, 1); R ~ LKJ(lkj_eta).
    """

    mu_normal: tuple[float, float] = (0.0, 10.0)
    precision_gamma: tuple[float, float] = (2.5, 0.025)
    phi_normal: tuple[float, float] = (0.0, 0.5)
    lkj_eta: float = 1.2

    def __post_init__(self):
        if min(self.precision_gamma) <= 0:
            raise ValueError("shape and rate parameters must be positive")
        if self.mu_normal[1] <= 0 or self.phi_normal[1] <= 0:
            raise ValueError("normal prior variances must be positive")
        if self.lkj_eta <= 0:
            raise ValueError("lkj_eta must be positive")


def _unpack_sv(params):
    if isinstance(params, IrSvParams):
        return params.mu, params.phi, params.sigma_eta
    mu, phi, sigma_eta = params
    return float(mu), float(phi), float(sigma_eta)


def log_prior_irsv(params, priors: IrSvPriors | None = None) -> float:
    """Joint log prior at (mu, phi, sigma_eta); -inf outside the support.

    ``params`` may be an ``IrSvParams`` or a plain (mu, phi, sigma_eta)
    triple (the latter allows evaluating points outside the parameter
    space, which samplers need).  The phi term is the Beta density of
    (phi + 1)/2 plus the log(1/2) Jacobian of the rescaling; the
    sigma_eta term is the induced inverse-gamma density on sigma_eta**2.
    """
    priors = priors or IrSvPriors()
    mu, phi, sigma_eta = _unpack_sv(params)
    if not (-1.0 < phi < 1.0) or sigma_eta <= 0 or not np.isfinite(mu):
        return -math.inf
    total = beta_logpdf((phi + 1.0) / 2.0, *priors.phi_beta) + LOG_HALF
    total += variance_logprior(sigma_eta**2, *priors.precision_gamma)
    total += normal_logpdf(mu, *priors.mu_normal)
    return total


def log_prior_irmsv(params, priors: IrMsvPriors | None = None) -> float:
    """Joint log prior for the multivariate model; -inf outside the support.

    ``params`` may be an ``IrMsvParams`` or a tuple
    (mu_vector, phi_vector, sigma_vector, correlation_values).
    """
    from irvol.irmsv import IrMsvParams  # local import avoids a cycle

    priors = priors or IrMsvPriors()
    if isinstance(params, IrMsvParams):
        mu, phi, sigma, corr = params.mu, params.phi, params.sigma, params.correlation.values
    else:
        mu, phi, sigma, corr = params
    mu = np.asarray(mu, dtype=float)
    phi = np.asarray(phi, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    corr = np.asarray(corr, dtype=float)
    if np.any(np.abs(phi) >= 1.0) or np.any(sigma <= 0):
        return -math.inf
    total = lkj_log_density(corr, priors.lkj_eta)
    if total == -math.inf:
        return -math.inf
    for i in range(mu.size):
        total += normal_logpdf(float(mu[i]), *priors.mu_normal)
        total += variance_logprior(float(sigma[i]) ** 2, *priors.precision_gamma)
        total += truncated_normal_logpdf(float(phi[i]), *priors.phi_normal, -1.0, 1.0)
    return total
