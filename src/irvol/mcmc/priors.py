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

from irvol.core import LOG_2PI


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

    def phi_logprior(self, phi: float) -> float:
        """Beta(phi_beta) log-density of (phi + 1)/2: phi's log-density less log 2."""
        return beta_logpdf((phi + 1.0) / 2.0, *self.phi_beta)


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

    def phi_logprior(self, phi: float) -> float:
        """Log-density of phi, Normal(phi_normal) truncated to (-1, 1)."""
        return truncated_normal_logpdf(phi, *self.phi_normal, -1.0, 1.0)
