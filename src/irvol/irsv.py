"""Univariate gap-time stochastic volatility model.

Log-volatility follows a gap-time AR(1): over a gap g the persistence is
``phi**g`` and the innovation variance is
``sigma_eta**2 * (1 - phi**(2*g)) / (1 - phi**2)``, so the latent process
has the same stationary law N(mu, sigma_eta**2 / (1 - phi**2)) no matter
how the observation grid looks.  Returns are conditionally Gaussian with
variance exp(h).

Simulation recursion (T observations, gaps g_2..g_T in (0, 1]):

    h_1 = mu + sqrt(sigma_eta**2 / (1 - phi**2)) * z_1
    h_j = mu + phi**g_j * (h_{j-1} - mu)
             + sigma_eta * sqrt((1 - phi**(2*g_j)) / (1 - phi**2)) * z_j
    r_j = exp(h_j / 2) * e_j

with z, e independent standard normals.  ``simulate_irsv`` draws all
state noise z first, then all observation noise e, so runs are
reproducible for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from irvol.core import gap_values

Q_LOW = 0.025  # forecast quantiles are at Q_LOW and 1 - Q_LOW
Z_975 = 1.959963984540054  # standard normal quantile at 1 - Q_LOW
SQRT2 = math.sqrt(2.0)
BISECT_MAX = 200
_ERFC = np.frompyfunc(math.erfc, 1, 1)


@dataclass(frozen=True)
class IrSvParams:
    """Location mu, persistence phi, and state noise scale sigma_eta.

    Stationarity needs |phi| < 1, and fractional gap powers phi**g need
    phi > 0, so the type requires 0 < phi < 1.
    """

    mu: float
    phi: float
    sigma_eta: float

    def __post_init__(self):
        for name in ("mu", "phi", "sigma_eta"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not 0.0 < self.phi < 1.0:
            raise ValueError("phi must satisfy 0 < phi < 1")
        if self.sigma_eta <= 0:
            raise ValueError("sigma_eta must be positive")

    @property
    def stationary_var(self) -> float:
        """Unconditional variance of the log-volatility."""
        return self.sigma_eta**2 / (1.0 - self.phi**2)


def gap_law(phi, gaps):
    """Gap-time AR(1) coefficients over gaps g: (phi**g, c(g)), broadcasting.

    c(g) = (1 - phi**(2g)) / (1 - phi**2), so over a gap g the state moves
    as h' - mu = phi**g (h - mu) + N(0, sigma_eta**2 * c(g)).  Gaps add:
    the law after several gaps is the law over their sum.
    """
    omp = 1.0 - phi * phi
    return phi**gaps, (1.0 - phi ** (2.0 * gaps)) / omp


def _recurse_states(mu: float, phi: float, sigma_eta: float, gaps: np.ndarray,
                    z: np.ndarray) -> np.ndarray:
    """Run the latent recursion given standard-normal state noise z."""
    omp = 1.0 - phi**2
    length = z.size
    h = np.empty(length)
    x = math.sqrt(sigma_eta**2 / omp) * z[0]
    h[0] = mu + x
    if length > 1:
        coef = phi**gaps
        innov = (sigma_eta * np.sqrt((1.0 - phi ** (2.0 * gaps)) / omp)) * z[1:]
        j = 1
        for a, w in zip(coef.tolist(), innov.tolist()):
            x = a * x + w
            h[j] = mu + x
            j += 1
    return h


def simulate_irsv(params: IrSvParams, gaps, length: int, seed=None):
    """Simulate (h, returns) over the given scaled gap sequence.

    ``gaps`` supplies g_j for j = 2..length and must lie in (0, 1].
    """
    if length < 1:
        raise ValueError("length must be at least 1")
    g = gap_values(gaps, count=length - 1, max_one=True)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(length)
    e = rng.standard_normal(length)
    h = _recurse_states(params.mu, params.phi, params.sigma_eta, g, z)
    r = np.exp(h / 2.0) * e
    return h, r


@dataclass(frozen=True)
class ForecastSummary:
    """Per-step predictive summaries of h, E[r^2] and E[exp(h / 2)].

    Arrays hold one entry per reported forecast step.
    """

    h_mean: np.ndarray
    h_q025: np.ndarray
    h_q975: np.ndarray
    r2_mean: np.ndarray
    vol_mean: np.ndarray


def forecast(mu, phi, sigma2, last_h, future_gaps, steps=None) -> ForecastSummary:
    """Exact predictive summaries, averaged over posterior draws.

    ``mu``, ``phi``, ``sigma2`` (= sigma_eta**2) and ``last_h`` are
    scalars or equal-length arrays of draws; ``future_gaps`` are the gap
    times of the future observations, in the units the draws were fit
    in.  Given one draw, h after the summed gap G of the first k future
    gaps is exactly N(m, v) with m = mu + phi**G (last_h - mu) and
    v = sigma2 * c(G) (see ``gap_law``).  Per step this returns mean(m),
    mean(exp(m + v / 2)) = E[r^2], mean(exp(m / 2 + v / 8)) =
    E[exp(h / 2)], and the 2.5% and 97.5% quantiles of the equal-weight
    mixture of the draws' normals.  ``steps`` picks the 1-based steps to
    report (default: every step); the quantiles cost one mixture CDF per
    bisection step and reported step, so callers pass only the horizons
    they need.
    """
    g = np.asarray(future_gaps, dtype=float)
    if g.ndim != 1 or g.size == 0:
        raise ValueError("future_gaps must be a nonempty one-dimensional sequence")
    if not np.all(np.isfinite(g)) or np.any(g <= 0):
        raise ValueError("future gap times must be positive and finite")
    steps = np.arange(1, g.size + 1) if steps is None else np.asarray(steps, dtype=int)
    if steps.ndim != 1 or steps.size == 0 or steps.min() < 1 or steps.max() > g.size:
        raise ValueError("steps must be 1-based positions within future_gaps")
    draws = np.broadcast_arrays(*(np.atleast_1d(np.asarray(x, dtype=float))
                                  for x in (mu, phi, sigma2, last_h)))
    mu, phi, sigma2, last_h = draws
    if mu.ndim != 1 or not all(np.all(np.isfinite(x)) for x in draws):
        raise ValueError("mu, phi, sigma2 and last_h must be finite scalars or vectors")
    if np.any(phi <= 0.0) or np.any(phi >= 1.0) or np.any(sigma2 < 0.0):
        raise ValueError("forecasting needs 0 < phi < 1 and sigma2 >= 0")
    reach = np.cumsum(g)[steps - 1, None]  # (steps, 1) against (draws,)
    a, c = gap_law(phi, reach)
    m = mu + a * (last_h - mu)
    v = sigma2 * c
    h_q = _mixture_quantiles(m, np.sqrt(v))
    return ForecastSummary(
        h_mean=m.mean(axis=1),
        h_q025=h_q[0],
        h_q975=h_q[1],
        r2_mean=np.exp(m + v / 2.0).mean(axis=1),
        vol_mean=np.exp(m / 2.0 + v / 8.0).mean(axis=1),
    )


def _mixture_quantiles(m: np.ndarray, sd: np.ndarray) -> np.ndarray:
    """2.5% and 97.5% quantiles of each row's equal-weight normal mixture.

    ``m`` and ``sd`` are (steps, draws); a draw with sd = 0 is a point
    mass.  Returns (2, steps).  Each component's own quantile bounds the
    mixture's, so bisection starts from the smallest and largest of them
    and halves the bracket down to rounding level.
    """
    levels = np.array([[Q_LOW], [1.0 - Q_LOW]])
    own = m + np.array([-Z_975, Z_975])[:, None, None] * sd
    lo, hi = own.min(axis=2), own.max(axis=2)
    tol = np.finfo(float).eps * (np.abs(lo) + np.abs(hi) + sd.max(axis=1))
    point = sd == 0.0
    for _ in range(BISECT_MAX):
        if np.all(hi - lo <= tol):
            break
        mid = 0.5 * (lo + hi)
        x = mid[:, :, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(point, np.where(x >= m, np.inf, -np.inf), (x - m) / sd)
        below = 0.5 * _ERFC(-z / SQRT2).astype(float).mean(axis=2) < levels
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return hi
