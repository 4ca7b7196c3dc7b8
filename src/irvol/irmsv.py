"""Multivariate gap-time stochastic volatility with constant correlation.

Each asset's log-volatility follows its own univariate gap-time AR(1)
over a shared (post-synchronization) gap sequence; the latent processes
are mutually independent.  Cross-sectional dependence enters only through
the observation errors: r_t = H_t^(1/2) eps_t with eps_t ~ MVN(0, R),
H_t = diag(exp(h_{1,t}), ..., exp(h_{p,t})), and R a constant correlation
matrix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from irvol.core import gap_values
from irvol.irsv import IrSvParams, _recurse_states

MIN_EIGENVALUE = 1e-10
SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric positive-definite matrix with an exactly unit diagonal."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("a correlation matrix must be square")
        if arr.shape[0] < 1:
            raise ValueError("a correlation matrix needs at least one row")
        if not np.all(np.isfinite(arr)):
            raise ValueError("correlation entries must be finite")
        if arr.size > 1 and float(np.max(np.abs(arr - arr.T))) > SYMMETRY_TOL:
            raise ValueError("correlation matrix is not symmetric")
        if not np.all(np.diag(arr) == 1.0):
            raise ValueError("correlation matrix must have a unit diagonal")
        arr = (arr + arr.T) / 2.0
        eigvals = np.linalg.eigvalsh(arr)
        if float(eigvals[0]) <= MIN_EIGENVALUE:
            raise ValueError("correlation matrix is not positive definite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def p(self) -> int:
        return self.values.shape[0]

    def cholesky(self) -> np.ndarray:
        """Lower-triangular factor L with L @ L.T == values."""
        return np.linalg.cholesky(self.values)


@functools.cache
def lower_index(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the below-diagonal entries, row-major (read-only)."""
    rows, cols = np.tril_indices(p, -1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def corr_from_lower(p: int, lower) -> np.ndarray:
    """Assemble a full matrix from the p*(p-1)/2 below-diagonal entries.

    Entries are in row-major lower-triangle order: (2,1), (3,1), (3,2), ...
    in one-based labels.  No validity check is performed here.
    """
    lower = np.asarray(lower, dtype=float)
    rows, cols = lower_index(p)
    if lower.size != rows.size:
        raise ValueError(f"expected {rows.size} lower-triangle entries, got {lower.size}")
    out = np.eye(p)
    out[rows, cols] = lower
    out[cols, rows] = lower
    return out


def lower_entries(matrix) -> np.ndarray:
    """Below-diagonal entries in the order used by ``corr_from_lower``."""
    arr = np.asarray(matrix, dtype=float)
    rows, cols = lower_index(arr.shape[0])
    return arr[rows, cols].copy()


def correlation_names(p: int) -> list[str]:
    """Column labels rho_12, rho_13, ... matching ``lower_entries`` order."""
    rows, cols = lower_index(p)
    sep = "" if p <= 9 else "_"
    return [f"rho_{c + 1}{sep}{r + 1}" for r, c in zip(rows, cols)]


@dataclass(frozen=True)
class IrMsvParams:
    """Per-asset (mu, phi, sigma) plus the observation correlation matrix.

    Each asset's (mu, phi, sigma) must make valid ``IrSvParams``.
    """

    mu: np.ndarray
    phi: np.ndarray
    sigma: np.ndarray
    correlation: CorrelationMatrix

    def __post_init__(self):
        mu = np.array(self.mu, dtype=float)
        phi = np.array(self.phi, dtype=float)
        sigma = np.array(self.sigma, dtype=float)
        if mu.ndim != 1 or mu.shape != phi.shape or mu.shape != sigma.shape:
            raise ValueError("mu, phi, and sigma must be equal-length vectors")
        if mu.size < 2:
            raise ValueError("the multivariate model needs at least two assets")
        if self.correlation.p != mu.size:
            raise ValueError("correlation matrix size must match the number of assets")
        for arr in (mu, phi, sigma):
            arr.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "sigma", sigma)
        for i in range(mu.size):
            try:
                self.asset(i)
            except ValueError as exc:  # IrSvParams calls sigma sigma_eta
                raise ValueError(f"asset {i + 1}: {exc}".replace("sigma_eta", "sigma")) from None

    @property
    def n_assets(self) -> int:
        return self.mu.size

    def asset(self, i: int) -> IrSvParams:
        """Marginal univariate parameters of asset i."""
        return IrSvParams(float(self.mu[i]), float(self.phi[i]), float(self.sigma[i]))


def simulate_irmsv(params: IrMsvParams, gaps, length: int, seed=None):
    """Simulate latent (p, T) log-volatilities and correlated (p, T) returns.

    All assets share one gap sequence (as produced by refresh sampling).
    Draw order is fixed: the (p, T) state-noise block first, then the
    (p, T) observation-noise block, so runs are seed-reproducible.
    """
    if length < 1:
        raise ValueError("length must be at least 1")
    g = gap_values(gaps, count=length - 1, max_one=True)
    p = params.n_assets
    rng = np.random.default_rng(seed)
    z_state = rng.standard_normal((p, length))
    z_obs = rng.standard_normal((p, length))
    h = np.empty((p, length))
    for i in range(p):
        h[i] = _recurse_states(float(params.mu[i]), float(params.phi[i]),
                               float(params.sigma[i]), g, z_state[i])
    eps = params.correlation.cholesky() @ z_obs
    r = np.exp(h / 2.0) * eps
    return h, r
