"""Gap-time GARCH and ARCH models with conditional ML estimation.

The GARCH coefficients are raised to the power of the gap time, so a long
quiet spell discounts both the squared-shock carry-over and the variance
carry-over:

    sigma2_1 = omega * (1 - alpha1**1 - beta1**1)
    sigma2_j = omega * (1 - alpha1**g_j - beta1**g_j)
               + alpha1**g_j * r_{j-1}**2 + beta1**g_j * sigma2_{j-1}

No gap precedes the first observation, so the start uses a unit gap.
Because alpha1**g + beta1**g decreases in g (coefficients in (0, 1)),
positivity of every term needs alpha1**g* + beta1**g* < 1 at the smallest
gap g* of the attached series (including the unit start gap).  Gap times
here are used in their observed units, not rescaled into (0, 1]: with
typical sub-unit gaps the minimum-gap constraint would be unsatisfiable
for realistic coefficient values.

The unconditional return variance equals omega whenever the constraint
holds, which the tests verify by long simulation.

Given the returns, the recursion is linear in sigma2, so the path solves
one unit lower-bidiagonal system (-beta1**g_j below the diagonal) in one
LAPACK ``dgtsv`` call.  As |beta1**g| < 1, the solver never swaps rows: its
elimination computes drive_j + beta1**g_j * sigma2_{j-1}, the loop's own
arithmetic, and its back substitution only divides by one and subtracts
zero products, so a finite path equals the step-by-step loop bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from irvol.core import LOG_2PI, gap_values

FIRST_GAP = 1.0  # the variance start uses a unit gap

# (alpha1, beta1) combinations tried by the multi-start optimizer, in
# addition to any user-supplied start; omega always starts at var(r).
_START_GRID = (
    (0.05, 0.90),
    (0.10, 0.60),
    (0.30, 0.40),
    (0.60, 0.20),
    (0.85, 0.05),
)


@dataclass(frozen=True)
class IrGarchParams:
    """Level omega, shock coefficient alpha1, persistence beta1 (0 for ARCH)."""

    omega: float
    alpha1: float
    beta1: float = 0.0

    def __post_init__(self):
        for name in ("omega", "alpha1", "beta1"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.omega <= 0:
            raise ValueError("omega must be positive")
        if self.alpha1 <= 0:
            raise ValueError("alpha1 must be positive")
        if self.beta1 < 0:
            raise ValueError("beta1 must be nonnegative")


def persistence_at_min_gap(params: IrGarchParams, gaps) -> float:
    """alpha1**g* + beta1**g* at the smallest gap (unit start gap included)."""
    g = np.asarray(gaps, dtype=float)
    g_star = min(FIRST_GAP, float(np.min(g))) if g.size else FIRST_GAP
    return params.alpha1**g_star + params.beta1**g_star


def validate_gap_constraint(params: IrGarchParams, gaps) -> None:
    """Raise unless alpha1**g* + beta1**g* < 1 for the given gap times."""
    value = persistence_at_min_gap(params, gaps)
    if not value < 1.0:
        raise ValueError(
            f"alpha1**g* + beta1**g* = {value:.6f} must be below 1 at the minimum gap"
        )


def simulate_irgarch(params: IrGarchParams, gaps, length: int, seed=None):
    """Simulate (sigma2 path, returns) with standard-normal errors.

    ``gaps`` supplies g_j for j = 2..length in observed time units; the
    minimum-gap positivity constraint is enforced up front, which makes
    every simulated sigma2 strictly positive.  As r_j feeds back into
    sigma2_{j+1}, the simulation runs the recursion step by step.
    """
    if length < 1:
        raise ValueError("length must be at least 1")
    g = gap_values(gaps, count=length - 1)
    validate_gap_constraint(params, g)
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(length)
    ag, bg = params.alpha1**g, params.beta1**g
    wg = params.omega * (1.0 - ag - bg)
    sigma2 = np.empty(length)
    r = np.empty(length)
    s2 = params.omega * (1.0 - params.alpha1**FIRST_GAP - params.beta1**FIRST_GAP)
    sigma2[0] = s2
    r[0] = math.sqrt(s2) * e[0]
    j = 1
    for a, b, w, ej in zip(ag.tolist(), bg.tolist(), wg.tolist(), e[1:].tolist()):
        s2 = w + a * r[j - 1] ** 2 + b * s2
        sigma2[j] = s2
        r[j] = math.sqrt(s2) * ej
        j += 1
    return sigma2, r


def simulate_irarch(omega: float, alpha1: float, gaps, length: int, seed=None):
    """Gap-time ARCH(1) simulation: the GARCH recursion with beta1 = 0."""
    return simulate_irgarch(IrGarchParams(omega, alpha1, 0.0), gaps, length, seed)


def filter_sigma2(params: IrGarchParams, returns, gaps) -> np.ndarray:
    """Run the variance recursion on observed returns.

    Uses the same initialization and per-step arithmetic as the simulator
    (squares by libm ``pow``, as its ``**`` does, which can differ from r*r
    in the last bit), so filtering a simulated path at the true parameters
    reproduces its sigma2 path bit for bit.  Raises ValueError on overflow.
    """
    r = np.asarray(returns, dtype=float)
    if r.ndim != 1 or r.size < 1:
        raise ValueError("returns must be a nonempty one-dimensional array")
    g = gap_values(gaps, count=r.size - 1)
    validate_gap_constraint(params, g)
    uniq, inv = np.unique(g, return_inverse=True)
    with np.errstate(over="ignore", invalid="ignore"):
        r2 = np.float_power(r, 2.0)
        sigma2 = _variance_path(params.omega, params.alpha1, params.beta1, r2, uniq, inv)
    if not np.all(np.isfinite(sigma2)):
        raise ValueError("sigma2 is not finite: a return is not finite or overflows")
    return sigma2


def _variance_path(omega: float, alpha1: float, beta1: float, r2: np.ndarray,
                   uniq: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """sigma2_1..sigma2_n from squared returns ``r2`` by one bidiagonal solve.

    Row j reads sigma2_j - beta1**g_j * sigma2_{j-1} = drive_j; row 1 is
    sigma2_1 itself.  ``uniq``/``inv`` index the gaps as in ``_loglik_core``.
    """
    ag = (alpha1**uniq)[inv]
    bg = (beta1**uniq)[inv]
    rhs = np.empty(r2.size)
    rhs[0] = omega * (1.0 - alpha1**FIRST_GAP - beta1**FIRST_GAP)
    rhs[1:] = omega * (1.0 - ag - bg) + ag * r2[:-1]
    if beta1 == 0.0 or r2.size == 1:  # a diagonal system is its own solution
        return rhs
    from scipy.linalg.lapack import dgtsv
    n = r2.size  # the four fresh arguments may all be overwritten in place
    return dgtsv(-bg, np.ones(n), np.zeros(n - 1), rhs, True, True, True, True)[3]


def _loglik_core(omega: float, alpha1: float, beta1: float, r2: np.ndarray,
                 uniq: np.ndarray, inv: np.ndarray, g_star: float) -> float:
    """Conditional Gaussian log-likelihood; -inf if infeasible or not finite.

    ``uniq``/``inv`` are the unique gap values and inverse indices (gap
    sequences usually repeat few distinct values, which makes the power
    computations cheap inside the optimizer's inner loop).
    """
    if not (omega > 0 and alpha1 > 0 and beta1 >= 0):
        return -math.inf
    if not alpha1**g_star + beta1**g_star < 1.0:
        return -math.inf
    sigma2 = _variance_path(omega, alpha1, beta1, r2, uniq, inv)[1:]
    loglik = -0.5 * ((r2.size - 1) * LOG_2PI
                     + float(np.sum(np.log(sigma2))) + float(np.sum(r2[1:] / sigma2)))
    return loglik if math.isfinite(loglik) else -math.inf


def conditional_loglik(params: IrGarchParams, returns, gaps) -> float:
    """Sum of conditional Gaussian log-densities over j = 2..n.

    The first observation has no conditioning history and is excluded.
    Returns -inf (instead of raising) when the minimum-gap constraint is
    violated or the variance path or the sum is not finite (an overflowing
    return), so optimizers can use the value directly as a penalty.
    """
    r = np.asarray(returns, dtype=float)
    if r.ndim != 1 or r.size < 2:
        raise ValueError("need at least two returns for the conditional likelihood")
    g = gap_values(gaps, count=r.size - 1)
    g_star = min(FIRST_GAP, float(np.min(g)))
    uniq, inv = np.unique(g, return_inverse=True)
    return _loglik_core(params.omega, params.alpha1, params.beta1, r * r,
                        uniq, inv, g_star)


@dataclass(frozen=True)
class MlFit:
    """Maximum-likelihood fit result with a convergence report."""

    params: IrGarchParams
    loglik: float
    converged: bool
    n_starts: int
    best_start: int
    iterations: int
    fun_evals: int
    simplex_spread: float


def fit_ml(returns, gaps, start: IrGarchParams | None = None, n_starts: int = 5,
           arch_only: bool = False) -> MlFit:
    """Maximize the conditional log-likelihood by multi-start simplex search.

    The search runs over log-transformed coordinates (log omega, log
    alpha1, log beta1) so positivity holds by construction; the joint
    minimum-gap constraint is enforced through a -inf penalty in the
    likelihood.  ``n_starts`` feasible starting points are tried (a
    user-supplied ``start`` is tried first) and the best optimum wins.
    With ``arch_only`` the search fixes beta1 = 0.
    """
    r = np.asarray(returns, dtype=float)
    if r.ndim != 1:
        raise ValueError("returns must be one-dimensional")
    if r.size < 50:
        raise ValueError("need at least 50 observations to fit")
    g = gap_values(gaps, count=r.size - 1)
    g_star = min(FIRST_GAP, float(np.min(g)))
    uniq, inv = np.unique(g, return_inverse=True)
    r2 = r * r

    starts: list[tuple[float, float, float]] = []
    if start is not None:
        starts.append((start.omega, start.alpha1, max(start.beta1, 1e-8)))
    omega0 = max(float(np.var(r)), 1e-12)
    for a0, b0 in _START_GRID:
        starts.append((omega0, a0, b0))
    feasible = [s for s in starts
                if s[1] ** g_star + (0.0 if arch_only else s[2]) ** g_star < 1.0]
    feasible = feasible[:max(n_starts, 1)]
    if not feasible:
        raise RuntimeError("no feasible starting point for the given gap times")

    def neg_ll(x):
        beta1 = 0.0 if arch_only else math.exp(x[2])
        return -_loglik_core(math.exp(x[0]), math.exp(x[1]), beta1, r2, uniq, inv, g_star)

    best = None
    best_idx = -1
    for idx, (w0, a0, b0) in enumerate(feasible):
        x0 = np.log([w0, a0] if arch_only else [w0, a0, b0])
        res = minimize(neg_ll, x0, method="Nelder-Mead",
                       options={"xatol": 1e-8, "fatol": 1e-8, "maxiter": 2000})
        if best is None or res.fun < best.fun:
            best = res
            best_idx = idx
    if best is None or not np.isfinite(best.fun):
        raise RuntimeError("likelihood optimization failed from every start")

    values = np.exp(best.x)
    params = IrGarchParams(float(values[0]), float(values[1]),
                           0.0 if arch_only else float(values[2]))
    vertices = best.final_simplex[0]
    spread = float(np.max(np.linalg.norm(vertices - vertices[0], axis=1)))
    return MlFit(
        params=params,
        loglik=float(-best.fun),
        converged=bool(best.success),
        n_starts=len(feasible),
        best_start=best_idx,
        iterations=int(best.nit),
        fun_evals=int(best.nfev),
        simplex_spread=spread,
    )
