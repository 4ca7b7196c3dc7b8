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
The elasticities theta * d sigma2 / d theta, theta = (omega, alpha1, beta1),
solve the same system (Fiorentini, Calzolari & Panattoni 1996).

``fit_ml`` runs L-BFGS-B with that exact gradient in x = (log omega,
log(a/c), log(b/c)), a = alpha1**g*, b = beta1**g*, c = 1 - a - b, where
every point is feasible.  The edges b = 0 (ARCH) and a = 0 lie at -inf, and
the likelihood can peak on either, so a GARCH fit also searches both: the ARCH
searches of an ARCH fit (x without b), and with log(a/c) held at -30.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from irvol.core import LOG_2PI, gap_values

FIRST_GAP = 1.0  # the variance start uses a unit gap

# (alpha1, beta1) starts of the multi-start optimizer (alpha1 alone for
# ARCH); omega always starts at var(r).
_START_GRID = (
    (0.05, 0.90),
    (0.10, 0.60),
    (0.30, 0.40),
    (0.60, 0.20),
    (0.85, 0.05),
)
_BOX = 30.0  # search box half-width: keeps exp(x) finite and c above 4e-14


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
                   uniq: np.ndarray, inv: np.ndarray, derivs: bool = False):
    """sigma2_1..sigma2_n from squared returns ``r2`` by one bidiagonal solve.

    Row j reads sigma2_j - beta1**g_j * sigma2_{j-1} = drive_j; row 1 is
    sigma2_1 itself.  ``uniq``/``inv`` index the gaps as in ``_loglik_core``.
    ``derivs`` adds the n-by-3 elasticities, whose right-hand sides are the
    elasticities of row j's drive plus g_j b (sigma2_{j-1} - omega).
    """
    au, bu = alpha1**uniq, beta1**uniq
    ag, bg = au[inv], bu[inv]
    rhs = np.empty(r2.size)
    rhs[0] = omega * (1.0 - alpha1**FIRST_GAP - beta1**FIRST_GAP)
    rhs[1:] = omega * (1.0 - ag - bg) + ag * r2[:-1]
    sigma2 = _solve_bidiagonal(bg, rhs, beta1 == 0.0)
    if not derivs:
        return sigma2
    elast = np.empty((r2.size, 3), order="F")
    elast[0] = rhs[0], -alpha1 * omega, -beta1 * omega
    elast[1:, 0] = omega * (1.0 - ag - bg)
    elast[1:, 1] = (uniq * au)[inv] * (r2[:-1] - omega)
    elast[1:, 2] = (uniq * bu)[inv] * (sigma2[:-1] - omega)
    return sigma2, _solve_bidiagonal(bg, elast, beta1 == 0.0)


def _solve_bidiagonal(bg: np.ndarray, rhs: np.ndarray, diagonal: bool) -> np.ndarray:
    """Solve x_1 = rhs_1, x_j - bg_{j-1} x_{j-1} = rhs_j per column of rhs, in place."""
    n = rhs.shape[0]
    if diagonal or n == 1:  # a diagonal system is its own solution
        return rhs
    from scipy.linalg.lapack import dgtsv
    return dgtsv(-bg, np.ones(n), np.zeros(n - 1), rhs, True, True, True, True)[3]


def _loglik_of_path(r2: np.ndarray, sigma2: np.ndarray) -> float:
    """Sum of the conditional log-densities for j >= 2; -inf if not finite."""
    s2 = sigma2[1:]
    loglik = -0.5 * ((r2.size - 1) * LOG_2PI
                     + float(np.sum(np.log(s2))) + float(np.sum(r2[1:] / s2)))
    return loglik if math.isfinite(loglik) else -math.inf


def _loglik_core(omega: float, alpha1: float, beta1: float, r2: np.ndarray,
                 uniq: np.ndarray, inv: np.ndarray, g_star: float) -> float:
    """Conditional Gaussian log-likelihood; -inf if infeasible or not finite.

    ``uniq``/``inv`` are the unique gap values and inverse indices (gap
    sequences usually repeat few distinct values, which makes the power
    computations cheap inside the optimizer's inner loop).
    """
    if not (omega > 0 and alpha1 > 0 and beta1 >= 0
            and alpha1**g_star + beta1**g_star < 1.0):
        return -math.inf
    return _loglik_of_path(r2, _variance_path(omega, alpha1, beta1, r2, uniq, inv))


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


def _from_search(x: np.ndarray, g_star: float):
    """(omega, alpha1, beta1) and the shares (a, b) at search coordinates x (an
    ARCH x has no b); alpha1 = a**(1/g*) may underflow, so it stops at 5e-324."""
    odds = np.exp(x[1:])
    shares = odds / (1.0 + odds.sum())
    coef = (shares ** (1.0 / g_star)).tolist() + [0.0]
    return math.exp(x[0]), max(coef[0], math.ulp(0.0)), coef[1], shares


def _neg_loglik(x: np.ndarray, r2: np.ndarray, uniq: np.ndarray, inv: np.ndarray,
                g_star: float) -> tuple[float, np.ndarray]:
    """Minus the log-likelihood and its gradient at search coordinates x;
    the value is minus ``_loglik_core``'s bit for bit."""
    omega, alpha1, beta1, shares = _from_search(x, g_star)
    if not alpha1**g_star + beta1**g_star < 1.0:  # c rounds to 0 far outside the box
        return math.inf, np.zeros(x.size)
    sigma2, elast = _variance_path(omega, alpha1, beta1, r2, uniq, inv, derivs=True)
    loglik = _loglik_of_path(r2, sigma2)
    if loglik == -math.inf:
        return math.inf, np.zeros(x.size)
    s2 = sigma2[1:]
    # d loglik / d log theta, then d log alpha1 / d(x_1, x_2) = (1 - a, -b) / g*, ...
    score = 0.5 * (((r2[1:] / s2 - 1.0) / s2) @ elast[1:])
    odds_score = score[1:x.size]
    grad = np.concatenate(([score[0]], (odds_score - shares * odds_score.sum()) / g_star))
    return -loglik, -grad


@dataclass(frozen=True)
class MlFit:
    """Maximum-likelihood fit result with a convergence report.

    ``best_start`` indexes the start grid, whichever search won from it;
    ``n_starts`` counts the feasible GARCH starts (all five for ARCH);
    ``grad_norm`` is the largest |entry| of the final projected gradient
    (entries that push against the search box count as 0).
    """

    params: IrGarchParams
    loglik: float
    converged: bool
    n_starts: int
    best_start: int
    iterations: int
    fun_evals: int
    grad_norm: float


def fit_ml(returns, gaps, arch_only: bool = False) -> MlFit:
    """Maximize the conditional log-likelihood by multi-start L-BFGS-B in the
    coordinates of the module docstring, from every feasible grid start; a
    return whose square overflows raises RuntimeError."""
    r = np.asarray(returns, dtype=float)
    if r.ndim != 1:
        raise ValueError("returns must be one-dimensional")
    if r.size < 50:
        raise ValueError("need at least 50 observations to fit")
    g = gap_values(gaps, count=r.size - 1)
    g_star = min(FIRST_GAP, float(np.min(g)))
    uniq, inv = np.unique(g, return_inverse=True)
    with np.errstate(over="ignore"):
        r2 = r * r
    if not np.all(np.isfinite(r2)):
        j = int(np.argmin(np.isfinite(r2)))
        raise RuntimeError(f"the return in row {j + 1} ({float(r[j])!r}) overflows when squared")

    starts = [(k, np.array(start) ** g_star) for k, start in enumerate(_START_GRID)]
    garch = [] if arch_only else [(k, ab) for k, ab in starts if ab.sum() < 1.0]
    if not (arch_only or garch):
        raise RuntimeError("no feasible starting point for the given gap times")
    log_omega0 = math.log(max(float(np.var(r)), 1e-12))
    # interior, a -> 0 edge (the odds of a held at e^-_BOX) and ARCH searches
    runs = ([(k, ab, _BOX) for k, ab in garch] + [(k, ab, -_BOX) for k, ab in garch]
            + [(k, ab[:1], _BOX) for k, ab in starts])
    best = None
    for idx, shares, a_max in runs:
        x0 = np.concatenate(([log_omega0], np.log(shares / (1.0 - shares.sum()))))
        lo = np.array([log_omega0 - _BOX] + [-_BOX] * shares.size)
        hi = np.array([log_omega0 + _BOX, a_max] + [_BOX] * (shares.size - 1))
        res = minimize(_neg_loglik, x0, args=(r2, uniq, inv, g_star), jac=True,
                       method="L-BFGS-B", bounds=list(zip(lo, hi)),
                       options={"gtol": 1e-5, "ftol": 1e-13})
        if best is None or res.fun < best[0].fun:
            best = res, idx, lo, hi
    res, idx, lo, hi = best
    if not np.isfinite(res.fun):
        raise RuntimeError("likelihood optimization failed from every start")
    outward = ((res.x <= lo) & (res.jac > 0)) | ((res.x >= hi) & (res.jac < 0))

    omega, alpha1, beta1, _ = _from_search(res.x, g_star)
    return MlFit(
        params=IrGarchParams(omega, alpha1, beta1),
        loglik=float(-res.fun),
        converged=bool(res.success),
        n_starts=len(garch) if garch else len(starts),
        best_start=idx,
        iterations=int(res.nit),
        fun_evals=int(res.nfev),
        grad_norm=float(np.max(np.abs(np.where(outward, 0.0, res.jac)))),
    )
