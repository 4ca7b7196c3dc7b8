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

Given the returns, the recursion is linear in sigma2: the path solves a
unit lower-bidiagonal system (-beta1**g_j below the diagonal), and the
paths of many parameter points stack into one LAPACK ``dgtsv`` call, with
a zero below the diagonal between paths.  As |beta1**g| < 1, the solver
never swaps rows: its elimination computes drive_j + beta1**g_j *
sigma2_{j-1}, the loop's own arithmetic, and its back substitution only
divides by one and subtracts zero products, so a finite path equals the
step-by-step loop bit for bit, alone or stacked.  The elasticities
theta * d sigma2 / d theta, theta = (omega, alpha1, beta1), solve the same
system (Fiorentini, Calzolari & Panattoni 1996).

``fit_ml`` searches x = (log omega, log(a/c), log(b/c)), a = alpha1**g*,
b = beta1**g*, c = 1 - a - b, where every point is feasible.  The edges
b = 0 (ARCH) and a = 0 lie at -inf, and the likelihood can peak on either,
so a GARCH fit also searches both: the ARCH searches of an ARCH fit, and
with log(a/c) held at -30.  All searches of all series run in lockstep in
``minimize``, each of its rounds one stacked kernel call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv

from irvol.core import LOG_2PI, gap_values, squared_returns

FIRST_GAP = 1.0  # the variance start uses a unit gap

# (alpha1, beta1) starts (alpha1 alone for ARCH); omega starts at var(r)
_START_GRID = ((0.05, 0.90), (0.10, 0.60), (0.30, 0.40), (0.60, 0.20), (0.85, 0.05))
_BOX = 30.0  # search box half-width: keeps exp(x) finite and c above 4e-14
_GTOL, _DTOL = 1e-5, 1e-9  # projected gradient, decrease the model still promises
_FTOL = 1e-13  # relative decrease below which a step is lost in rounding
_MAX_EVALS, _MAX_STEP = 1000, 10.0  # per search; largest move of a coordinate per step
_MAX_ROWS = 2**13  # stacked rows per kernel call


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
    theta = np.array([[params.omega], [params.alpha1], [params.beta1]])
    with np.errstate(over="ignore", invalid="ignore"):
        sigma2 = _variance_path(theta, np.float_power(r, 2.0)[None], g[None])[0]
    if not np.all(np.isfinite(sigma2)):
        raise ValueError("sigma2 is not finite: a return is not finite or overflows")
    return sigma2


def _variance_path(theta: np.ndarray, r2: np.ndarray, g: np.ndarray, derivs: bool = False):
    """sigma2_1..sigma2_n of A problems: problem p has theta[:, p] = (omega,
    alpha1, beta1), squared returns r2[p] and gaps g[p].  Row j reads
    sigma2_j - beta1**g_j * sigma2_{j-1} = drive_j; row 1 is sigma2_1 itself.
    ``derivs`` adds the (3, A, n) elasticities, whose right-hand sides are
    the elasticities of row j's drive plus g_j b (sigma2_{j-1} - omega)."""
    omega, alpha1, beta1 = theta
    ag, bg = alpha1[:, None] ** g, beta1[:, None] ** g
    w = omega[:, None]
    level = w * (1.0 - ag - bg)
    rhs = np.empty(r2.shape)
    rhs[:, 0] = omega * (1.0 - alpha1**FIRST_GAP - beta1**FIRST_GAP)
    rhs[:, 1:] = level + ag * r2[:, :-1]
    sigma2 = _solve_bidiagonal(bg, rhs)
    if not derivs:
        return sigma2
    elast = np.empty((3,) + r2.shape)
    elast[:, :, 0] = rhs[:, 0], -alpha1 * omega, -beta1 * omega
    elast[0, :, 1:] = level
    elast[1, :, 1:] = g * ag * (r2[:, :-1] - w)
    elast[2, :, 1:] = g * bg * (sigma2[:, :-1] - w)
    return sigma2, _solve_bidiagonal(bg, elast)


def _solve_bidiagonal(bg: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve x_1 = rhs_1, x_j - bg_{j-1} x_{j-1} = rhs_j for each row of bg (A, n - 1)
    and each leading index of rhs (..., A, n) in one dgtsv call, with zeros below the
    diagonal between rows.  A row whose solution is not finite would leak 0 * inf =
    nan into the others, so each row that comes out not finite is solved alone."""
    count, n = rhs.shape[-2:]
    if n == 1 or not bg.any():  # a diagonal system is its own solution
        return rhs
    size, sub = count * n, np.concatenate((-bg, np.zeros((count, 1))), axis=1).ravel()
    x = dgtsv(sub[:-1], np.ones(size), np.zeros(size - 1),
              rhs.reshape(-1, size).T, True, True, True)[3].T.reshape(rhs.shape)
    if count > 1:
        for p in np.flatnonzero(~np.isfinite(x).reshape(-1, count, n).all(axis=(0, 2))):
            x[..., p, :] = _solve_bidiagonal(bg[p:p + 1], rhs[..., p:p + 1, :])[..., 0, :]
    return x


def _loglik_of_path(theta, g_star, r2, sigma2) -> np.ndarray:
    """Sums of the conditional log-densities for j >= 2 per problem; -inf
    where alpha1**g* + beta1**g* >= 1 or the sum is not finite."""
    s2 = sigma2[:, 1:]
    loglik = -0.5 * ((r2.shape[1] - 1) * LOG_2PI
                     + np.log(s2).sum(axis=1) + (r2[:, 1:] / s2).sum(axis=1))
    feasible = theta[1] ** g_star + theta[2] ** g_star < 1.0
    return np.where(feasible & np.isfinite(loglik), loglik, -np.inf)


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
    g_star = np.array([min(FIRST_GAP, float(np.min(g)))])
    theta, r2 = np.array([[params.omega], [params.alpha1], [params.beta1]]), (r * r)[None]
    with np.errstate(all="ignore"):
        sigma2 = _variance_path(theta, r2, g[None])
        return float(_loglik_of_path(theta, g_star, r2, sigma2)[0])


def _from_search(x: np.ndarray, g_star: np.ndarray):
    """theta (3, A) and the shares (a, b), (A, 2), at search points x (A, 3), x[:, 2] =
    -inf for ARCH; alpha1 = a**(1/g*) may underflow, so it stops at 5e-324."""
    odds = np.exp(x[:, 1:])
    shares = odds / (1.0 + odds.sum(axis=1, keepdims=True))
    coef = shares ** (1.0 / g_star[:, None])
    return np.array([np.exp(x[:, 0]), np.maximum(coef[:, 0], math.ulp(0.0)), coef[:, 1]]), shares


def _neg_loglik(x: np.ndarray, g_star: np.ndarray, r2: np.ndarray, g: np.ndarray,
                fisher: bool = False):
    """Minus the log-likelihoods (A,) and their gradients (A, 3) at search
    points x (A, 3), and with ``fisher`` the Fisher information (A, 3, 3) in
    x; inf and zeros where infeasible or not finite.  A value is minus
    ``conditional_loglik``'s bit for bit."""
    with np.errstate(all="ignore"):
        theta, shares = _from_search(x, g_star)
        sigma2, elast = _variance_path(theta, r2, g, derivs=True)
        loglik = _loglik_of_path(theta, g_star, r2, sigma2)
        s2 = sigma2[:, 1:]
        # d loglik / d log theta, times d log theta / dx: (1 - a, -b) / g*, ...
        score = 0.5 * (elast[:, :, 1:] * ((r2[:, 1:] / s2 - 1.0) / s2)).sum(axis=2)
        jac = np.repeat(np.eye(3)[None], len(x), axis=0)
        jac[:, 1:, 1:] = (np.eye(2) - shares[:, None, :]) / g_star[:, None, None]
        grad = np.einsum("akl,ka->al", jac, score)
        bad = ~(np.isfinite(loglik) & np.isfinite(grad).all(axis=1))
        out = np.where(bad, np.inf, -loglik), np.where(bad[:, None], 0.0, -grad)
        if not fisher:
            return out
        scaled = elast[:, :, 1:] / s2
        info = 0.5 * np.einsum("kaj,laj->akl", scaled, scaled)
        return out + (np.einsum("aki,akl,alj->aij", jac, info, jac),)


def _descent(hess, pg):
    """The direction -hess^-1 pg on the coordinates where pg is nonzero (-pg where that
    is no finite descent direction), shortened to move no coordinate by more than
    _MAX_STEP, and whether pg is at most _GTOL and the model promises at most _DTOL."""
    move = pg != 0
    h = np.where(move[:, :, None] & move[:, None, :], hess, np.eye(3))
    h[~(np.linalg.det(h) > 0)] = np.eye(3)
    d = -np.linalg.solve(h, pg[:, :, None])[:, :, 0]
    d = np.where((np.isfinite(d).all(axis=1) & ((d * pg).sum(axis=1) < 0))[:, None], d, -pg)
    stop = (np.abs(pg).max(axis=1) <= _GTOL) & (-0.5 * (d * pg).sum(axis=1) <= _DTOL)
    return d * np.minimum(1.0, _MAX_STEP / np.abs(d).max(axis=1).clip(1e-300))[:, None], stop


def minimize(fun, x0, lower, upper):
    """Minimize independent box-bounded problems in 3 coordinates in lockstep.

    ``fun(x, rows, fisher)`` gives the values (A,) and gradients (A, 3) of
    problems ``rows`` at x (A, 3), and with ``fisher`` curvatures (A, 3, 3),
    asked for once, at x0, to seed BFGS.  Coordinates with lower == upper
    stay fixed.  Each round evaluates one trial point per unfinished
    problem: a projected quasi-Newton step, shrunk until it meets Armijo's
    condition.  A problem converges as ``_descent`` says, or when the next
    trial could lower its value by at most ``_FTOL`` of its size (nothing
    representable is left); it stops unconverged at a start value that is
    not finite or after ``_MAX_EVALS`` evaluations.  Returns x, the
    values, projected gradients, converged, steps and evaluations.
    """
    x, free = np.clip(x0, lower, upper), lower < upper

    def projected(rows):  # g, with 0 where fixed or pushing out of the box
        xr, gr = x[rows], g[rows]
        out = ((xr <= lower[rows]) & (gr > 0)) | ((xr >= upper[rows]) & (gr < 0))
        return np.where(free[rows] & ~out, gr, 0.0)

    f, g, hess = fun(x, np.arange(len(x)), True)
    done, converged, pg = ~np.isfinite(f), np.zeros(len(x), bool), projected(slice(None))
    nit, nfev, t, d = np.zeros(len(x), int), np.ones(len(x), int), np.ones(len(x)), 0 * pg
    d[~done], converged[~done] = _descent(hess[~done], pg[~done])
    done |= converged
    while not done.all():
        live = np.flatnonzero(~done)
        trial = np.clip(x[live] + t[live, None] * d[live], lower[live], upper[live])
        f_t, g_t = fun(trial, live, False)
        nfev[live] += 1
        s = np.subtract(trial, x[live], out=np.zeros(trial.shape), where=free[live])
        slope = (g[live] * s).sum(axis=1)
        ok = (slope < 0) & (f_t <= f[live] + 1e-4 * slope)
        acc, rej, sl, s, y = live[ok], live[~ok], slope[~ok], s[ok], g_t[ok] - g[live[ok]]
        with np.errstate(all="ignore"):
            # a rejected trial shrinks the step by quadratic interpolation in [0.1, 0.5]
            shrink = np.fmax(np.fmin(-0.5 * sl / (f_t[~ok] - f[rej] - sl), 0.5), 0.1)
            t[rej] *= shrink
            stalled = rej[(sl < 0) & (-sl * shrink <= _FTOL * np.abs(f[rej]).clip(1.0))]
            converged[stalled] = done[stalled] = True
            uphill = rej[sl >= 0]  # clipping at the box undid the descent
            t[uphill], d[uphill] = 1.0, -pg[uphill]
            # an accepted one updates hess by BFGS, damped as Powell's to stay positive definite
            hs = np.einsum("akl,al->ak", hess[acc], s)
            sy, shs = (s * y).sum(axis=1), (s * hs).sum(axis=1)
            damp = np.where(sy >= 0.2 * shs, 1.0, 0.8 * shs / (shs - sy))[:, None]
            y = damp * y + (1.0 - damp) * hs
            c = shs > 0
            hess[acc[c]] += (y[c, :, None] * y[c, None] / (s * y).sum(axis=1)[c, None, None]
                             - hs[c, :, None] * hs[c, None] / shs[c, None, None])
        x[acc], f[acc], g[acc], nit[acc], t[acc] = trial[ok], f_t[ok], g_t[ok], nit[acc] + 1, 1.0
        pg[acc] = projected(acc)
        d[acc], stop = _descent(hess[acc], pg[acc])
        converged[acc] = done[acc] = stop
        done |= nfev >= _MAX_EVALS
    return x, f, pg, converged, nit, nfev


@dataclass(frozen=True)
class MlFit:
    """Maximum-likelihood fit result with the winning search's report.

    ``best_start`` indexes the grid start it began from, whichever of the
    three searches it is; ``iterations`` counts its accepted steps,
    ``fun_evals`` its value-and-gradient evaluations, and ``grad_norm`` is
    the largest |entry| of its final projected gradient (entries that push
    against the search box count as 0).
    """

    params: IrGarchParams
    loglik: float
    converged: bool
    best_start: int
    iterations: int
    fun_evals: int
    grad_norm: float


def _prepare(returns, gaps):
    """Validated (r2, g*, gaps, log var(r)) of one series."""
    r = np.asarray(returns, dtype=float)
    if r.ndim != 1 or r.size < 50:
        raise ValueError("need one-dimensional returns, at least 50 of them, to fit")
    g = gap_values(gaps, count=r.size - 1)
    r2 = squared_returns(r)
    return r2, min(FIRST_GAP, float(np.min(g))), g, math.log(max(float(np.var(r)), 1e-12))


def _searches(g_star: np.ndarray, log_omega0: np.ndarray, arch_only: bool):
    """Start points and lower and upper bounds, each (searches, 3), of the
    interior, the a = 0 edge (log(a/c) held at -_BOX) and the ARCH (log(b/c)
    held at -inf) searches, or of the ARCH ones alone, in the order family,
    series, grid start."""
    grid = np.array(_START_GRID)
    powered = grid ** g_star[:, None, None]
    total = powered.sum(axis=2, keepdims=True)
    # at a small g* a powered pair can leave the triangle: scale it to its unit-gap total
    ab = np.where(total < 1.0, powered, powered * (grid.sum(axis=1)[:, None] / total))
    first = 2 if arch_only else 0
    pairs = np.array([ab, ab, powered * (1.0, 0.0)])[first:]
    centre = np.zeros(pairs.shape[:3] + (3,))
    centre[..., 0] = log_omega0[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        odds = np.log(pairs / (1.0 - pairs.sum(axis=3, keepdims=True)))
    box = _BOX * np.array([[-1, -1, -1, 1, 1, 1], [-1, -1, -1, 1, -1, 1],
                           [-1, -1, -np.inf, 1, 1, -np.inf]])[first:, None, None]
    x0 = np.concatenate((centre[..., :1], odds), axis=3)
    return (a.reshape(-1, 3) for a in (x0, centre + box[..., :3], centre + box[..., 3:]))


def fit_ml(series, arch_only: bool = False) -> list[MlFit]:
    """Maximize the conditional log-likelihood of each (returns, gaps) pair
    of ``series`` from every grid start, in the coordinates of the module
    docstring.  The searches of all series of one length run together in
    ``minimize``, and each fit equals the series' fit alone.  A return
    whose square overflows raises RuntimeError; an error about one series
    holds its index in ``series``."""
    prepared = []
    for k, (r, gaps) in enumerate(series):
        try:
            prepared.append(_prepare(r, gaps))
        except (ValueError, RuntimeError) as exc:
            exc.series = k
            raise
    fits: list[MlFit] = [None] * len(prepared)
    starts = len(_START_GRID)
    for n in sorted({p[0].size for p in prepared}):
        members = [k for k, p in enumerate(prepared) if p[0].size == n]
        r2, g_star, g, log_omega0 = map(np.array, zip(*(prepared[k] for k in members)))
        x0, lower, upper = _searches(g_star, log_omega0, arch_only)
        owner = np.arange(len(x0)) // starts % len(members)

        def objective(x, rows, fisher):  # at most _MAX_ROWS stacked rows per kernel call
            step, own = max(1, _MAX_ROWS // n), owner[rows]
            parts = [_neg_loglik(x[i:i + step], *(a[own[i:i + step]] for a in (g_star, r2, g)),
                                 fisher) for i in range(0, len(x), step)]
            return tuple(np.concatenate(part) for part in zip(*parts))

        x, f, pg, converged, nit, nfev = minimize(objective, x0, lower, upper)
        theta = _from_search(x, g_star[owner])[0]
        searches = np.arange(len(x)).reshape(-1, len(members), starts).transpose(1, 0, 2)
        for k, mine in zip(members, searches.reshape(len(members), -1)):
            best = mine[np.argmin(f[mine])]
            if not np.isfinite(f[best]):
                raise RuntimeError("likelihood optimization failed from every start")
            fits[k] = MlFit(IrGarchParams(*theta[:, best].tolist()), float(-f[best]),
                            bool(converged[best]), int(best % starts), int(nit[best]),
                            int(nfev[best]), float(np.max(np.abs(pg[best]))))
    return fits
