"""Reference computations and input simulators for the benchmark.

Everything here is written apart from ``irvol`` and imports nothing from
it, so a fault in the program cannot hide in the check that judges it:

* simulators for gap-time SV, multivariate SV and the tick stream that
  carries a multivariate path;
* a refresh-time oracle (one merged pass over all ticks in time order);
* the gap-time GARCH(1,1) conditional log-likelihood;
* the closed-form gap-time forecast law of log-volatility and bounds on
  the Monte Carlo error of forecast averages;
* the forecast MAE table;
* posterior summaries (mean, sd, type-7 quantiles) and Geyer's initial
  monotone sequence ESS.
"""

from __future__ import annotations

import math
from datetime import datetime, timedelta, timezone

import numpy as np
from scipy.special import ndtr

LOG_2PI = math.log(2.0 * math.pi)
SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
TICK_EPOCH = datetime(2024, 3, 1, 14, 30, tzinfo=timezone.utc)


# --------------------------------------------------------------------------
# simulators
# --------------------------------------------------------------------------

def truncated_poisson(count: int, mean: float, rng: np.random.Generator) -> np.ndarray:
    """Poisson(mean) draws conditioned on being positive, by rejection."""
    out = np.empty(count)
    filled = 0
    while filled < count:
        draw = rng.poisson(mean, size=2 * (count - filled))
        draw = draw[draw > 0][: count - filled]
        out[filled:filled + draw.size] = draw
        filled += draw.size
    return out


def gap_time_ar1(mu, phi, sigma2, scaled_gaps, z) -> np.ndarray:
    """Gap-time AR(1) path started from its stationary law.

    ``mu``, ``phi``, ``sigma2`` are scalars or (p,) arrays, ``scaled_gaps``
    has T - 1 entries and ``z`` is (T,) or (p, T) standard normal.  Over a
    gap g the coefficient is phi**g and the innovation variance is
    sigma2 * (1 - phi**(2g)) / (1 - phi**2).
    """
    mu, phi, sigma2 = (np.asarray(x, dtype=float)[..., None] for x in (mu, phi, sigma2))
    z = np.asarray(z, dtype=float)
    stat_var = sigma2 / (1.0 - phi * phi)
    h = np.empty(np.broadcast(z, mu).shape)
    h[..., 0] = mu[..., 0] + np.sqrt(stat_var[..., 0]) * z[..., 0]
    for j, g in enumerate(scaled_gaps, start=1):
        a = phi[..., 0] ** g
        h[..., j] = (mu[..., 0] + a * (h[..., j - 1] - mu[..., 0])
                     + np.sqrt(stat_var[..., 0] * (1.0 - a * a)) * z[..., j])
    return h


def simulate_sv(mu, phi, sigma_eta, scaled_gaps, rng):
    """Univariate gap-time SV: returns (h, r), each of length len(gaps) + 1."""
    length = len(scaled_gaps) + 1
    h = gap_time_ar1(mu, phi, sigma_eta**2, scaled_gaps, rng.standard_normal(length))
    r = np.exp(h / 2.0) * rng.standard_normal(length)
    return h, r


def simulate_msv(mu, phi, sigma2, corr, scaled_gaps, rng):
    """Multivariate gap-time SV with correlated errors: (h, r), each (p, T)."""
    p = len(mu)
    length = len(scaled_gaps) + 1
    h = gap_time_ar1(mu, phi, sigma2, scaled_gaps, rng.standard_normal((p, length)))
    eps = np.linalg.cholesky(np.asarray(corr, dtype=float)) @ rng.standard_normal((p, length))
    return h, np.exp(h / 2.0) * eps


def iso_timestamp(time_us: int) -> str:
    """ISO-8601 UTC text for microseconds after ``TICK_EPOCH``."""
    moment = TICK_EPOCH + timedelta(microseconds=int(time_us))
    return moment.strftime("%Y-%m-%dT%H:%M:%S.%fZ")


def epoch_seconds(time_us: int) -> float:
    """Epoch seconds of a tick time given in microseconds after ``TICK_EPOCH``."""
    base_us = int((TICK_EPOCH - datetime(1970, 1, 1, tzinfo=timezone.utc))
                  // timedelta(microseconds=1))
    return (base_us + int(time_us)) / 10**6


def tick_stream(assets, grid_us, grid_prices, extra_rate: float, rng):
    """Ticks whose refresh-time grid is exactly ``grid_us``.

    Every asset trades at every grid time at its grid price.  Between two
    grid times, and before the first and after the last, a random strict
    subset of the assets trades ``extra_rate`` times on average at
    uniformly drawn instants, so some asset is always still waiting and no
    extra refresh time can arise.  Returns (asset, time_us, price) tuples
    in shuffled order.
    """
    p = len(assets)
    ticks = []
    for i, asset in enumerate(assets):
        for t, price in zip(grid_us, grid_prices[i]):
            ticks.append((asset, int(t), float(price)))
    edges = ([grid_us[0] - 60_000_000] + [int(t) for t in grid_us]
             + [grid_us[-1] + 60_000_000])
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi - lo < 2:
            continue
        movers = rng.permutation(p)[: rng.integers(0, p)]
        for i in movers:
            n = int(rng.poisson(extra_rate))
            times = np.unique(rng.integers(lo + 1, hi, size=n))
            level = grid_prices[i][min(np.searchsorted(grid_us, lo), len(grid_us) - 1)]
            for t in times:
                ticks.append((assets[i], int(t),
                              float(level * math.exp(0.001 * rng.standard_normal()))))
    order = rng.permutation(len(ticks))
    return [ticks[k] for k in order]


# --------------------------------------------------------------------------
# refresh-time oracle
# --------------------------------------------------------------------------

def refresh_oracle(ticks):
    """Refresh times and previous-tick prices from (asset, time, price) ticks.

    One pass over all ticks in time order: a refresh time is the instant at
    which the last asset that had not yet traded since the previous refresh
    time trades.  Ticks sharing an instant are applied together before the
    test, so a price at exactly the refresh time is the one sampled.
    Returns (times, {asset: prices}).  Duplicate (asset, time) ticks are
    rejected rather than resolved.
    """
    assets = sorted({a for a, _, _ in ticks})
    seen_keys = set()
    for a, t, _ in ticks:
        if (a, t) in seen_keys:
            raise ValueError(f"duplicate tick for {a!r} at {t!r}")
        seen_keys.add((a, t))
    ordered = sorted(ticks, key=lambda tick: tick[1])
    last_price: dict[str, float] = {}
    waiting = set(assets)
    times: list = []
    prices: dict[str, list[float]] = {a: [] for a in assets}
    k = 0
    while k < len(ordered):
        now = ordered[k][1]
        while k < len(ordered) and ordered[k][1] == now:
            asset, _, price = ordered[k]
            last_price[asset] = price
            waiting.discard(asset)
            k += 1
        if not waiting:
            times.append(now)
            for a in assets:
                prices[a].append(last_price[a])
            waiting = set(assets)
    return times, prices


# --------------------------------------------------------------------------
# gap-time GARCH
# --------------------------------------------------------------------------

def garch_loglik(omega: float, alpha1: float, beta1: float, returns, gaps) -> float:
    """Conditional Gaussian log-likelihood of the gap-time GARCH(1,1).

    sigma2_1 = omega (1 - alpha1 - beta1) (a unit gap before the start);
    sigma2_j = omega (1 - alpha1**g - beta1**g) + alpha1**g r_{j-1}**2
               + beta1**g sigma2_{j-1} with g the gap before observation j.
    The sum runs over j = 2..n; beta1 = 0 gives the ARCH(1) model.
    """
    r = [float(x) for x in returns]
    s2 = omega * (1.0 - alpha1 - beta1)
    total = 0.0
    for j in range(1, len(r)):
        g = float(gaps[j - 1])
        a = alpha1**g
        b = beta1**g if beta1 > 0.0 else 0.0
        s2 = omega * (1.0 - a - b) + a * r[j - 1] ** 2 + b * s2
        total += LOG_2PI + math.log(s2) + r[j] ** 2 / s2
    return -0.5 * total


# --------------------------------------------------------------------------
# forecasts
# --------------------------------------------------------------------------

def forecast_law(mu, phi, sigma2, h_last, horizon_gap: float):
    """Mean and variance of h after a total scaled gap G, one entry per draw.

    h_{T+k} | draw ~ N(mu + phi**G (h_T - mu), sigma2 (1 - phi**(2G)) / (1 - phi**2)).
    """
    mu, phi, sigma2, h_last = (np.asarray(x, dtype=float) for x in (mu, phi, sigma2, h_last))
    coef = phi**horizon_gap
    mean = mu + coef * (h_last - mu)
    var = sigma2 * (1.0 - coef * coef) / (1.0 - phi * phi)
    return mean, var


def forecast_moments(mean, var, n_samples: int) -> dict[str, tuple[float, float]]:
    """Expected value and Monte Carlo SE of each forecast column.

    The forecast averages ``n_samples`` draws spread evenly over the
    posterior draws, one Gaussian h per sample with the given per-draw
    mean and variance.  Values are (expectation, standard error) for the
    averages of h, exp(h) and exp(h / 2).
    """
    mean = np.asarray(mean, dtype=float)
    var = np.asarray(var, dtype=float)
    out = {"h_mean": (float(mean.mean()), math.sqrt(float(var.mean()) / n_samples))}
    for name, k in (("r2_forecast", 1.0), ("vol_forecast", 0.5)):
        first = np.exp(k * mean + 0.5 * k * k * var)
        second = np.exp(2.0 * k * mean + 2.0 * k * k * var)
        # spread of single samples around their own draw's expectation
        within = float(np.mean(second - first * first))
        out[name] = (float(first.mean()), math.sqrt(within / n_samples))
    return out


def lognormal_average_allowance(mean, var, power: float, per_draw: int,
                                tail: float) -> tuple[float, float]:
    """How far the average of exp(power * h) may fall below / rise above its mean.

    The average is over ``per_draw`` independent samples for each draw,
    with h ~ N(mean[d], var[d]) in draw d.  Returns (below, above): the
    average falls more than ``below`` under its expectation, or rises more
    than ``above`` over it, each with probability at most ``tail``.

    Both are rigorous tail bounds, not Gaussian z-scores, because the
    average of a lognormal mixture can be far from Gaussian: a draw with a
    large variance puts a heavy right tail on it.  Each sample Y is cut
    at a level c, Z = min(Y, c), and Bennett's inequality bounds the sum
    of the Zs: Z - E[Z] <= c above the mean, where P(some Y > c) is
    added, and Z - E[Z] >= -max E[Z] below it, where Z <= Y is enough.
    The cut-off is chosen on a grid, per side, to give the smallest
    allowance.
    """
    m = np.asarray(mean, dtype=float)[None, :]
    v = np.asarray(var, dtype=float)[None, :]
    sd = np.sqrt(v)
    a = float(power)
    n = per_draw * m.size
    first = np.exp(a * m + 0.5 * a * a * v)
    second = np.exp(2.0 * a * m + 2.0 * a * a * v)
    # cut-offs as h levels, from the lowest draw mean to far in the top tail
    levels = np.linspace(m.min(), (m + 12.0 * sd).max(), 600)[:, None]
    c = np.exp(a * levels)
    z = (levels - m) / sd
    above_c = ndtr(-z)
    ez = first * ndtr(z - a * sd) + c * above_c
    ez2 = second * ndtr(z - 2.0 * a * sd) + c * c * above_c
    spill = per_draw * np.clip(first - ez, 0.0, None).sum(axis=1)  # sum of E[(Y - c)+]
    var_z = per_draw * np.clip(ez2 - ez * ez, 0.0, None).sum(axis=1)
    beyond = per_draw * above_c.sum(axis=1)
    c = c[:, 0]

    below = (bennett(var_z, ez.max(axis=1), math.log(1.0 / tail)) + spill) / n
    room = tail - beyond
    ok = room > 0.0
    above = (bennett(var_z, c, np.log(1.0 / np.where(ok, room, tail))) - spill) / n
    return float(below.min()), float(np.where(ok, above, np.inf).min())


def bennett(var_sum, bound, log_inv):
    """Smallest s with P(sum X >= s) <= exp(-log_inv) by Bennett's inequality.

    For independent centred X_i <= ``bound`` whose variances sum to
    ``var_sum``, P(sum X >= s) <= exp(-(V / b^2) g(b s / V)) with
    g(u) = (1 + u) log(1 + u) - u.  Solved by Newton's method from
    Bernstein's (larger) solution; g is convex, so the iterates fall
    monotonically to the root.
    """
    var_sum, bound, log_inv = np.broadcast_arrays(*(np.asarray(x, dtype=float)
                                                    for x in (var_sum, bound, log_inv)))
    var_sum = np.maximum(var_sum, 1e-300)
    lin = bound * log_inv / 3.0
    u = bound * (lin + np.sqrt(lin * lin + 2.0 * log_inv * var_sum)) / var_sum
    target = log_inv * bound * bound / var_sum
    for _ in range(60):
        u = u - ((1.0 + u) * np.log1p(u) - u - target) / np.log1p(u)
    return u * var_sum / bound


def mae_table(forecast_rows, realized: dict[str, list[float]]):
    """MAE per (model, target, horizon) from forecast rows and holdout returns.

    ``forecast_rows`` are dicts with model, asset, horizon and the three
    forecast columns; ``realized[asset][k - 1]`` is the return k steps
    into the holdout.  Returns {(model, target, horizon): mae}.
    """
    errors: dict[tuple, list[float]] = {}
    columns = {"r2": "r2_forecast", "absr": "absr_forecast", "vol": "vol_forecast"}
    for row in forecast_rows:
        r = realized[row["asset"]][int(row["horizon"]) - 1]
        for target, column in columns.items():
            truth = r * r if target == "r2" else abs(r)
            key = (row["model"], target, int(row["horizon"]))
            errors.setdefault(key, []).append(abs(float(row[column]) - truth))
    return {key: math.fsum(vals) / len(vals) for key, vals in errors.items()}


# --------------------------------------------------------------------------
# chain summaries
# --------------------------------------------------------------------------

def quantile7(values, prob: float) -> float:
    """Type-7 (linear interpolation) sample quantile."""
    xs = sorted(float(v) for v in values)
    pos = (len(xs) - 1) * prob
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (pos - lo) * (xs[hi] - xs[lo])


def column_summary(values) -> dict[str, float]:
    """Mean, sample sd and the 2.5% and 97.5% quantiles of one column."""
    xs = [float(v) for v in values]
    n = len(xs)
    mean = math.fsum(xs) / n
    sd = math.sqrt(math.fsum((x - mean) ** 2 for x in xs) / (n - 1)) if n > 1 else 0.0
    return {"mean": mean, "sd": sd, "q2.5": quantile7(xs, 0.025),
            "q97.5": quantile7(xs, 0.975)}


def geyer_ess(values) -> float:
    """Effective sample size by Geyer's initial monotone sequence estimator.

    Autocorrelations come from a zero-padded FFT; pairs
    Gamma_m = rho_2m + rho_2m+1 are kept while positive and made
    non-increasing, and tau = 2 sum Gamma_m - 1.
    """
    x = np.asarray(values, dtype=float)
    n = x.size
    x = x - x.mean()
    if n < 4 or not np.any(x):
        return float(n)
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, size)
    acov = np.fft.irfft(f * f.conjugate(), size)[:n]
    rho = acov / acov[0]
    pairs = rho[: 2 * (n // 2)].reshape(-1, 2).sum(axis=1)
    nonpositive = np.flatnonzero(pairs <= 0.0)
    if nonpositive.size:
        pairs = pairs[: nonpositive[0]]
    if pairs.size == 0:
        return float(n)
    tau = 2.0 * float(np.sum(np.minimum.accumulate(pairs))) - 1.0
    return float(n / max(tau, 1.0))
