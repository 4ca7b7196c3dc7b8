"""The benchmark's reference computations against exact or hand-worked values."""

from __future__ import annotations

import math

import numpy as np
import pytest

import oracles


def test_ess_matches_ar1_autocorrelation_time():
    a, n = 0.8, 400_000
    rng = np.random.default_rng(11)
    e = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = e[0] / math.sqrt(1.0 - a * a)
    for t in range(1, n):
        x[t] = a * x[t - 1] + e[t]
    exact = n * (1.0 - a) / (1.0 + a)
    assert abs(oracles.geyer_ess(x) / exact - 1.0) < 0.05


def test_ess_of_white_noise_is_near_n():
    x = np.random.default_rng(12).standard_normal(50_000)
    assert abs(oracles.geyer_ess(x) / x.size - 1.0) < 0.05


def test_garch_loglik_three_steps_by_hand():
    # omega 1, alpha1 0.5, beta1 0.25; returns 1, 2, -1; gaps 1, 2
    # sigma2: 0.25 (start), 0.25 + 0.5 * 1 + 0.25 * 0.25 = 0.8125,
    #         0.6875 + 0.25 * 4 + 0.0625 * 0.8125 = 1.73828125
    s2, s3 = 0.8125, 1.73828125
    expected = -0.5 * (2 * math.log(2 * math.pi) + math.log(s2) + 4.0 / s2
                       + math.log(s3) + 1.0 / s3)
    got = oracles.garch_loglik(1.0, 0.5, 0.25, [1.0, 2.0, -1.0], [1.0, 2.0])
    assert math.isclose(got, expected, rel_tol=1e-15)


def test_arch_loglik_drops_the_beta_term():
    # beta1 = 0: sigma2 start 0.5, then 0.5 + 0.5 * 1 = 1.0 at a unit gap
    got = oracles.garch_loglik(1.0, 0.5, 0.0, [1.0, 3.0], [1.0])
    assert math.isclose(got, -0.5 * (math.log(2 * math.pi) + 0.0 + 9.0), rel_tol=1e-15)


def test_refresh_oracle_by_hand():
    # A trades at 1, 3, 4, 7; B at 2, 3, 6, 9.  Refresh times: 2 (both have
    # traded), 3 (both trade at 3), 6 (B's next), 9 (B's next); A has no
    # tick after 9, so sampling stops.
    ticks = [("A", t, 100.0 + t) for t in (7, 1, 4, 3)] + \
            [("B", t, 200.0 + t) for t in (9, 2, 6, 3)]
    times, prices = oracles.refresh_oracle(ticks)
    assert times == [2, 3, 6, 9]
    assert prices["A"] == [101.0, 103.0, 104.0, 107.0]
    assert prices["B"] == [202.0, 203.0, 206.0, 209.0]


def test_tick_stream_refreshes_on_its_grid():
    rng = np.random.default_rng(5)
    grid = np.cumsum(rng.integers(1_000, 5_000_000, 30))
    prices = np.exp(rng.standard_normal((3, grid.size)))
    ticks = oracles.tick_stream(["X", "Y", "Z"], grid, prices, 6.0, rng)
    assert len(ticks) > 3 * grid.size
    times, sampled = oracles.refresh_oracle(ticks)
    assert times == [int(t) for t in grid]
    assert sampled["Y"] == [float(p) for p in prices[1]]


def test_forecast_law_against_stepwise_simulation():
    rng = np.random.default_rng(3)
    mu, phi, sigma2, h_last = -9.0, 0.9, 0.64, -7.5
    gaps = np.array([0.3, 1.0, 0.1, 0.7, 0.5])
    n = 400_000
    x = np.full(n, h_last - mu)
    for g in gaps:
        a = phi**g
        x = a * x + math.sqrt(sigma2 * (1 - a * a) / (1 - phi * phi)) * rng.standard_normal(n)
    h = mu + x
    mean, var = oracles.forecast_law(mu, phi, sigma2, h_last, gaps.sum())
    assert abs(h.mean() - mean) < 5 * math.sqrt(var / n)
    assert abs(h.var() / var - 1.0) < 0.01
    moments = oracles.forecast_moments(np.array([mean]), np.array([var]), n)
    for key, values in (("h_mean", h), ("r2_forecast", np.exp(h)),
                        ("vol_forecast", np.exp(h / 2))):
        expected, se = moments[key]
        assert abs(values.mean() - expected) < 5 * se
        assert math.isclose(se, values.std() / math.sqrt(n), rel_tol=0.05)


def _replicate_averages(mean, var, power, per_draw, replicates, rng):
    """Averages of exp(power * h) as the forecast forms them, ``replicates`` times."""
    out = np.empty(replicates)
    m = np.repeat(mean, per_draw)
    s = np.repeat(np.sqrt(var), per_draw)
    for k in range(replicates):
        out[k] = np.exp(power * (m + s * rng.standard_normal(m.size))).mean()
    return out


@pytest.mark.parametrize("dominant_var", [None, 17.0])
def test_lognormal_average_allowance_holds_on_a_heavy_mixture(dominant_var):
    # draws like a 44-step forecast whose chain reaches phi near 1: a few
    # per-draw variances near 10 give the average a heavy right tail, and
    # one draw with a variance of 17 carries most of E[exp(h)]
    rng = np.random.default_rng(21)
    mean = rng.normal(-8.7, 0.5, 200)
    var = np.exp(rng.normal(1.1, 0.35, 200))
    if dominant_var is not None:
        var[0] = dominant_var
    tail = 0.01
    for power in (1.0, 0.5):
        expected = float(np.exp(power * mean + 0.5 * power**2 * var).mean())
        below, above = oracles.lognormal_average_allowance(mean, var, power, 20, tail)
        averages = _replicate_averages(mean, var, power, 20, 2000, rng)
        assert np.mean(averages < expected - below) <= tail
        assert np.mean(averages > expected + above) <= tail


def test_lognormal_average_allowance_is_near_gaussian_when_light():
    # small per-draw variances: the allowance is a few standard errors
    rng = np.random.default_rng(22)
    mean = rng.normal(-9.0, 0.3, 200)
    var = np.full(200, 0.1)
    tail = 5e-8
    se = oracles.forecast_moments(mean, var, 200 * 20)["vol_forecast"][1]
    below, above = oracles.lognormal_average_allowance(mean, var, 0.5, 20, tail)
    gaussian = math.sqrt(2.0 * math.log(1.0 / tail))
    assert gaussian * se <= below <= 1.2 * gaussian * se
    assert gaussian * se <= above <= 2.5 * gaussian * se


def test_mae_table_by_hand():
    rows = [{"model": "m", "asset": "a", "horizon": "1", "r2_forecast": "1.0",
             "absr_forecast": "0.5", "vol_forecast": "2.0"},
            {"model": "m", "asset": "b", "horizon": "1", "r2_forecast": "3.0",
             "absr_forecast": "1.0", "vol_forecast": "1.0"}]
    table = oracles.mae_table(rows, {"a": [2.0], "b": [-1.0]})
    assert table[("m", "r2", 1)] == (3.0 + 2.0) / 2
    assert table[("m", "absr", 1)] == (1.5 + 0.0) / 2
    assert table[("m", "vol", 1)] == (0.0 + 0.0) / 2


def test_column_summary_quantiles_are_type_7():
    values = [4.0, 1.0, 3.0, 2.0]
    summary = oracles.column_summary(values)
    assert summary["mean"] == 2.5
    assert math.isclose(summary["sd"], np.std(values, ddof=1), rel_tol=1e-15)
    assert math.isclose(summary["q2.5"], 1.0 + 0.075, rel_tol=1e-15)
    assert math.isclose(summary["q97.5"], 3.0 + 0.925, rel_tol=1e-15)


def test_simulators_keep_the_stationary_law():
    rng = np.random.default_rng(8)
    gaps = rng.uniform(0.1, 1.0, 200_000)
    h, r = oracles.simulate_sv(-9.0, 0.9, 0.8, gaps, rng)
    assert abs(h.mean() + 9.0) < 0.1
    assert abs(h.var() / (0.64 / 0.19) - 1.0) < 0.05
    corr = [[1.0, 0.5], [0.5, 1.0]]
    h2, r2 = oracles.simulate_msv([-9.0, -8.0], [0.9, 0.5], [0.3, 0.4], corr, gaps, rng)
    eps = r2 * np.exp(-h2 / 2)
    assert abs(np.corrcoef(eps)[0, 1] - 0.5) < 0.01
    assert abs(h2[1].var() / (0.4 / 0.75) - 1.0) < 0.05


def test_truncated_poisson_has_no_zeros():
    draws = oracles.truncated_poisson(10_000, 3.0, np.random.default_rng(1))
    assert draws.min() >= 1
    # E[X | X > 0] = mean / (1 - exp(-mean))
    assert abs(draws.mean() - 3.0 / (1 - math.exp(-3.0))) < 0.05
