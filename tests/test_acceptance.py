"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Stochastic checks run under fixed seeds chosen up front, so every run is
deterministic.  Tolerances are the stated ones; nothing is recalibrated
at test time.
"""

import json
import math
import time

import numpy as np
import pytest
from reference_densities import lkj_log_density
from reference_oracles import batch_se, brute_force_refresh

from irvol import moments
from irvol.cli import main as cli_main
from irvol.core import draw_positive_poisson, generate_gaps
from irvol.irgarch import IrGarchParams, fit_ml, simulate_irgarch
from irvol.irmsv import CorrelationMatrix, IrMsvParams, simulate_irmsv
from irvol.irsv import IrSvParams, simulate_irsv
from irvol.mcmc.chain import McmcConfig, effective_sample_size
from irvol.mcmc.fit import fit_irmsv, fit_irsv
from irvol.mcmc.priors import beta_logpdf, variance_logprior
from irvol.mcmc.samplers import AdaptiveScale, adaptive_rwm_scalar, correlation_block_step
from irvol.refresh import refresh_times


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")


def mc_se(chain_values):
    vals = np.asarray(chain_values)
    return float(vals.std(ddof=1) / math.sqrt(effective_sample_size(vals)))


# --------------------------------------------------------------------------
# criterion 1: Monte Carlo vs closed-form moments, 1e6 observations per set
# --------------------------------------------------------------------------

@pytest.mark.parametrize("scenario,phi", [(1, 0.2), (2, 0.6), (3, 0.9)])
def test_criterion_1_moment_oracles(scenario, phi):
    started = time.time()
    n = 1_000_000
    params = IrSvParams(-9.0, phi, 0.8)
    # alternating gaps 0.4/0.6: indices j and j+2 are exactly gap-time 1
    # apart and j and j+4 exactly 2 apart, so Eq.-(10)-style lags are exact
    pattern = np.tile([0.4, 0.6], (n + 4) // 2 + 1)[: n + 3]
    gaps = pattern
    seed = np.random.SeedSequence(42).spawn(3)[scenario - 1]
    _, r = simulate_irsv(params, gaps, n + 4, seed=seed)
    r2_full = r * r
    r2 = r2_full[:n]

    failures = []

    err = abs(r2.mean() - moments.irsv_mean_sq(params))
    tol = 3.0 * batch_se(r2, n_batches=100)
    if not err < tol:
        failures.append(f"E[r^2] off by {err:.3g} (tol {tol:.3g})")

    b_var = r2.reshape(100, -1).var(axis=1, ddof=1)
    err = abs(r2.var(ddof=1) - moments.irsv_var_sq(params))
    tol = 3.0 * float(b_var.std(ddof=1) / 10.0)
    if not err < tol:
        failures.append(f"Var[r^2] off by {err:.3g} (tol {tol:.3g})")

    # log r^2 = h + log eps^2 with h ~ N(mu, s2) independent of eps, and
    # Var(log eps^2) = psi'(1/2) = pi^2/2, so 3*exp(Var(log r^2) - pi^2/2)
    # = 3*exp(s2), the kurtosis the oracle claims.  mean(r^4)/mean(r^2)^2
    # is not used: it averages exp(2h), a lognormal with log-variance 13.5
    # at phi = 0.9, and misses 10% at 1e6 draws on most seeds.
    kurt_hat = 3.0 * math.exp(float(np.log(r2).var(ddof=1)) - math.pi**2 / 2.0)
    kurt_true = moments.irsv_kurtosis(params)
    rel = abs(kurt_hat - kurt_true) / kurt_true
    if not rel < 0.10:
        failures.append(f"kurtosis off by {rel:.1%} (tol 10%)")

    for lag, offset in ((1.0, 2), (2.0, 4)):
        lead = r2_full[offset: offset + n]
        prod = (r2 - r2.mean()) * (lead - lead.mean())
        err = abs(prod.mean() - moments.irsv_autocov_sq(params, lag))
        tol = 3.0 * batch_se(prod, n_batches=100)
        if not err < tol:
            failures.append(f"autocov(l={lag:g}) off by {err:.3g} (tol {tol:.3g})")

    elapsed = time.time() - started
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.0f}s exceeds 1 min")
    report(f"1 (phi={phi})", not failures,
           f"moment oracles at 1e6 obs, {elapsed:.0f}s"
           + ("" if not failures else "; " + "; ".join(failures)))
    assert not failures, "; ".join(failures)


# --------------------------------------------------------------------------
# criterion 2: univariate posterior recovery at desk scale
# --------------------------------------------------------------------------

@pytest.mark.parametrize("seed_base,phi", [(1000, 0.2), (2000, 0.6), (2000, 0.9)])
def test_criterion_2_irsv_posterior_recovery(seed_base, phi):
    started = time.time()
    truth = {"mu": -9.0, "phi": phi, "sigma_eta": 0.8}
    params = IrSvParams(**truth)
    hits = {name: 0 for name in truth}
    for rep in range(5):
        s_gaps, s_sim, s_fit = np.random.SeedSequence(seed_base + rep).spawn(3)
        gaps = generate_gaps(1999, 3.0, seed=s_gaps)
        _, r = simulate_irsv(params, gaps, 2000, seed=s_sim)
        config = McmcConfig(n_iterations=20_000, burn_in=5_000, thin=10,
                            rng_seed=int(s_fit.generate_state(1)[0] % 2**31))
        _, summary = fit_irsv(r, gaps, config=config)
        for name, value in truth.items():
            stats = summary[name]
            hits[name] += stats.quantiles[0.025] <= value <= stats.quantiles[0.975]
    elapsed = time.time() - started
    ok = all(count >= 4 for count in hits.values()) and elapsed < 600.0
    report(f"2 (phi={phi})", ok,
           f"95% CI coverage over 5 replicates: {hits}, {elapsed:.0f}s")
    assert all(count >= 4 for count in hits.values()), hits
    assert elapsed < 600.0


# --------------------------------------------------------------------------
# criterion 3: multivariate posterior recovery, Table-6-style scenario
# --------------------------------------------------------------------------

def test_criterion_3_irmsv_posterior_recovery():
    started = time.time()
    rho_truth = {"rho_12": 0.6, "rho_13": 0.4, "rho_23": 0.2}
    corr = CorrelationMatrix([
        [1.0, 0.6, 0.4],
        [0.6, 1.0, 0.2],
        [0.4, 0.2, 1.0],
    ])
    params = IrMsvParams(mu=[-9.0, -9.5, -8.5], phi=[0.7, 0.5, 0.3],
                         sigma=[1.0, math.sqrt(0.8), math.sqrt(0.5)],
                         correlation=corr)
    all_in_ci = 0
    max_mean_err = 0.0
    for rep in range(3):
        s_gaps, s_sim, s_fit = np.random.SeedSequence(500 + rep).spawn(3)
        gaps = generate_gaps(1499, 3.0, seed=s_gaps)
        _, r = simulate_irmsv(params, gaps, 1500, seed=s_sim)
        config = McmcConfig(n_iterations=15_000, burn_in=5_000, thin=10,
                            rng_seed=int(s_fit.generate_state(1)[0] % 2**31))
        _, summary = fit_irmsv(r, gaps, config=config)
        contained = 0
        for name, value in rho_truth.items():
            stats = summary[name]
            contained += stats.quantiles[0.025] <= value <= stats.quantiles[0.975]
            max_mean_err = max(max_mean_err, abs(stats.mean - value))
        all_in_ci += contained == 3
    elapsed = time.time() - started
    ok = all_in_ci >= 2 and max_mean_err <= 0.08 and elapsed < 1200.0
    report("3", ok, f"all-rho CI containment in {all_in_ci}/3 replicates, "
                    f"max |mean - truth| = {max_mean_err:.3f}, {elapsed:.0f}s")
    assert all_in_ci >= 2
    assert max_mean_err <= 0.08
    assert elapsed < 1200.0


# --------------------------------------------------------------------------
# criterion 4: multivariate squared-return covariance vs the closed form
# --------------------------------------------------------------------------

def test_criterion_4_irmsv_squared_covariance():
    n = 1_000_000
    corr = CorrelationMatrix([
        [1.0, 0.6, 0.4],
        [0.6, 1.0, 0.2],
        [0.4, 0.2, 1.0],
    ])
    params = IrMsvParams(mu=[-9.0, -9.5, -8.5], phi=[0.7, 0.5, 0.3],
                         sigma=[1.0, math.sqrt(0.8), math.sqrt(0.5)],
                         correlation=corr)
    s_gaps, s_sim = np.random.SeedSequence(640).spawn(2)
    gaps = generate_gaps(n - 1, 3.0, seed=s_gaps)
    _, r = simulate_irmsv(params, gaps, n, seed=s_sim)
    r2 = r * r
    expected = moments.irmsv_cov_sq_matrix(params)
    mean_vec = moments.irmsv_mean_sq_vector(params)
    failures = []
    for i in range(3):
        err = abs(r2[i].mean() - mean_vec[i])
        tol = 3.0 * batch_se(r2[i], n_batches=100)
        if not err < tol:
            failures.append(f"mean r2_{i + 1} off by {err:.3g} (tol {tol:.3g})")
        for k in range(i + 1, 3):
            prod = (r2[i] - r2[i].mean()) * (r2[k] - r2[k].mean())
            err = abs(prod.mean() - expected[i, k])
            tol = 3.0 * batch_se(prod, n_batches=100)
            if not err < tol:
                failures.append(f"cov({i + 1},{k + 1}) off by {err:.3g} (tol {tol:.3g})")
    report("4", not failures,
           "squared-return covariance matches 2*rho^2*m_i*m_k at 1e6 draws"
           + ("" if not failures else "; " + "; ".join(failures)))
    assert not failures, "; ".join(failures)


# --------------------------------------------------------------------------
# criterion 5: conditional-ML recovery for the gap-time GARCH model
# --------------------------------------------------------------------------

@pytest.mark.parametrize("alpha,beta", [(0.7, 0.25), (0.9, 0.05)])
def test_criterion_5_irgarch_ml_recovery(alpha, beta):
    started = time.time()
    truth = IrGarchParams(0.01, alpha, beta)
    estimates = []
    for rep in range(10):
        s_gaps, s_sim = np.random.SeedSequence(3000 + rep).spawn(2)
        gaps = draw_positive_poisson(4999, 3.0, seed=s_gaps)
        _, r = simulate_irgarch(truth, gaps, 5000, seed=s_sim)
        fit = fit_ml([(r, gaps)])[0]
        estimates.append([fit.params.omega, fit.params.alpha1, fit.params.beta1])
    mean_est = np.array(estimates).mean(axis=0)
    errors = np.abs(mean_est - [truth.omega, truth.alpha1, truth.beta1])
    elapsed = time.time() - started
    ok = errors[0] < 0.005 and errors[1] < 0.06 and errors[2] < 0.09 and elapsed < 120.0
    report(f"5 (alpha={alpha})", ok,
           f"mean-estimate errors omega {errors[0]:.4f} (<0.005), "
           f"alpha {errors[1]:.4f} (<0.06), beta {errors[2]:.4f} (<0.09), {elapsed:.0f}s")
    assert errors[0] < 0.005 and errors[1] < 0.06 and errors[2] < 0.09
    assert elapsed < 120.0


# --------------------------------------------------------------------------
# criterion 6: unconditional variance law Var(r) = omega at T = 1e6
# --------------------------------------------------------------------------

def test_criterion_6_unconditional_variance_law():
    params = IrGarchParams(0.01, 0.7, 0.25)
    gaps = draw_positive_poisson(999_999, 3.0, seed=9)
    _, r = simulate_irgarch(params, gaps, 1_000_000, seed=10)
    rel_err = abs(float(np.var(r)) - params.omega) / params.omega
    ok = rel_err < 0.01
    report("6", ok, f"sample variance within {rel_err:.2%} of omega (tol 1%)")
    assert ok


# --------------------------------------------------------------------------
# criterion 7: refresh-time recursion vs an independent brute force
# --------------------------------------------------------------------------

def test_criterion_7_refresh_oracle():
    np.testing.assert_allclose(refresh_times([[1, 3, 5], [2, 3, 6]]), [2, 3, 6])
    rng = np.random.default_rng(7000)
    for _ in range(200):
        p = int(rng.integers(2, 5))
        times = []
        for _ in range(p):
            n_ticks = int(rng.integers(1, 21))
            times.append(np.unique(rng.integers(0, 50, size=n_ticks).astype(float)))
        expected = brute_force_refresh([t.tolist() for t in times])
        np.testing.assert_array_equal(refresh_times(times), expected)
    report("7", True, "hand-derived example and 200 random instances match brute force")


# --------------------------------------------------------------------------
# criterion 8: likelihood-disabled MCMC reproduces the priors
# --------------------------------------------------------------------------

def _prior_chain(target, x0, n, seed, scale0):
    rng = np.random.default_rng(seed)
    scale = AdaptiveScale(scale0, 0.44)
    x = x0
    out = np.empty(n)
    for i in range(n):
        if i == n // 10:
            scale.freeze()
        x = adaptive_rwm_scalar(x, target, scale, rng).value
        out[i] = x
    return out[n // 10:]


def test_criterion_8_prior_sampling():
    n = 100_000
    failures = []

    # Beta(20, 1.5) on (phi + 1) / 2
    w = _prior_chain(lambda v: beta_logpdf(v, 20.0, 1.5), 0.9, n, seed=801, scale0=0.1)
    mean_true = 20.0 / 21.5
    m2_true = mean_true**2 + 20.0 * 1.5 / (21.5**2 * 22.5)
    if not abs(w.mean() - mean_true) < 3.0 * mc_se(w):
        failures.append("Beta mean")
    if not abs((w * w).mean() - m2_true) < 3.0 * mc_se(w * w):
        failures.append("Beta second moment")

    # Gamma(2.5, rate 0.025) on the precision, sampled on the log-variance scale
    def u_target(u):
        if u > 700.0:
            return -math.inf
        return variance_logprior(math.exp(u), 2.5, 0.025) + u

    u = _prior_chain(u_target, 0.0, n, seed=802, scale0=0.8)
    lam = np.exp(-u)
    if not abs(lam.mean() - 100.0) < 3.0 * mc_se(lam):
        failures.append("Gamma mean")
    if not abs((lam * lam).mean() - 14_000.0) < 3.0 * mc_se(lam * lam):
        failures.append("Gamma second moment")

    # LKJ(1.2) for p = 2: rho has density prop. to (1 - rho^2)^(eta - 1);
    # the moment oracle is brute-force quadrature of that density
    eta = 1.2
    grid = np.linspace(-1 + 1e-9, 1 - 1e-9, 400_001)
    dens = (1.0 - grid**2) ** (eta - 1.0)
    m2_rho = float(np.trapezoid(grid**2 * dens, grid) / np.trapezoid(dens, grid))
    rng = np.random.default_rng(803)
    scale = AdaptiveScale(0.5, 0.234)
    corr = np.eye(2)
    rhos = np.empty(n)
    for i in range(n):
        if i == n // 10:
            scale.freeze()
        corr = correlation_block_step(corr, scale, rng,
                                      lambda R, chol: lkj_log_density(R, eta)).value
        rhos[i] = corr[1, 0]
    rhos = rhos[n // 10:]
    if not abs(rhos.mean()) < 3.0 * mc_se(rhos):
        failures.append("LKJ rho mean")
    if not abs((rhos * rhos).mean() - m2_rho) < 3.0 * mc_se(rhos * rhos):
        failures.append("LKJ rho second moment")

    report("8", not failures,
           "prior-only chains match Beta/Gamma/LKJ moments at 1e5 draws"
           + ("" if not failures else "; off: " + ", ".join(failures)))
    assert not failures, failures


# --------------------------------------------------------------------------
# criterion 9: unit-gap collapse against an independent regular-SV code path
# --------------------------------------------------------------------------

def _reference_regular_sv_fit(r, n_iter, burn_in, thin, seed):
    """Independent single-site MH sampler for the unit-gap SV model.

    Sequential site loop, direct textbook formulas, and its own crude
    adaptation scheme; shares no code with the library sampler.
    """
    rng = np.random.default_rng(seed)
    size = r.size
    r2 = r * r
    mu = float(np.log(np.mean(r2) + 1e-300))
    phi, sigma2 = 0.5, 1.0
    h = np.log(r2 + 1e-12)
    s_h, s_mu, s_w, s_u = 1.0, 0.2, 0.05, 0.3
    log_2pi = math.log(2 * math.pi)
    beta_norm = math.lgamma(21.5) - math.lgamma(20.0) - math.lgamma(1.5)

    def beta_lp(w):
        if not (0.0 < w < 1.0):
            return -math.inf
        return beta_norm + 19.0 * math.log(w) + 0.5 * math.log(1.0 - w)

    def trans_lp(m, ph, s2v):
        v1 = s2v / (1.0 - ph * ph)
        out = -0.5 * (log_2pi + math.log(v1) + (h[0] - m) ** 2 / v1)
        resid = h[1:] - m - ph * (h[:-1] - m)
        return out - 0.5 * float(np.sum(log_2pi + math.log(s2v) + resid * resid / s2v))

    keep = {"mu": [], "phi": [], "sigma_eta": []}
    counters = [0.0, 0, 0, 0]
    for it in range(1, n_iter + 1):
        accepted_h = 0
        for j in range(size):
            prop = h[j] + s_h * rng.standard_normal()
            delta = -0.5 * ((prop - h[j]) + r2[j] * (math.exp(-prop) - math.exp(-h[j])))
            if j == 0:
                v = sigma2 / (1.0 - phi * phi)
                delta += -((prop - mu) ** 2 - (h[0] - mu) ** 2) / (2.0 * v)
            else:
                m_in = mu + phi * (h[j - 1] - mu)
                delta += -((prop - m_in) ** 2 - (h[j] - m_in) ** 2) / (2.0 * sigma2)
            if j < size - 1:
                m_new = mu + phi * (prop - mu)
                m_old = mu + phi * (h[j] - mu)
                delta += -((h[j + 1] - m_new) ** 2 - (h[j + 1] - m_old) ** 2) / (2.0 * sigma2)
            if math.log(rng.uniform()) < delta:
                h[j] = prop
                accepted_h += 1

        prop = mu + s_mu * rng.standard_normal()
        delta = (-(prop**2) / 20.0 + trans_lp(prop, phi, sigma2)) \
            - (-(mu**2) / 20.0 + trans_lp(mu, phi, sigma2))
        acc_mu = math.log(rng.uniform()) < delta
        if acc_mu:
            mu = prop

        w = (phi + 1.0) / 2.0
        prop_w = w + s_w * rng.standard_normal()
        acc_w = False
        if 0.5 < prop_w < 1.0:  # phi restricted to (0, 1), as in the library
            delta = (beta_lp(prop_w) + trans_lp(mu, 2.0 * prop_w - 1.0, sigma2)) \
                - (beta_lp(w) + trans_lp(mu, phi, sigma2))
            acc_w = math.log(rng.uniform()) < delta
            if acc_w:
                phi = 2.0 * prop_w - 1.0

        u = math.log(sigma2)
        prop_u = u + s_u * rng.standard_normal()
        s2_prop = math.exp(prop_u)
        delta = (-3.5 * prop_u - 0.025 / s2_prop + prop_u + trans_lp(mu, phi, s2_prop)) \
            - (-3.5 * u - 0.025 / sigma2 + u + trans_lp(mu, phi, sigma2))
        acc_u = math.log(rng.uniform()) < delta
        if acc_u:
            sigma2 = s2_prop

        if it <= burn_in:
            counters[0] += accepted_h / size
            counters[1] += acc_mu
            counters[2] += acc_w
            counters[3] += acc_u
            if it % 200 == 0:
                rates = [c / 200.0 for c in counters]
                s_h *= math.exp(rates[0] - 0.44)
                s_mu *= math.exp(rates[1] - 0.44)
                s_w *= math.exp(rates[2] - 0.44)
                s_u *= math.exp(rates[3] - 0.44)
                counters = [0.0, 0, 0, 0]
        elif (it - burn_in) % thin == 0:
            keep["mu"].append(mu)
            keep["phi"].append(phi)
            keep["sigma_eta"].append(math.sqrt(sigma2))
    return {k: np.array(v) for k, v in keep.items()}


def test_criterion_9_unit_gap_collapse():
    size = 400
    params = IrSvParams(-9.0, 0.6, 0.8)
    gaps = np.ones(size - 1)
    h, r = simulate_irsv(params, gaps, size, seed=901)

    # bit-level simulation agreement under a shared seed
    rng = np.random.default_rng(901)
    z = rng.standard_normal(size)
    e = rng.standard_normal(size)
    h_ref = np.empty(size)
    x = math.sqrt(params.sigma_eta**2 / (1.0 - params.phi**2)) * z[0]
    h_ref[0] = params.mu + x
    for j in range(1, size):
        x = params.phi * x + params.sigma_eta * z[j]
        h_ref[j] = params.mu + x
    r_ref = np.exp(h_ref / 2.0) * e
    bit_ok = np.array_equal(h, h_ref) and np.array_equal(r, r_ref)

    # posterior agreement between the two independently coded samplers
    config = McmcConfig(n_iterations=16_000, burn_in=4_000, thin=6, rng_seed=902)
    chain, _ = fit_irsv(r, gaps, config=config)
    reference = _reference_regular_sv_fit(r, 16_000, 4_000, 6, seed=903)
    gaps_report = []
    fit_ok = True
    for name in ("mu", "phi", "sigma_eta"):
        mine = chain.column(name)
        ref = reference[name]
        combined = math.hypot(mc_se(mine), mc_se(ref))
        diff = abs(float(mine.mean()) - float(ref.mean()))
        gaps_report.append(f"{name} diff {diff:.4f} vs {2 * combined:.4f}")
        fit_ok &= diff < 2.0 * combined

    ok = bit_ok and fit_ok
    report("9", ok, ("bit-identical unit-gap simulation; " if bit_ok
                     else "simulation mismatch; ") + ", ".join(gaps_report))
    assert bit_ok
    assert fit_ok, gaps_report


# --------------------------------------------------------------------------
# criterion 10: CLI runs are bit-identical for a fixed seed at --threads 1
# --------------------------------------------------------------------------

def _manifest_stable(path):
    payload = json.loads(path.read_text())
    payload.pop("started_utc", None)
    payload.pop("elapsed_seconds", None)
    return payload


def test_criterion_10_cli_reproducibility(tmp_path, monkeypatch):
    # each run happens inside its own directory with identical relative
    # paths, so every output (manifests modulo timing included) must be
    # bit-identical for a fixed seed at --threads 1
    def run_all(base):
        base.mkdir()
        (base / "sv.json").write_text(
            json.dumps({"mu": -9.0, "phi": 0.2, "sigma_eta": 0.8}))
        (base / "garch.json").write_text(
            json.dumps({"omega": 0.01, "alpha1": 0.7, "beta1": 0.25}))
        (base / "ticks.csv").write_text(
            "asset,timestamp,price\n"
            "A,1.0,10.0\nA,3.0,11.0\nA,5.0,12.0\nA,7.0,12.5\n"
            "B,2.0,20.0\nB,3.0,21.0\nB,6.0,22.0\nB,7.5,23.0\n"
        )
        monkeypatch.chdir(base)
        assert cli_main(["simulate", "--model", "irsv", "--params", "sv.json",
                         "--length", "140", "--replicates", "2", "--seed", "17",
                         "--threads", "1", "--out", "sim"]) == 0
        assert cli_main(["simulate", "--model", "irgarch", "--params", "garch.json",
                         "--length", "200", "--seed", "18", "--threads", "1",
                         "--out", "gsim"]) == 0
        assert cli_main(["fit", "--model", "irsv", "--data", "sim/rep000.csv",
                         "--iters", "600", "--burnin", "100", "--thin", "5",
                         "--holdout", "20", "--seed", "19", "--threads", "1",
                         "--out", "fit"]) == 0
        assert cli_main(["fit", "--model", "irgarch", "--data", "gsim/rep000.csv",
                         "--seed", "20", "--threads", "1", "--out", "gfit"]) == 0
        assert cli_main(["refresh", "--ticks", "ticks.csv", "--out", "ref"]) == 0
        assert cli_main(["forecast", "--model", "irsv",
                         "--chain", "fit/rep000.chain.csv",
                         "--data", "sim/rep000.csv", "--holdout", "20",
                         "--horizons", "1,5,10", "--seed", "21",
                         "--out", "fc"]) == 0
        assert cli_main(["compare", "--forecasts", "fc/forecast.csv",
                         "--data", "sim/rep000.csv", "--holdout", "20",
                         "--out", "cmp"]) == 0
        return [
            "sim/rep000.csv", "sim/rep001.csv", "sim/manifest.json",
            "gsim/rep000.csv",
            "fit/rep000.chain.csv", "fit/rep000.chain.csv.meta.json",
            "fit/rep000.summary.csv", "fit/manifest.json",
            "gfit/rep000.fit.json",
            "ref/returns.csv", "ref/manifest.json",
            "fc/forecast.csv", "fc/manifest.json",
            "cmp/mae.csv", "cmp/manifest.json",
        ]

    labels = run_all(tmp_path / "run1")
    run_all(tmp_path / "run2")
    mismatches = []
    for label in labels:
        first = tmp_path / "run1" / label
        second = tmp_path / "run2" / label
        if label.endswith("manifest.json"):
            if _manifest_stable(first) != _manifest_stable(second):
                mismatches.append(label)
        elif first.read_bytes() != second.read_bytes():
            mismatches.append(label)
    report("10", not mismatches,
           "all subcommand outputs bit-identical across reruns"
           + ("" if not mismatches else "; mismatched: " + ", ".join(mismatches)))
    assert not mismatches, mismatches
