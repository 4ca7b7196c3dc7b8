"""Each output check passes a real output and rejects a perturbed copy of it.

The fixtures run one real round of each workload through the CLI, so
these tests take about half a minute.
"""

from __future__ import annotations

import csv
import json

import pytest

import checks as ck
import oracles
import workloads as wl


def failed_names(workload, stage, inputs, out) -> set[str]:
    checks = ck.Checks()
    workload.check(stage, inputs, out, checks)
    return {name for name, _, _ in checks.failures()}


def rewrite_csv(path, edit) -> None:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    edit(rows)
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerows(rows)


@pytest.mark.parametrize("name", ["sv-gaps", "msv-ticks", "garch-ml"])
def test_real_outputs_pass_every_check(copy_round, name):
    workload, inputs, out = copy_round(name)
    for stage in workload.stages(inputs, out):
        assert failed_names(workload, stage.name, inputs, out) == set()


def test_shifted_refresh_time_is_rejected(copy_round):
    workload, inputs, out = copy_round("msv-ticks")

    def shift(rows):
        rows[10][0] = repr(float(rows[10][0]) + 1e-3)

    rewrite_csv(out / "refresh" / "returns.csv", shift)
    assert "refresh.time_error_s" in failed_names(workload, "refresh", inputs, out)


def test_forecast_mean_moved_by_six_ses_is_rejected(copy_round):
    workload, inputs, out = copy_round("sv-gaps")
    names, draws = ck.read_chain_file(out / "fit" / "sv.chain.csv")
    col = {n: draws[:, k] for k, n in enumerate(names)}
    ts, gaps, _, _ = ck.read_returns_file(inputs.directory / "sv.csv")
    n_fit = len(ts) - wl.HOLDOUT
    horizon_gap = gaps[n_fit - 1] / max(gaps[: n_fit - 1])
    last = max(int(n[2:]) for n in names if n.startswith("h_"))
    mean, var = oracles.forecast_law(col["mu"], col["phi"], col["sigma_eta"] ** 2,
                                     col[f"h_{last}"], horizon_gap)
    expected, se = oracles.forecast_moments(mean, var,
                                            draws.shape[0] * wl.DRAWS_PER_SAMPLE)["h_mean"]

    def move(rows):
        row = next(r for r in rows[1:] if r[2] == "1")
        z = (float(row[3]) - expected) / se
        row[3] = repr(float(row[3]) + 6.0 * se * (1.0 if z >= 0 else -1.0))

    rewrite_csv(out / "forecast" / "forecast.csv", move)
    assert failed_names(workload, "forecast", inputs, out) == {"forecast.h_mean_z"}


@pytest.mark.parametrize("factor", [0.8, 1.4])
def test_r2_forecast_scaled_at_horizon_one_is_rejected(copy_round, factor):
    workload, inputs, out = copy_round("sv-gaps")

    def scale(rows):
        row = next(r for r in rows[1:] if r[2] == "1")
        row[6] = repr(float(row[6]) * factor)

    rewrite_csv(out / "forecast" / "forecast.csv", scale)
    side = "below" if factor < 1.0 else "above"
    assert failed_names(workload, "forecast", inputs, out) == {f"forecast.r2_forecast_{side}"}


def test_mae_off_by_one_part_in_1e9_is_rejected(copy_round):
    workload, inputs, out = copy_round("sv-gaps")

    def nudge(rows):
        rows[3][3] = repr(float(rows[3][3]) * (1.0 + 1e-9))

    rewrite_csv(out / "compare" / "mae.csv", nudge)
    assert failed_names(workload, "compare", inputs, out) == {"compare.mae_error"}


def test_unreproduced_loglik_is_rejected(copy_round):
    workload, inputs, out = copy_round("garch-ml")
    path = out / "irgarch" / "rep005.fit.json"
    fit = json.loads(path.read_text())
    fit["loglik"] = fit["loglik"] + 1e-8 * abs(fit["loglik"])
    path.write_text(json.dumps(fit))
    assert "irgarch.loglik_error" in failed_names(workload, "fit-irgarch", inputs, out)


def test_irarch_above_irgarch_is_observed(copy_round):
    # a known fit_ml fault breaks this on some seeds: reported, not failed
    workload, inputs, out = copy_round("garch-ml")
    path = out / "irgarch" / "rep002.fit.json"
    fit = json.loads(path.read_text())
    arch = json.loads((out / "irarch" / "rep002.fit.json").read_text())
    fit["loglik"] = arch["loglik"] - 1.0
    path.write_text(json.dumps(fit))
    checks = ck.Checks()
    workload.check("fit-irarch", inputs, out, checks)
    assert not checks.failures()
    assert ("irarch.series_above_irgarch", 1.0, 0.0) in checks.observations


def test_unconverged_fit_is_observed(copy_round):
    workload, inputs, out = copy_round("garch-ml")
    path = out / "irarch" / "rep000.fit.json"
    fit = json.loads(path.read_text())
    fit["converged"] = False
    path.write_text(json.dumps(fit))
    checks = ck.Checks()
    workload.check("fit-irarch", inputs, out, checks)
    assert not checks.failures()
    assert ("irarch.unconverged", 1.0, 0.0) in checks.observations


def test_non_positive_definite_correlation_draw_is_rejected(copy_round):
    workload, inputs, out = copy_round("msv-ticks")
    chain = out / "fit" / "returns.chain.csv"

    def break_draw(rows):
        header = rows[0]
        for name, value in (("rho_12", 0.9), ("rho_13", 0.9), ("rho_23", -0.9)):
            rows[5][header.index(name)] = repr(value)

    rewrite_csv(chain, break_draw)
    assert "fit.support" in failed_names(workload, "fit", inputs, out)


def test_summary_mean_disagreeing_with_chain_is_rejected(copy_round):
    workload, inputs, out = copy_round("sv-gaps")

    def shift(rows):
        row = next(r for r in rows if r[0] == "phi")
        row[1] = f"{float(row[1]) + 0.001:.4f}"

    rewrite_csv(out / "fit" / "sv.summary.csv", shift)
    assert failed_names(workload, "fit", inputs, out) == {"fit.summary_error"}


def test_simulated_gap_that_is_not_an_integer_is_rejected(copy_round):
    workload, inputs, out = copy_round("garch-ml")

    def fractional(rows):
        rows[4][1] = repr(float(rows[4][1]) + 0.5)
        rows[4][0] = repr(float(rows[4][0]) + 0.5)

    rewrite_csv(out / "sim" / "rep001.csv", fractional)
    assert "simulate.gaps" in failed_names(workload, "simulate", inputs, out)


def test_not_positive_definite_helper():
    assert ck.not_positive_definite(3, [0.9, 0.9, -0.9])
    assert not ck.not_positive_definite(3, [0.5, 0.3, 0.4])
