"""The three workloads: inputs made from the workload seed, stages, checks.

A workload builds its input files once per set-up from the seed, then
each round runs its stages in order as separate ``irvol`` processes.
Every seed the program receives is drawn from the workload seed, and the
program sees only the files written here.

* ``sv-gaps``: univariate gap-time SV at phi = 0.9 on zero-truncated
  Poisson gaps; fit -> forecast -> compare.
* ``msv-ticks``: a three-asset multivariate SV path carried by a shuffled
  ISO-8601 tick file; refresh -> fit (irmsv) -> forecast -> compare.
* ``garch-ml``: gap-time GARCH; simulate -> fit irgarch -> fit irarch.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks as ck
import oracles

HOLDOUT = 44
HORIZONS = "1,5,10,22,44"
DRAWS_PER_SAMPLE = 20

SV_TRUTH = {"mu": -9.0, "phi": 0.9, "sigma_eta": 0.8}
SV_LENGTH = 1000 + HOLDOUT
SV_MCMC = {"iters": 3000, "burnin": 1000, "thin": 10}

MSV_ASSETS = ["JNJ", "PFE", "MRK"]
MSV_TRUTH = {"mu": [-9.0, -8.6, -9.4], "phi": [0.9, 0.85, 0.92], "sigma2": [0.6, 0.7, 0.5],
             "corr": [[1.0, 0.5, 0.3], [0.5, 1.0, 0.4], [0.3, 0.4, 1.0]]}
MSV_LENGTH = 600 + HOLDOUT  # returns on the refresh grid
MSV_MCMC = {"iters": 2000, "burnin": 800, "thin": 6}
MSV_MAX_GAP_US = 40_000_000
MSV_EXTRA_TICKS = 25

GARCH_TRUTH = {"omega": 0.01, "alpha1": 0.3, "beta1": 0.6}
GARCH_LENGTH = 300
GARCH_REPLICATES = 80


@dataclass
class Stage:
    name: str
    args: list[str]


@dataclass
class Inputs:
    """Files and seeds one set-up produced, plus what the checks need."""

    directory: Path
    seeds: dict[str, int]
    truth: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)


def _program_seeds(seq: np.random.SeedSequence, names) -> dict[str, int]:
    state = seq.generate_state(len(names))
    return {name: int(s % 2**31) for name, s in zip(names, state)}


def _write_returns(path, timestamps, returns, assets) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["timestamp", "gap"] + [f"r_{a}" for a in assets])
        for j, t in enumerate(timestamps):
            gap = "" if j == 0 else repr(float(t - timestamps[j - 1]))
            writer.writerow([repr(float(t)), gap] + [repr(float(x)) for x in returns[:, j]])


class Workload:
    name = ""

    def build(self, seed: int, directory: Path) -> Inputs:
        raise NotImplementedError

    def stages(self, inputs: Inputs, out: Path) -> list[Stage]:
        raise NotImplementedError

    def check(self, stage: str, inputs: Inputs, out: Path, checks: ck.Checks) -> None:
        raise NotImplementedError

    def deterministic_outputs(self, out: Path) -> list[Path]:
        """Files a traced round must reproduce byte for byte."""
        raise NotImplementedError


class SvGaps(Workload):
    name = "sv-gaps"

    def build(self, seed, directory):
        s_data, s_prog = np.random.SeedSequence([seed, 1]).spawn(2)
        rng = np.random.default_rng(s_data)
        raw = oracles.truncated_poisson(SV_LENGTH - 1, 3.0, rng)
        n_fit = SV_LENGTH - HOLDOUT
        scale = float(raw[: n_fit - 1].max())
        h, r = oracles.simulate_sv(SV_TRUTH["mu"], SV_TRUTH["phi"], SV_TRUTH["sigma_eta"],
                                   raw / scale, rng)
        ts = np.concatenate(([0.0], np.cumsum(raw)))
        _write_returns(directory / "sv.csv", ts, r[None, :], ["s1"])
        truth = {"mu": [SV_TRUTH["mu"]], "phi": [SV_TRUTH["phi"]],
                 "sigma2": [SV_TRUTH["sigma_eta"] ** 2], "h": [h], "assets": ["s1"],
                 "corr": None}
        return Inputs(directory, _program_seeds(s_prog, ["fit", "forecast"]), truth)

    def stages(self, inputs, out):
        data = str(inputs.directory / "sv.csv")
        return _mcmc_stages("irsv", data, "sv", SV_MCMC, inputs.seeds, out)

    def check(self, stage, inputs, out, checks):
        _check_mcmc_stage(stage, inputs, out, checks, inputs.directory / "sv.csv", "sv")

    def deterministic_outputs(self, out):
        return [out / "fit" / "sv.chain.csv", out / "fit" / "sv.chain.csv.meta.json",
                out / "fit" / "sv.summary.csv", out / "forecast" / "forecast.csv",
                out / "compare" / "mae.csv"]


class MsvTicks(Workload):
    name = "msv-ticks"

    def build(self, seed, directory):
        s_data, s_prog = np.random.SeedSequence([seed, 2]).spawn(2)
        rng = np.random.default_rng(s_data)
        # distinct gaps in whole microseconds, within a factor 4 of each other
        # so the scaled gaps stay well inside (0, 1]: no gap repeats
        gaps_us = np.unique(rng.integers(MSV_MAX_GAP_US // 4, MSV_MAX_GAP_US, 2 * MSV_LENGTH))
        gaps_us = rng.permutation(gaps_us)[:MSV_LENGTH]
        grid_us = np.concatenate(([0], np.cumsum(gaps_us)))  # MSV_LENGTH + 1 prices
        ret_gaps = gaps_us[1:] / 1e6  # gaps between consecutive returns
        n_fit = MSV_LENGTH - HOLDOUT
        scale = float(ret_gaps[: n_fit - 1].max())
        h, r = oracles.simulate_msv(MSV_TRUTH["mu"], MSV_TRUTH["phi"], MSV_TRUTH["sigma2"],
                                    MSV_TRUTH["corr"], ret_gaps / scale, rng)
        start = 100.0 * np.exp(rng.uniform(-1.0, 1.0, len(MSV_ASSETS)))
        log_prices = np.log(start)[:, None] + np.concatenate(
            (np.zeros((len(MSV_ASSETS), 1)), np.cumsum(r, axis=1)), axis=1)
        ticks = oracles.tick_stream(MSV_ASSETS, grid_us, np.exp(log_prices),
                                    MSV_EXTRA_TICKS, rng)
        with open(directory / "ticks.csv", "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["asset", "timestamp", "price"])
            for asset, t, price in ticks:
                writer.writerow([asset, oracles.iso_timestamp(t), repr(price)])
        truth = dict(MSV_TRUTH, h=h, assets=MSV_ASSETS)
        return Inputs(directory, _program_seeds(s_prog, ["fit", "forecast"]), truth,
                      {"ticks": ticks})

    def stages(self, inputs, out):
        data = str(out / "refresh" / "returns.csv")
        refresh = Stage("refresh", ["refresh", "--ticks", str(inputs.directory / "ticks.csv"),
                                    "--raw", "--threads", "1", "--out", str(out / "refresh")])
        return [refresh] + _mcmc_stages("irmsv", data, "returns", MSV_MCMC, inputs.seeds, out)

    def check(self, stage, inputs, out, checks):
        data = out / "refresh" / "returns.csv"
        if stage == "refresh":
            ck.check_refresh(checks, inputs.extra["ticks"], data)
        else:
            _check_mcmc_stage(stage, inputs, out, checks, data, "returns")

    def deterministic_outputs(self, out):
        return [out / "refresh" / "returns.csv", out / "fit" / "returns.chain.csv",
                out / "fit" / "returns.chain.csv.meta.json", out / "fit" / "returns.summary.csv",
                out / "forecast" / "forecast.csv", out / "compare" / "mae.csv"]


def _mcmc_stages(model, data, stem, mcmc, seeds, out) -> list[Stage]:
    chain = str(out / "fit" / f"{stem}.chain.csv")
    forecast = str(out / "forecast" / "forecast.csv")
    return [
        Stage("fit", ["fit", "--model", model, "--data", data,
                      "--iters", str(mcmc["iters"]), "--burnin", str(mcmc["burnin"]),
                      "--thin", str(mcmc["thin"]), "--holdout", str(HOLDOUT),
                      "--seed", str(seeds["fit"]), "--threads", "1",
                      "--out", str(out / "fit")]),
        Stage("forecast", ["forecast", "--model", model, "--chain", chain, "--data", data,
                           "--holdout", str(HOLDOUT), "--horizons", HORIZONS,
                           "--draws-per-sample", str(DRAWS_PER_SAMPLE),
                           "--seed", str(seeds["forecast"]), "--threads", "1",
                           "--out", str(out / "forecast")]),
        Stage("compare", ["compare", "--forecasts", forecast, "--data", data,
                          "--holdout", str(HOLDOUT), "--threads", "1",
                          "--out", str(out / "compare")]),
    ]


def _check_mcmc_stage(stage, inputs, out, checks, data, stem) -> None:
    chain = out / "fit" / f"{stem}.chain.csv"
    forecast = out / "forecast" / "forecast.csv"
    if stage == "fit":
        ck.check_mcmc_fit(checks, out / "fit", stem, inputs.truth, data, HOLDOUT)
    elif stage == "forecast":
        ck.check_forecast(checks, chain, forecast, data, HOLDOUT, DRAWS_PER_SAMPLE)
    elif stage == "compare":
        ck.check_compare(checks, forecast, data, HOLDOUT, out / "compare" / "mae.csv")


class GarchMl(Workload):
    name = "garch-ml"

    def build(self, seed, directory):
        seq = np.random.SeedSequence([seed, 3])
        with open(directory / "garch.json", "w") as handle:
            json.dump(GARCH_TRUTH, handle)
        return Inputs(directory, _program_seeds(seq, ["simulate"]), dict(GARCH_TRUTH))

    def _data(self, out):
        return [out / "sim" / f"rep{k:03d}.csv" for k in range(GARCH_REPLICATES)]

    def stages(self, inputs, out):
        data = [str(p) for p in self._data(out)]
        return [
            Stage("simulate", ["simulate", "--model", "irgarch",
                               "--params", str(inputs.directory / "garch.json"),
                               "--length", str(GARCH_LENGTH),
                               "--replicates", str(GARCH_REPLICATES), "--gap-mean", "3",
                               "--seed", str(inputs.seeds["simulate"]), "--threads", "1",
                               "--out", str(out / "sim")]),
            Stage("fit-irgarch", ["fit", "--model", "irgarch", "--data", *data,
                                  "--threads", "1", "--out", str(out / "irgarch")]),
            Stage("fit-irarch", ["fit", "--model", "irarch", "--data", *data,
                                 "--threads", "1", "--out", str(out / "irarch")]),
        ]

    def check(self, stage, inputs, out, checks):
        data = self._data(out)
        if stage == "simulate":
            ck.check_simulated(checks, data, GARCH_LENGTH)
        elif stage == "fit-irgarch":
            ck.check_ml_fits(checks, data, out / "irgarch", "irgarch", inputs.truth)
        else:
            ck.check_ml_fits(checks, data, out / "irarch", "irarch", inputs.truth,
                             garch_dir=out / "irgarch")

    def deterministic_outputs(self, out):
        return (self._data(out) + sorted((out / "irgarch").glob("*.fit.json"))
                + sorted((out / "irarch").glob("*.fit.json")))


WORKLOADS = {w.name: w for w in (SvGaps(), MsvTicks(), GarchMl())}
