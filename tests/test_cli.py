import argparse
import ast
import importlib
import json
import os
import shutil
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

from irvol import cli
from irvol.cli import main
from irvol.dataio import read_returns


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def sv_params(tmp_path):
    return write_json(tmp_path / "sv.json",
                      {"mu": -9.0, "phi": 0.2, "sigma_eta": 0.8})


@pytest.fixture
def garch_params(tmp_path):
    return write_json(tmp_path / "garch.json",
                      {"omega": 0.01, "alpha1": 0.7, "beta1": 0.25})


def run(*argv):
    return main([str(a) for a in argv])


class TestSimulate:
    def test_writes_replicates_and_manifest(self, tmp_path, sv_params):
        out = tmp_path / "sim"
        assert run("simulate", "--model", "irsv", "--params", sv_params,
                   "--length", 50, "--replicates", 2, "--seed", 1,
                   "--out", out) == 0
        assert (out / "rep000.csv").exists() and (out / "rep001.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["outputs"]) == 2
        assert manifest["subcommand"] == "simulate"

    def test_same_seed_identical_files(self, tmp_path, sv_params):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run("simulate", "--model", "irsv", "--params", sv_params,
                       "--length", 40, "--replicates", 2, "--seed", 9,
                       "--out", out) == 0
        for name in ("rep000.csv", "rep001.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_invalid_phi_exits_2(self, tmp_path):
        bad = write_json(tmp_path / "bad.json",
                         {"mu": -9.0, "phi": 1.2, "sigma_eta": 0.8})
        code = run("simulate", "--model", "irsv", "--params", bad,
                   "--length", 50, "--out", tmp_path / "x")
        assert code == 2

    def test_multivariate_and_garch_models(self, tmp_path):
        msv = write_json(tmp_path / "msv.json", {
            "mu": [-9.0, -9.5], "phi": [0.7, 0.5], "sigma": [1.0, 0.9],
            "correlation": [[1.0, 0.6], [0.6, 1.0]],
        })
        out = tmp_path / "msv_out"
        assert run("simulate", "--model", "irmsv", "--params", msv,
                   "--length", 60, "--seed", 2, "--out", out) == 0
        _, _, r, assets = read_returns(out / "rep000.csv")
        assert r.shape == (2, 60) and assets == ["s1", "s2"]

        garch = write_json(tmp_path / "g.json", {"omega": 0.01, "alpha1": 0.7,
                                                 "beta1": 0.25})
        out2 = tmp_path / "g_out"
        assert run("simulate", "--model", "irgarch", "--params", garch,
                   "--length", 60, "--seed", 3, "--out", out2) == 0
        ts, gaps, _, _ = read_returns(out2 / "rep000.csv")
        assert np.all(gaps >= 1.0)  # observed-unit gap times, not rescaled

    def test_threads_do_not_change_output(self, tmp_path, sv_params):
        out1, out2 = tmp_path / "t1", tmp_path / "t4"
        for out, threads in ((out1, 1), (out2, 4)):
            assert run("simulate", "--model", "irsv", "--params", sv_params,
                       "--length", 30, "--replicates", 3, "--seed", 4,
                       "--threads", threads, "--out", out) == 0
        for k in range(3):
            name = f"rep{k:03d}.csv"
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def _returns_file(tmp_path, returns, name="data.csv"):
    """A returns file of a (p, T) matrix at gaps of 2."""
    rows = ["timestamp,gap," + ",".join(f"r_{i}" for i in range(len(returns)))]
    for j, column in enumerate(returns.T.tolist()):
        rows.append(",".join([repr(2.0 * j), "" if j == 0 else repr(2.0)] + [repr(x) for x in column]))
    data = tmp_path / name
    data.write_text("\n".join(rows) + "\n")
    return data


class TestFit:
    def test_irsv_fit_produces_chain_and_summary(self, tmp_path, sv_params):
        sim = tmp_path / "sim"
        run("simulate", "--model", "irsv", "--params", sv_params,
            "--length", 200, "--seed", 5, "--out", sim)
        out = tmp_path / "fit"
        assert run("fit", "--model", "irsv", "--data", sim / "rep000.csv",
                   "--iters", 600, "--burnin", 100, "--thin", 5,
                   "--seed", 6, "--out", out) == 0
        assert (out / "rep000.chain.csv").exists()
        assert (out / "rep000.summary.csv").exists()
        meta = json.loads((out / "rep000.chain.csv.meta.json").read_text())
        assert meta["model"] == "irsv"
        assert meta["gap_scale_factor"] > 0
        lines = (out / "rep000.summary.csv").read_text().splitlines()
        assert lines[0] == "parameter,mean,sd,q2.5,q97.5"

    def test_missing_data_file_exits_1(self, tmp_path):
        code = run("fit", "--model", "irsv", "--data", tmp_path / "absent.csv",
                   "--out", tmp_path / "o")
        assert code == 1

    def test_custom_priors_file(self, tmp_path, sv_params):
        sim = tmp_path / "sim"
        run("simulate", "--model", "irsv", "--params", sv_params,
            "--length", 120, "--seed", 30, "--out", sim)
        priors = write_json(tmp_path / "priors.json", {
            "phi_beta": [20, 1.5],
            "precision_gamma": [2.5, 0.025],
            "mu_normal": [0, 10],
        })
        out = tmp_path / "fit"
        assert run("fit", "--model", "irsv", "--data", sim / "rep000.csv",
                   "--priors", priors, "--iters", 300, "--burnin", 100,
                   "--thin", 2, "--seed", 31, "--out", out) == 0
        assert (out / "rep000.chain.csv").exists()

    def test_numerical_failure_exits_3(self, tmp_path, garch_params):
        # at g* = 1e-20 alpha1 = a**(1/g*) underflows for every share a, so
        # no search point is feasible
        data = tmp_path / "data.csv"
        rows = ["timestamp,gap,r_x", "0.0,,0.01"]
        rng = np.random.default_rng(32)
        for _ in range(99):
            rows.append(f"0.0,1e-20,{float(rng.normal(scale=0.1))!r}")
        data.write_text("\n".join(rows) + "\n")
        assert run("fit", "--model", "irgarch", "--data", data,
                   "--out", tmp_path / "o") == 3

    def test_multi_file_ml_fit_equals_one_file_fits(self, tmp_path, garch_params):
        sim = tmp_path / "gsim"
        assert run("simulate", "--model", "irgarch", "--params", garch_params,
                   "--length", 200, "--replicates", 2, "--seed", 9, "--out", sim) == 0
        data = [sim / "rep000.csv", sim / "rep001.csv"]
        assert run("fit", "--model", "irgarch", "--data", *data, "--out", tmp_path / "both") == 0
        for k, path in enumerate(data):
            assert run("fit", "--model", "irgarch", "--data", path,
                       "--out", tmp_path / f"one{k}") == 0
            name = f"rep00{k}.fit.json"
            assert (tmp_path / "both" / name).read_bytes() == (tmp_path / f"one{k}" / name).read_bytes()

    @pytest.mark.parametrize("model", ["irgarch", "irarch", "irsv", "irmsv"])
    def test_overflowing_return_exits_3(self, tmp_path, capsys, model):
        # r**2 overflows: rejected before any search or sweep starts, without warnings
        rng = np.random.default_rng(34)
        returns = 0.1 * rng.standard_normal((2 if model == "irmsv" else 1, 100))
        returns[-1, 50] = 1e200
        data = _returns_file(tmp_path, returns)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("fit", "--model", model, "--data", data, "--iters", 20, "--burnin", 10,
                       "--thin", 1, "--out", tmp_path / "o") == 3
        assert "the return in row 51 (1e+200) overflows when squared" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["irgarch", "irarch", "irsv", "irmsv"])
    @pytest.mark.parametrize("column,text", [(0, "nan"), (1, "nan"), (2, "nan"), (2, "-inf")])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, model, column, text):
        # a nan timestamp would defeat the gap check; every model stops in the reader
        rng = np.random.default_rng(35)
        data = _returns_file(tmp_path, 0.1 * rng.standard_normal((2 if model == "irmsv" else 1, 60)))
        lines = data.read_text().splitlines()
        fields = lines[30].split(",")
        fields[column] = text
        lines[30] = ",".join(fields)
        data.write_text("\n".join(lines) + "\n")
        assert run("fit", "--model", model, "--data", data, "--iters", 20, "--burnin", 10,
                   "--thin", 1, "--out", tmp_path / "o") == 2
        assert "line 31: number is not finite" in capsys.readouterr().err

    def test_irgarch_fit_writes_report(self, tmp_path, garch_params):
        sim = tmp_path / "gsim"
        run("simulate", "--model", "irgarch", "--params", garch_params,
            "--length", 900, "--seed", 7, "--out", sim)
        out = tmp_path / "gfit"
        assert run("fit", "--model", "irgarch", "--data", sim / "rep000.csv",
                   "--out", out) == 0
        report = json.loads((out / "rep000.fit.json").read_text())
        assert report["converged"] is True
        assert 0.0 < report["alpha1"] < 1.0
        assert report["grad_norm"] < 1e-4 and "loglik" in report

    def test_negative_holdout_exits_2(self, tmp_path, sv_params, garch_params):
        for model, params, length in (("irsv", sv_params, 80),
                                      ("irgarch", garch_params, 80)):
            sim = tmp_path / f"{model}_sim"
            assert run("simulate", "--model", model, "--params", params,
                       "--length", length, "--seed", 33, "--out", sim) == 0
            out = tmp_path / f"{model}_fit"
            assert run("fit", "--model", model, "--data", sim / "rep000.csv",
                       "--iters", 200, "--burnin", 100, "--thin", 1,
                       "--holdout", -20, "--out", out) == 2
            assert not list(out.glob("rep000.*"))

    def test_fit_reproducible_across_runs(self, tmp_path, sv_params):
        sim = tmp_path / "sim"
        run("simulate", "--model", "irsv", "--params", sv_params,
            "--length", 120, "--seed", 8, "--out", sim)
        outs = [tmp_path / "f1", tmp_path / "f2"]
        for out in outs:
            assert run("fit", "--model", "irsv", "--data", sim / "rep000.csv",
                       "--iters", 400, "--burnin", 100, "--thin", 3,
                       "--seed", 11, "--threads", 1, "--out", out) == 0
        assert ((outs[0] / "rep000.chain.csv").read_bytes()
                == (outs[1] / "rep000.chain.csv").read_bytes())


TICKS = (
    "asset,timestamp,price\n"
    "A,1.0,10.0\n"
    "A,3.0,11.0\n"
    "A,5.0,12.0\n"
    "B,2.0,20.0\n"
    "B,3.0,21.0\n"
    "B,6.0,22.0\n"
)


class TestRefresh:
    def test_three_asset_pipeline(self, tmp_path):
        ticks = tmp_path / "ticks.csv"
        ticks.write_text(TICKS)
        out = tmp_path / "ref"
        assert run("refresh", "--ticks", ticks, "--out", out) == 0
        ts, gaps, r, assets = read_returns(out / "returns.csv")
        # refresh times are [2, 3, 6]; returns start at the second one
        np.testing.assert_allclose(ts, [3.0, 6.0])
        np.testing.assert_allclose(r[0], np.diff(np.log([10.0, 11.0, 12.0])))
        np.testing.assert_allclose(r[1], np.diff(np.log([20.0, 21.0, 22.0])))
        assert assets == ["A", "B"]

    def test_single_asset_exits_2(self, tmp_path):
        ticks = tmp_path / "ticks.csv"
        ticks.write_text("asset,timestamp,price\nA,1.0,10.0\nA,2.0,11.0\n")
        assert run("refresh", "--ticks", ticks, "--out", tmp_path / "o") == 2

    @pytest.mark.parametrize("row", ["A,inf,11.0", "A,2.0,inf"])
    def test_non_finite_tick_names_file_and_line(self, tmp_path, capsys, row):
        ticks = tmp_path / "ticks.csv"
        ticks.write_text(TICKS.replace("A,3.0,11.0", row))
        assert run("refresh", "--ticks", ticks, "--out", tmp_path / "o") == 2
        assert f"{ticks}: line 3: number is not finite" in capsys.readouterr().err

    def test_duplicate_timestamps_collapsed(self, tmp_path):
        ticks = tmp_path / "ticks.csv"
        ticks.write_text(TICKS + "B,6.0,23.0\n")  # replaces the 22.0 tick
        out = tmp_path / "ref"
        assert run("refresh", "--ticks", ticks, "--out", out) == 0
        _, _, r, _ = read_returns(out / "returns.csv")
        np.testing.assert_allclose(r[1][-1], np.log(23.0 / 21.0))


class TestForecastAndCompare:
    @pytest.fixture
    def fitted(self, tmp_path, sv_params):
        sim = tmp_path / "sim"
        run("simulate", "--model", "irsv", "--params", sv_params,
            "--length", 160, "--seed", 12, "--out", sim)
        fit = tmp_path / "fit"
        run("fit", "--model", "irsv", "--data", sim / "rep000.csv",
            "--iters", 500, "--burnin", 100, "--thin", 4, "--holdout", 20,
            "--seed", 13, "--out", fit)
        return sim / "rep000.csv", fit / "rep000.chain.csv"

    def test_forecast_rows_and_determinism(self, tmp_path, fitted):
        data, chain = fitted
        outs = [tmp_path / "fc1", tmp_path / "fc2"]
        for out in outs:
            assert run("forecast", "--model", "irsv", "--chain", chain,
                       "--data", data, "--holdout", 20,
                       "--horizons", "1,5,10,15,20", "--seed", 14,
                       "--out", out) == 0
        lines = (outs[0] / "forecast.csv").read_text().splitlines()
        assert len(lines) == 6  # header + 5 horizons for one asset
        assert ((outs[0] / "forecast.csv").read_bytes()
                == (outs[1] / "forecast.csv").read_bytes())

    def test_draws_per_sample_and_seed_have_no_effect(self, tmp_path, fitted):
        data, chain = fitted
        common = ("forecast", "--model", "irsv", "--chain", chain, "--data", data,
                  "--holdout", 20, "--horizons", "1,5,10,15,20")
        assert run(*common, "--draws-per-sample", 20, "--seed", 5,
                   "--out", tmp_path / "flags") == 0
        assert run(*common, "--out", tmp_path / "plain") == 0
        assert ((tmp_path / "flags" / "forecast.csv").read_bytes()
                == (tmp_path / "plain" / "forecast.csv").read_bytes())
        manifest = json.loads((tmp_path / "flags" / "manifest.json").read_text())
        assert "seed" not in manifest["options"]
        assert "draws_per_sample" not in manifest["options"]
        assert "--draws-per-sample" not in manifest["argv_resolved"]

    def test_replay_of_manifest_with_draws_per_sample(self, tmp_path, fitted):
        data, chain = fitted
        argv = ["forecast", "--model", "irsv", "--chain", str(chain), "--data", str(data),
                "--holdout", "20", "--horizons", "1,5", "--draws-per-sample", "20",
                "--seed", "5", "--out", str(tmp_path / "recorded")]
        manifest = write_json(tmp_path / "manifest.json",
                              {"subcommand": "forecast", "argv_resolved": argv})
        assert run("replay", "--manifest", manifest, "--out", tmp_path / "replayed") == 0
        assert (tmp_path / "replayed" / "forecast.csv").exists()

    def test_empty_horizons_rejected(self, tmp_path, fitted):
        data, chain = fitted
        assert run("forecast", "--model", "irsv", "--chain", chain,
                   "--data", data, "--holdout", 20, "--horizons", " ",
                   "--out", tmp_path / "fc") == 2

    def test_horizon_beyond_holdout_rejected(self, tmp_path, fitted):
        data, chain = fitted
        assert run("forecast", "--model", "irsv", "--chain", chain,
                   "--data", data, "--holdout", 20, "--horizons", "44",
                   "--out", tmp_path / "fc") == 2

    def test_compare_identical_gives_zero_mae(self, tmp_path, fitted):
        data, chain = fitted
        ts, gaps, r, assets = read_returns(data)
        holdout = 20
        realized = r[0, -holdout:]
        fc = tmp_path / "forecast.csv"
        rows = ["model,asset,horizon,h_mean,h_q2.5,h_q97.5,"
                "r2_forecast,absr_forecast,vol_forecast"]
        for k in (1, 5, 10):
            rv = float(realized[k - 1])
            rows.append(f"perfect,{assets[0]},{k},0,0,0,"
                        f"{rv**2!r},{abs(rv)!r},{abs(rv)!r}")
        fc.write_text("\n".join(rows) + "\n")
        out = tmp_path / "cmp"
        assert run("compare", "--forecasts", fc, "--data", data,
                   "--holdout", holdout, "--out", out) == 0
        for line in (out / "mae.csv").read_text().splitlines()[1:]:
            assert float(line.rsplit(",", 1)[1]) == 0.0

    def test_compare_offset_gives_mae_c(self, tmp_path, fitted):
        data, chain = fitted
        ts, gaps, r, assets = read_returns(data)
        realized = r[0, -20:]
        c = 0.125
        fc = tmp_path / "forecast.csv"
        rows = ["model,asset,horizon,h_mean,h_q2.5,h_q97.5,"
                "r2_forecast,absr_forecast,vol_forecast"]
        for k in (1, 2):
            rv = float(realized[k - 1])
            rows.append(f"off,{assets[0]},{k},0,0,0,"
                        f"{rv**2 + c!r},{abs(rv) + c!r},{abs(rv) + c!r}")
        fc.write_text("\n".join(rows) + "\n")
        out = tmp_path / "cmp"
        assert run("compare", "--forecasts", fc, "--data", data,
                   "--holdout", 20, "--out", out) == 0
        for line in (out / "mae.csv").read_text().splitlines()[1:]:
            assert float(line.rsplit(",", 1)[1]) == pytest.approx(c)

    def test_compare_mismatched_lengths_rejected(self, tmp_path, fitted):
        data, chain = fitted
        fc = tmp_path / "forecast.csv"
        fc.write_text(
            "model,asset,horizon,h_mean,h_q2.5,h_q97.5,"
            "r2_forecast,absr_forecast,vol_forecast\n"
            "m,s1,25,0,0,0,0.1,0.1,0.1\n"
        )
        assert run("compare", "--forecasts", fc, "--data", data,
                   "--holdout", 20, "--out", tmp_path / "cmp") == 2


class TestReplayAndConfig:
    def test_replay_reproduces_outputs(self, tmp_path, sv_params):
        out = tmp_path / "sim"
        run("simulate", "--model", "irsv", "--params", sv_params,
            "--length", 40, "--replicates", 1, "--seed", 20, "--out", out)
        replayed = tmp_path / "replayed"
        assert run("replay", "--manifest", out / "manifest.json",
                   "--out", replayed) == 0
        assert ((out / "rep000.csv").read_bytes()
                == (replayed / "rep000.csv").read_bytes())

    @pytest.mark.parametrize("model, params", [
        ("irsv", {"mu": -9.0, "phi": 0.2, "sigma_eta": 0.8}),
        ("irmsv", {"mu": [-9.0, -9.5], "phi": [0.7, 0.5], "sigma": [1.0, 0.9],
                   "correlation": [[1.0, 0.6], [0.6, 1.0]]}),
    ])
    def test_replay_reproduces_fit_settings(self, tmp_path, model, params):
        sim = tmp_path / "sim"
        assert run("simulate", "--model", model, "--params",
                   write_json(tmp_path / "p.json", params), "--length", 90, "--seed", 3,
                   "--out", sim) == 0
        settings = {"iters": "240", "burnin": "90", "thin": "6"}
        argv = ["fit", "--model", model, "--data", sim / "rep000.csv", "--seed", 9,
                "--out", tmp_path / "fit"]
        for name, value in settings.items():
            argv += ["--" + name, value]
        assert run(*argv) == 0
        meta = json.loads((tmp_path / "fit" / "rep000.chain.csv.meta.json").read_text())
        fields = {"iters": "n_iterations", "burnin": "burn_in", "thin": "thin"}
        assert {name: str(meta["config"][fields[name]]) for name in settings} == settings

        replayed = tmp_path / "replayed"
        assert run("replay", "--manifest", tmp_path / "fit" / "manifest.json",
                   "--out", replayed) == 0
        for name in ("rep000.chain.csv", "rep000.chain.csv.meta.json", "rep000.summary.csv"):
            assert (tmp_path / "fit" / name).read_bytes() == (replayed / name).read_bytes()

    @pytest.mark.parametrize("argv, output", [
        (["simulate", "--model", "irsv", "--params", "sv.json", "--seed", "6", "--length", "50",
          "--gap-mean", "2.5"], "rep000.csv"),
        (["refresh", "--ticks", "ticks.csv", "--raw"], "returns.csv"),
        (["forecast", "--model", "irsv", "--chain", "fit/rep000.chain.csv",
          "--data", "sim/rep000.csv", "--holdout", "20", "--horizons", "1,3,20"],
         "forecast.csv"),
        (["compare", "--forecasts", "fc/forecast.csv", "--data", "sim/rep000.csv",
          "--holdout", "20"], "mae.csv"),
    ], ids=["simulate", "refresh", "forecast", "compare"])
    def test_replay_reproduces_each_subcommand(self, tmp_path, monkeypatch, argv, output):
        monkeypatch.chdir(tmp_path)
        write_json(tmp_path / "sv.json", {"mu": -9.0, "phi": 0.2, "sigma_eta": 0.8})
        (tmp_path / "ticks.csv").write_text(TICKS)
        assert run("simulate", "--model", "irsv", "--params", "sv.json", "--length", 100,
                   "--seed", 12, "--out", "sim") == 0
        assert run("fit", "--model", "irsv", "--data", "sim/rep000.csv", "--iters", 300,
                   "--burnin", 100, "--thin", 4, "--holdout", 20, "--seed", 13,
                   "--out", "fit") == 0
        assert run("forecast", "--model", "irsv", "--chain", "fit/rep000.chain.csv",
                   "--data", "sim/rep000.csv", "--holdout", 20, "--horizons", "1,5",
                   "--out", "fc") == 0

        assert run(*argv, "--out", "run") == 0
        assert run("replay", "--manifest", "run/manifest.json", "--out", "replayed") == 0
        assert ((tmp_path / "run" / output).read_bytes()
                == (tmp_path / "replayed" / output).read_bytes())

    @pytest.mark.parametrize("out", ["sim", "runs/sim"])
    def test_replay_from_inside_the_output_directory(self, tmp_path, monkeypatch, out):
        # the recorded command runs where it was launched, two levels up for runs/sim
        monkeypatch.chdir(tmp_path)
        write_json(tmp_path / "sv.json", {"mu": -9.0, "phi": 0.2, "sigma_eta": 0.8})
        assert run("simulate", "--model", "irsv", "--params", "sv.json", "--length", 30,
                   "--seed", 4, "--out", out) == 0
        monkeypatch.chdir(tmp_path / out)
        assert run("replay", "--manifest", "manifest.json", "--out", "again") == 0
        assert Path.cwd() == tmp_path / out
        assert Path("again/rep000.csv").read_bytes() == Path("rep000.csv").read_bytes()

    # the sampler settings are the run length alone; these three are fixed
    @pytest.mark.parametrize("name", ["adapt_interval", "latent_stride", "progress_every"])
    def test_fixed_sampler_settings_exit_2(self, tmp_path, capsys, monkeypatch, pipeline, name):
        monkeypatch.chdir(pipeline)
        flag = "--" + name.replace("_", "-")
        with pytest.raises(SystemExit) as exc:  # argparse's exit on a flag it does not know
            run("fit", "--model", "irsv", "--data", "sim/rep000.csv", "--iters", 20,
                "--burnin", 10, flag, 7, "--out", tmp_path / "out")
        assert exc.value.code == 2
        assert f"error: unrecognized arguments: {flag} 7\n" in capsys.readouterr().err

    def test_environment_and_config_files_set_nothing(self, tmp_path, capsys, monkeypatch):
        # a setting comes from its flag or its default alone: IRVOL_ variables,
        # misspelt or not, change no byte, and --config is no option
        for directory in ("plain", "environment"):
            (tmp_path / directory).mkdir()
            monkeypatch.chdir(tmp_path / directory)
            write_json(Path("sv.json"), {"mu": -9.0, "phi": 0.2, "sigma_eta": 0.8})
            if directory == "environment":
                monkeypatch.setenv("IRVOL_SEED", "5")
                monkeypatch.setenv("IRVOL_LATNET_STRIDE", "7")
            assert run("simulate", "--model", "irsv", "--params", "sv.json", "--length", 60,
                       "--out", "sim") == 0
            assert run("fit", "--model", "irsv", "--data", "sim/rep000.csv", "--iters", 40,
                       "--burnin", 10, "--out", "fit") == 0
        for plain in sorted((tmp_path / "plain").rglob("*.*")):
            again = tmp_path / "environment" / plain.relative_to(tmp_path / "plain")
            if plain.name == "manifest.json":
                untimed = [{key: value for key, value in json.loads(path.read_text()).items()
                            if key not in ("started_utc", "elapsed_seconds")}
                           for path in (plain, again)]
                assert untimed[0] == untimed[1]
            else:
                assert plain.read_bytes() == again.read_bytes()

        capsys.readouterr()
        for subcommand in ("simulate", "fit", "refresh", "forecast", "compare"):
            with pytest.raises(SystemExit):
                run(subcommand, "--help")
            assert "--config" not in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            run("simulate", "--model", "irsv", "--params", "sv.json", "--length", 60,
                "--config", "run.cfg", "--out", "cfg")
        assert exc.value.code == 2
        assert "error: unrecognized arguments: --config run.cfg\n" in capsys.readouterr().err

    def test_replay_returns_the_replayed_exit_code(self, tmp_path, capsys, monkeypatch,
                                                   pipeline):
        shutil.copytree(pipeline, tmp_path / "run")
        monkeypatch.chdir(tmp_path / "run")
        Path("sim/rep000.csv").unlink()
        assert run("replay", "--manifest", "fit/manifest.json", "--out", "again") == 1
        assert "data file not found: sim/rep000.csv" in capsys.readouterr().err


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A directory with ticks, a simulated series and its fit and forecast,
    every path relative to it."""
    root = tmp_path_factory.mktemp("pipeline")
    cwd = os.getcwd()
    os.chdir(root)
    try:
        (root / "ticks.csv").write_text(TICKS)
        write_json(root / "sv.json", {"mu": -9.0, "phi": 0.2, "sigma_eta": 0.8})
        write_json(root / "priors.json", {"phi_beta": [20, 1.5]})
        assert run("simulate", "--model", "irsv", "--params", "sv.json", "--length", 100,
                   "--seed", 12, "--out", "sim") == 0
        assert run("fit", "--model", "irsv", "--data", "sim/rep000.csv", "--iters", 300,
                   "--burnin", 100, "--thin", 4, "--holdout", 20, "--seed", 13,
                   "--out", "fit") == 0
        assert run(*FORECAST, "--out", "fc") == 0
    finally:
        os.chdir(cwd)
    return root


FORECAST = ("forecast", "--model", "irsv", "--chain", "fit/rep000.chain.csv",
            "--data", "sim/rep000.csv", "--holdout", "20", "--horizons", "1,5")
COMPARE = ("compare", "--forecasts", "fc/forecast.csv", "--data", "sim/rep000.csv", "--holdout",
           "20")
SIMULATE = ("simulate", "--model", "irsv", "--params", "sv.json", "--length", "20")
FIT_WITH_PRIORS = ("fit", "--model", "irsv", "--data", "sim/rep000.csv", "--priors",
                   "priors.json", "--iters", "20", "--burnin", "10", "--holdout", "20")


def _edit_line(lineno, edit):
    def apply(text):
        lines = text.splitlines()
        lines[lineno - 1] = edit(lines[lineno - 1])
        return "\n".join(lines) + "\n"
    return apply


def _edit_json(edit):
    def apply(text):
        payload = json.loads(text)
        edit(payload)
        return json.dumps(payload)
    return apply


def _edit_sidecar_config(**changes):
    return _edit_json(lambda meta: meta["config"].update(changes))


def _edit_cell(lineno, column, value):
    def edit(line):
        cells = line.split(",")
        cells[column] = value
        return ",".join(cells)
    return _edit_line(lineno, edit)


def _zero_last_gap(text):
    lines = text.splitlines()
    lines[-1] = ",".join([lines[-2].split(",")[0], "0.0", lines[-1].split(",")[2]])
    return "\n".join(lines) + "\n"


HUGE = "1" * 131_073  # one character over csv's default field size limit

# input kind: (the file made malformed, its edit, the command that reads it, the
# line the error must name, the key of a JSON record it must name, or None)
MALFORMED = {
    "ticks": ("ticks.csv", _edit_line(3, lambda line: "A,3.0,abc"),
              ("refresh", "--ticks", "ticks.csv"), 3),
    "returns": ("sim/rep000.csv", _edit_line(5, lambda line: line.rsplit(",", 1)[0]),
                ("fit", "--model", "irgarch", "--data", "sim/rep000.csv"), 5),
    "chain": ("fit/rep000.chain.csv", _edit_line(3, lambda line: "x" + line[line.index(","):]),
              FORECAST, 3),
    "sidecar-unknown-key": ("fit/rep000.chain.csv.meta.json", _edit_sidecar_config(bogus=3),
                            FORECAST, None),
    "sidecar-string-count": ("fit/rep000.chain.csv.meta.json",
                             _edit_sidecar_config(n_iterations="10"), FORECAST, None),
    "forecast-short-row": ("fc/forecast.csv", _edit_line(2, lambda line: line.rsplit(",", 1)[0]),
                           COMPARE, 2),
    "forecast-horizon": ("fc/forecast.csv", _edit_line(2, lambda line: line.replace(",1,", ",one,")),
                         COMPARE, 2),
    # rows compare would score wrongly: a horizon below 1 would index the
    # holdout from its end, a non-finite forecast gives a non-finite MAE,
    # and every row is labelled with the first row's model
    **{f"forecast-{case}": ("fc/forecast.csv", _edit_cell(line, column, value), COMPARE, line)
       for case, line, column, value in [("horizon-0", 2, 2, "0"), ("horizon-neg", 3, 2, "-3"),
                                         ("nan", 2, 6, "nan"), ("inf", 3, 8, "inf"),
                                         ("second-model", 3, 0, "irmsv")]},
    # a cell the csv module refuses to parse, in each CSV a command reads
    "ticks-huge-cell": ("ticks.csv", _edit_cell(3, 2, HUGE), ("refresh", "--ticks", "ticks.csv"),
                        3),
    "returns-huge-cell": ("sim/rep000.csv", _edit_cell(5, 2, HUGE),
                          ("fit", "--model", "irgarch", "--data", "sim/rep000.csv"), 5),
    "chain-huge-cell": ("fit/rep000.chain.csv", _edit_cell(3, 1, HUGE), FORECAST, 3),
    "forecast-huge-cell": ("fc/forecast.csv", _edit_cell(2, 3, HUGE), COMPARE, 2),
    # compare would average a second row for one asset in as if it were another asset
    "forecast-repeated-row": ("fc/forecast.csv", lambda text: text + text.splitlines()[1] + "\n",
                              COMPARE, 4),
    # a draw forecasting cannot use, and a holdout gap it cannot span
    "chain-phi-nan": ("fit/rep000.chain.csv", _edit_cell(2, 1, "nan"), FORECAST, None),
    "chain-phi-above-1": ("fit/rep000.chain.csv", _edit_cell(2, 1, "1.5"), FORECAST, None),
    "returns-zero-holdout-gap": ("sim/rep000.csv", _zero_last_gap, FORECAST, None),
    "manifest": ("fit/manifest.json", lambda text: text[: len(text) // 2],
                 ("replay", "--manifest", "fit/manifest.json"), None),
    "params-null": ("sv.json", _edit_json(lambda params: params.update(mu=None)), SIMULATE,
                    "mu"),
    "params-missing-key": ("sv.json", _edit_json(lambda params: params.pop("mu")), SIMULATE,
                           "mu"),
    "priors-unknown-key": ("priors.json", _edit_json(lambda priors: priors.update(bogus=1)),
                           FIT_WITH_PRIORS, "bogus"),
    "priors-scalar-pair": ("priors.json", _edit_json(lambda priors: priors.update(phi_beta=3)),
                           FIT_WITH_PRIORS, "phi_beta"),
    "sidecar-scale-factor": ("fit/rep000.chain.csv.meta.json",
                             _edit_json(lambda meta: meta.update(gap_scale_factor="abc")),
                             FORECAST, "gap_scale_factor"),
    # every sidecar entry forecast relies on is required, and so is the run's record
    **{f"sidecar-missing-{key}": ("fit/rep000.chain.csv.meta.json",
                                  _edit_json(lambda meta, key=key: meta.pop(key)), FORECAST, key)
       for key in ("names", "model", "n_obs_fit", "asset_ids", "gap_scale_factor", "config",
                   "acceptance_rates")},
    **{f"sidecar-null-{key}": ("fit/rep000.chain.csv.meta.json",
                               _edit_json(lambda meta, key=key: meta.update({key: None})),
                               FORECAST, key)
       for key in ("config", "acceptance_rates")},
}


@pytest.mark.parametrize("kind", sorted(MALFORMED))
def test_malformed_input_exits_with_a_code_naming_the_file(tmp_path, capsys, monkeypatch,
                                                           pipeline, kind):
    name, edit, argv, where = MALFORMED[kind]
    shutil.copytree(pipeline, tmp_path / "run")
    monkeypatch.chdir(tmp_path / "run")
    path = Path(name)
    path.write_text(edit(path.read_text()))
    capsys.readouterr()
    code = run(*argv, "--out", "out")
    assert code in (1, 2, 3)
    err = capsys.readouterr().err
    assert name in err and "Traceback" not in err
    if isinstance(where, int):
        assert code == 2 and f"{name}: line {where}: " in err
    elif where is not None:
        assert code == 2 and f"{name}: {where}: " in err


def test_forecast_without_its_sidecar_exits_1(tmp_path, capsys, monkeypatch, pipeline):
    shutil.copytree(pipeline, tmp_path / "run")
    monkeypatch.chdir(tmp_path / "run")
    Path("fit/rep000.chain.csv.meta.json").unlink()
    capsys.readouterr()
    assert run(*FORECAST, "--out", "out") == 1
    assert "fit/rep000.chain.csv.meta.json" in capsys.readouterr().err


def test_forecast_of_a_truncated_chain_exits_2_naming_the_sidecar(tmp_path, capsys, monkeypatch,
                                                                  pipeline):
    shutil.copytree(pipeline, tmp_path / "run")
    monkeypatch.chdir(tmp_path / "run")
    chain = Path("fit/rep000.chain.csv")
    chain.write_text("".join(chain.read_text().splitlines(keepends=True)[:11]))
    capsys.readouterr()
    assert run(*FORECAST, "--out", "out") == 2
    assert ("error: fit/rep000.chain.csv.meta.json: n_draws: 50, but the chain has 10 rows\n"
            in capsys.readouterr().err)


# the config keys each older sidecar held beyond the current four
OLD_SIDECAR_CONFIG = {
    1: dict(adapt_interval=200, latent_stride=10, progress_every=0, target_accept_scalar=0.44,
            target_accept_block=0.234, store_latent=True),
    2: dict(adapt_interval=200, latent_stride=10, progress_every=0),
}


@pytest.mark.parametrize("version", sorted(OLD_SIDECAR_CONFIG))
def test_forecast_of_an_older_sidecar_exits_2_naming_the_version(tmp_path, capsys,
                                                                 monkeypatch, pipeline, version):
    shutil.copytree(pipeline, tmp_path / "run")
    monkeypatch.chdir(tmp_path / "run")
    sidecar = Path("fit/rep000.chain.csv.meta.json")

    def to_version(meta):
        meta["format_version"] = version
        meta["config"].update(OLD_SIDECAR_CONFIG[version])

    sidecar.write_text(_edit_json(to_version)(sidecar.read_text()))
    capsys.readouterr()
    assert run(*FORECAST, "--out", "out") == 2
    assert (f"error: {sidecar}: unsupported chain format version {version}\n"
            in capsys.readouterr().err)


MSV_FORECAST = ("forecast", "--model", "irmsv", "--chain", "fit/rep000.chain.csv",
                "--data", "sim/rep000.csv", "--holdout", 20, "--horizons", "1,5")


@pytest.fixture
def msv_run(tmp_path, monkeypatch):
    """A two-asset simulation, its irmsv fit and its forecast ``fc``, every
    path relative to the current directory."""
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "msv.json", {"mu": [-9.0, -9.5], "phi": [0.7, 0.5],
                                       "sigma": [1.0, 0.9],
                                       "correlation": [[1.0, 0.6], [0.6, 1.0]]})
    assert run("simulate", "--model", "irmsv", "--params", "msv.json", "--length", 60,
               "--seed", 5, "--out", "sim") == 0
    assert run("fit", "--model", "irmsv", "--data", "sim/rep000.csv", "--iters", 20,
               "--burnin", 10, "--holdout", 20, "--out", "fit") == 0
    assert run(*MSV_FORECAST, "--out", "fc") == 0


def test_forecast_of_swapped_asset_columns_exits_2(capsys, msv_run):
    # the fit's assets, in the fit's order, must be the data file's
    data = Path("sim/rep000.csv")
    rows = [line.split(",") for line in data.read_text().splitlines()]
    data.write_text("".join(",".join(row[:2] + [row[3], row[2]]) + "\n" for row in rows))
    capsys.readouterr()
    assert run(*MSV_FORECAST, "--out", "swapped") == 2
    assert ("fit/rep000.chain.csv.meta.json: asset_ids: the chain was fit with ['s1', 's2']"
            in capsys.readouterr().err)


def test_duplicate_asset_columns_exit_2_naming_the_file(capsys, msv_run):
    # with two r_s1 columns, compare would score asset 1's forecasts against asset 2's returns
    data = Path("sim/rep000.csv")
    data.write_text(data.read_text().replace("r_s1,r_s2", "r_s1,r_s1", 1))
    capsys.readouterr()
    for argv in [("fit", "--model", "irmsv", "--data", data, "--iters", 20, "--burnin", 10,
                  "--holdout", 20), MSV_FORECAST,
                 ("compare", "--forecasts", "fc/forecast.csv", "--data", data,
                  "--holdout", 20)]:
        assert run(*argv, "--out", "out") == 2
        assert f"error: {data}: duplicate asset id 's1'\n" in capsys.readouterr().err


def test_forecast_of_a_chain_without_the_last_site_names_the_chain(tmp_path, capsys,
                                                                   monkeypatch, pipeline):
    # the chain and its sidecar agree, but both lack h_79, the last site of
    # the 80-observation fit
    shutil.copytree(pipeline, tmp_path / "run")
    monkeypatch.chdir(tmp_path / "run")
    chain = Path("fit/rep000.chain.csv")
    rows = [line.split(",") for line in chain.read_text().splitlines()]
    drop = rows[0].index("h_79")
    chain.write_text("".join(",".join(row[:drop] + row[drop + 1:]) + "\n" for row in rows))
    sidecar = Path("fit/rep000.chain.csv.meta.json")
    sidecar.write_text(_edit_json(lambda meta: meta["names"].remove("h_79"))(sidecar.read_text()))
    capsys.readouterr()
    assert run(*FORECAST, "--out", "out") == 2
    assert "error: fit/rep000.chain.csv: no chain column named h_79\n" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-4"])
@pytest.mark.parametrize("argv", [SIMULATE, FIT_WITH_PRIORS], ids=["simulate", "fit"])
def test_threads_below_1_exit_2_before_any_job(tmp_path, capsys, monkeypatch, pipeline, argv,
                                               threads):
    shutil.copytree(pipeline, tmp_path / "run")
    monkeypatch.chdir(tmp_path / "run")
    capsys.readouterr()
    assert run(*argv, "--threads", threads, "--out", "out") == 2
    assert f"error: --threads must be at least 1, not {threads}\n" in capsys.readouterr().err
    assert list(Path("out").iterdir()) == []


FIT = ("fit", "--model", "irsv", "--data", "sim/rep000.csv", "--holdout", "20")
# setting: (the command that reads it, the values each case gives it, the error it names)
BAD_SETTINGS = {
    "seed-simulate": (SIMULATE, {"seed": "-1"}, "--seed must be a non-negative integer, not -1"),
    "seed-fit": (FIT, {"seed": "-4"}, "--seed must be a non-negative integer, not -4"),
    "gap-mean-negative": (SIMULATE, {"gap_mean": "-1"},
                          "--gap-mean must lie in [0.1, 1e+15], not -1.0"),
    "gap-mean-nan": (SIMULATE, {"gap_mean": "nan"}, "--gap-mean must lie in [0.1, 1e+15], not nan"),
    "gap-mean-inf": (SIMULATE, {"gap_mean": "inf"}, "--gap-mean must lie in [0.1, 1e+15], not inf"),
    "thin-not-dividing": (FIT, {"iters": "100", "burnin": "50", "thin": "7"},
                          "--iters 100, --burnin 50, --thin 7: (n_iterations - burn_in) must be "
                          "divisible by thin"),
    "burnin-not-below-iters": (FIT, {"iters": "100", "burnin": "100", "thin": "1"},
                               "--iters 100, --burnin 100, --thin 1: burn_in must satisfy "
                               "0 <= burn_in < n_iterations"),
    "thin-zero": (FIT, {"iters": "100", "burnin": "50", "thin": "0"},
                  "--iters 100, --burnin 50, --thin 0: thin must be at least 1"),
}


COMMON_FLAGS = [(("--seed",), "seed", int, 0), (("--threads",), "threads", int, 1),
                (("--out",), "out", str, None)]
# every flag of every subcommand: (option strings, dest, type, default)
PARSER_FLAGS = {
    "simulate": [(("--model",), "model", None, None), (("--params",), "params", None, None),
                 (("--length", "-T"), "length", int, None),
                 (("--replicates",), "replicates", int, 1),
                 (("--gap-mean",), "gap_mean", float, 3.0), *COMMON_FLAGS],
    "fit": [(("--model",), "model", None, None), (("--data",), "data", None, None),
            (("--priors",), "priors", None, None), (("--iters",), "iters", int, 20000),
            (("--burnin",), "burnin", int, 5000), (("--thin",), "thin", int, 10),
            (("--holdout",), "holdout", int, 0), *COMMON_FLAGS],
    "refresh": [(("--ticks",), "ticks", None, None), (("--raw",), "raw", None, False),
                *COMMON_FLAGS],
    "forecast": [(("--model",), "model", None, None), (("--chain",), "chain", None, None),
                 (("--data",), "data", None, None), (("--holdout",), "holdout", int, 44),
                 (("--horizons",), "horizons", str, "1,5,10,22,44"),
                 (("--draws-per-sample",), "draws_per_sample", int, None), *COMMON_FLAGS],
    "compare": [(("--forecasts",), "forecasts", None, None), (("--data",), "data", None, None),
                (("--holdout",), "holdout", int, 44), *COMMON_FLAGS],
    "replay": [(("--manifest",), "manifest", None, None), (("--out",), "out", None, None)],
}


def test_every_flag_keeps_its_dest_type_and_default():
    sub = next(action for action in cli.build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    flags = {name: [(tuple(a.option_strings), a.dest, a.type, a.default)
                    for a in parser._actions if a.dest != "help"]
             for name, parser in sub.choices.items()}
    assert flags == PARSER_FLAGS


@pytest.mark.parametrize("case", sorted(BAD_SETTINGS))
def test_bad_settings_exit_2_naming_the_option_before_any_job(tmp_path, capsys, monkeypatch,
                                                              pipeline, case):
    argv, settings, message = BAD_SETTINGS[case]
    shutil.copytree(pipeline, tmp_path / "run")
    monkeypatch.chdir(tmp_path / "run")
    for name, value in settings.items():
        argv += ("--" + name.replace("_", "-"), value)
    capsys.readouterr()
    assert run(*argv, "--out", "out") == 2
    assert f"error: {message}\n" in capsys.readouterr().err
    assert not Path("out").exists()


@pytest.mark.parametrize("text", ["1,,5", "1,five", "0,5"])
def test_malformed_horizons_name_the_option(tmp_path, capsys, monkeypatch, pipeline, text):
    shutil.copytree(pipeline, tmp_path / "run")
    monkeypatch.chdir(tmp_path / "run")
    argv = list(FORECAST)
    argv[argv.index("--horizons") + 1] = text
    capsys.readouterr()
    assert run(*argv, "--out", "out") == 2
    assert (f"error: --horizons must be a comma-separated list of positive integers, "
            f"not {text!r}\n" in capsys.readouterr().err)


# fault: (the bad file's returns, the irsv and irgarch messages, the exit code, --holdout)
FIT_FAULTS = {
    "two-columns": (np.full((2, 60), 0.01), "returns must be one series: a (T,) or (1, T) array",
                    "irgarch expects exactly one return column", 2, 0),
    "few-rows": (np.full((1, 8), 0.01), "need at least 10 observations to fit",
                 "need one-dimensional returns, at least 50 of them, to fit", 2, 0),
    "overflow": (np.concatenate([np.full(3, 0.01), [1e200], np.full(56, 0.01)])[None, :],
                 "the return in row 4 (1e+200) overflows when squared",
                 "the return in row 4 (1e+200) overflows when squared", 3, 0),
    "holdout": (np.full((1, 20), 0.01), "--holdout leaves no observations to fit",
                "--holdout leaves no observations to fit", 2, 30),
}


# irgarch fits every series in one process, in one batched fit_ml call
@pytest.mark.parametrize("model, threads", [("irsv", 1), ("irsv", 2), ("irgarch", None)])
@pytest.mark.parametrize("fault", sorted(FIT_FAULTS))
def test_fit_errors_name_the_data_file_at_fault(tmp_path, capsys, fault, model, threads):
    r, mcmc_message, ml_message, code, holdout = FIT_FAULTS[fault]
    rng = np.random.default_rng(4)
    good = _returns_file(tmp_path, 0.01 * rng.standard_normal((1, 60)), "good.csv")
    bad = _returns_file(tmp_path, r, "bad.csv")
    argv = ["fit", "--model", model, "--data", good, bad, "--holdout", holdout,
            "--out", tmp_path / "out"]
    if threads:
        argv += ["--iters", 20, "--burnin", 10, "--threads", threads]
    capsys.readouterr()
    assert run(*argv) == code
    message = mcmc_message if model == "irsv" else ml_message
    assert f"error: {bad}: {message}\n" in capsys.readouterr().err


# every output of a fit is named by its data file's stem
@pytest.mark.parametrize("model, threads", [("irsv", 2), ("irgarch", 1)])
@pytest.mark.parametrize("layout", ["same-file", "two-directories"])
def test_data_files_sharing_a_stem_exit_2_before_any_fit(tmp_path, capsys, model, threads,
                                                         layout):
    rng = np.random.default_rng(6)
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        _returns_file(tmp_path / name, 0.01 * rng.standard_normal((1, 60)))
    first = tmp_path / "a" / "data.csv"
    second = first if layout == "same-file" else tmp_path / "b" / "data.csv"
    capsys.readouterr()
    assert run("fit", "--model", model, "--data", first, second, "--iters", 20,
               "--burnin", 10, "--threads", threads, "--out", tmp_path / "out") == 2
    assert (f"error: data files {first} and {second} share the stem 'data', so their "
            f"outputs would overwrite each other\n" in capsys.readouterr().err)
    assert list((tmp_path / "out").iterdir()) == []


def _python(*argv, timeout):
    """``python *argv`` with this checkout's ``src`` on the path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *map(str, argv)], env=env, capture_output=True,
                          text=True, timeout=timeout)


def test_cli_import_leaves_scipy_optimize_unloaded():
    code = "import sys, irvol.cli; assert 'scipy.optimize' not in sys.modules, 'loaded'"
    assert _python("-c", code, timeout=120).returncode == 0


# at --gap-mean 1e-300 nearly every Poisson draw is a zero and redrawing them
# would never end, hence the subprocess and its timeout; numpy refuses 1e20
@pytest.mark.parametrize("gap_mean", ["1e-300", "1e20"])
def test_gap_mean_outside_the_poisson_range_exits_2_naming_it(tmp_path, sv_params, gap_mean):
    done = _python("-m", "irvol.cli", "simulate", "--model", "irsv", "--params", sv_params,
                   "--length", 20, "--gap-mean", gap_mean, "--out", tmp_path / "o", timeout=120)
    assert done.returncode == 2
    assert (f"error: --gap-mean must lie in [0.1, 1e+15], not {float(gap_mean)}\n"
            in done.stderr)
    assert not (tmp_path / "o").exists()


def test_only_irgarch_imports_scipy():
    # every stage pays for what irvol imports at start-up, and only the ML fits use scipy
    package = Path(__file__).resolve().parent.parent / "src" / "irvol"
    importers = set()
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            modules = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                       else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(module.split(".")[0] == "scipy" for module in modules):
                importers.add(path.relative_to(package).as_posix())
    assert importers == {"irgarch.py"}


# every module but the CLI, which imports irgarch, loads without scipy
@pytest.mark.parametrize("module", ["irvol", "irvol.core", "irvol.irsv", "irvol.irmsv",
                                    "irvol.moments", "irvol.refresh", "irvol.dataio",
                                    "irvol.mcmc.fit"])
def test_library_import_leaves_scipy_unloaded(module):
    code = (f"import sys, {module}; "
            "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], 'loaded'")
    assert _python("-c", code, timeout=120).returncode == 0


def test_cli_import_loads_scipy_linalg():
    # a CLI start-up without scipy leaves the benchmark's short traced stages
    # under its span-coverage floor (ROADMAP direction 0)
    code = "import sys, irvol.cli; assert 'scipy.linalg' in sys.modules, 'not loaded'"
    assert _python("-c", code, timeout=120).returncode == 0


def test_package_exposes_only_its_version_and_submodules():
    import irvol
    public = {name for name, value in vars(irvol).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set() and isinstance(irvol.__version__, str)


def test_fit_hands_fit_irsv_one_row_of_t_sites(tmp_path, monkeypatch, pipeline):
    seen = []
    fit_irsv = cli.fit_irsv

    def spy(returns, gaps, *args):
        seen.append((returns.shape, gaps.shape))
        return fit_irsv(returns, gaps, *args)

    monkeypatch.setattr(cli, "fit_irsv", spy)
    assert run("fit", "--model", "irsv", "--data", pipeline / "sim" / "rep000.csv",
               "--iters", 20, "--burnin", 10, "--holdout", 20, "--out", tmp_path) == 0
    assert seen == [((1, 80), (79,))]


# Every name the benchmark's tracer wraps, by the module it rebinds it in: a
# name missing here would make the traced runs record nothing for it.
TRACE_POINTS = {
    "irvol.cli": ("cmd_simulate", "cmd_refresh", "cmd_fit", "cmd_forecast", "cmd_compare",
                  "read_ticks", "read_returns", "write_returns", "read_chain", "write_chain",
                  "refresh_sample", "fit_irsv", "fit_irmsv", "fit_ml", "simulate_irgarch"),
    "irvol.mcmc.fit": ("adaptive_rwm_scalar", "correlation_block_step", "summarize"),
    "irvol.irgarch": ("minimize",),
}


@pytest.mark.parametrize("module, name", [(module, name) for module, names in TRACE_POINTS.items()
                                          for name in names])
def test_trace_point_is_bound(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))
