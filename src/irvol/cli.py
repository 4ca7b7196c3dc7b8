"""Command-line front end: simulate, fit, refresh, forecast, compare, replay.

Every subcommand reads its options from its command-line flags alone,
each unset flag taking its default, and writes them into the
``manifest.json`` of its output directory twice: as ``options``, and as
``argv_resolved``, the command line that sets every one of them, next to
the input and produced files.  ``irvol replay`` re-runs that command line
in the directory the run was launched in, so it reproduces the run
whatever the caller's directory.  Options the subcommand accepts but does
not use go unrecorded.  With ``--threads 1`` (the default) every run is
bit-reproducible for a fixed seed; replicate work parallelizes across
processes with per-replicate seed streams, so outputs do not depend on
the thread count.

Exit codes: 0 success, 1 I/O error, 2 validation error, 3 numerical
failure; ``irvol replay`` exits with the replayed command's code.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, fields, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

import irvol
from irvol.core import POISSON_MEAN_RANGE, draw_positive_poisson, generate_gaps, scale_gaps
from irvol.dataio import (
    chain_meta_path,
    read_chain,
    read_forecasts,
    read_json,
    read_returns,
    read_ticks,
    write_chain,
    write_forecasts,
    write_json,
    write_returns,
    write_summary,
)
from irvol.irgarch import IrGarchParams, fit_ml, simulate_irgarch
from irvol.irmsv import CorrelationMatrix, IrMsvParams, simulate_irmsv
from irvol.irsv import IrSvParams, forecast, simulate_irsv
from irvol.mcmc.chain import McmcConfig
from irvol.mcmc.fit import DEFAULT_CONFIG, asset_draws, fit_irmsv, fit_irsv
from irvol.mcmc.priors import IrMsvPriors, IrSvPriors
from irvol.refresh import aggregate_one_second, refresh_sample

EXIT_OK, EXIT_IO, EXIT_VALIDATION, EXIT_NUMERICAL = 0, 1, 2, 3
MCMC_MODELS = ("irsv", "irmsv")
ML_MODELS = ("irgarch", "irarch")
SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
# the sampler settings of an MCMC fit, by the McmcConfig field each sets
MCMC_SETTINGS = {"iters": "n_iterations", "burnin": "burn_in", "thin": "thin"}


def _options(args, names) -> dict:
    """The value the subcommand reads for each named option, in order."""
    return {name: getattr(args, name) for name in names}


def _argv(subcommand: str, options: dict) -> list[str]:
    """The command line that gives every option its value in ``options``."""
    argv = [subcommand]
    for name, value in options.items():
        flag = "--" + name.replace("_", "-")
        if isinstance(value, list):
            argv += [flag, *value]
        elif value is True:
            argv.append(flag)
        elif value is not None and value is not False:
            argv += [flag, str(value)]
    return argv


def _out_dir(out: str | None) -> Path:
    if out is None:
        raise ValueError("an output directory is required (--out)")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_manifest(out_dir: Path, subcommand: str, options: dict, inputs: list[str],
                    outputs: list[str], started: float) -> Path:
    manifest = {
        "artifact_version": irvol.__version__,
        "subcommand": subcommand,
        "argv_resolved": _argv(subcommand, options),
        "options": options,
        "inputs": inputs,
        "outputs": outputs,
        "started_utc": datetime.fromtimestamp(started, tz=timezone.utc).isoformat(),
        "elapsed_seconds": round(time.time() - started, 3),
    }
    path = out_dir / "manifest.json"
    write_json(path, manifest)
    return path


def _run_jobs(fn, jobs: list[tuple], threads: int) -> list:
    """``fn(*job)`` for each job, in order, across ``threads`` processes when
    there are several jobs."""
    if threads < 1:
        raise ValueError(f"--threads must be at least 1, not {threads}")
    if threads > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, *zip(*jobs)))
    return [fn(*job) for job in jobs]


def _replicate_seed(master_seed: int, index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(master_seed).spawn(index + 1)[index]


def _pair(value) -> tuple[float, float]:
    if not (isinstance(value, list) and len(value) == 2):
        raise ValueError(f"expected a pair of numbers, not {value!r}")
    return float(value[0]), float(value[1])


def _vector(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


def _prior_keys(cls) -> dict:
    return {f.name: _pair if isinstance(f.default, tuple) else float for f in fields(cls)}


# The record a --params and a --priors file hold for each model: the type
# it builds and how each of its keys is read.
PARAMS = {
    "irsv": (IrSvParams, dict.fromkeys(("mu", "phi", "sigma_eta"), float)),
    "irmsv": (IrMsvParams, {"mu": _vector, "phi": _vector, "sigma": _vector,
                            "correlation": lambda value: CorrelationMatrix(_vector(value))}),
    **dict.fromkeys(ML_MODELS, (IrGarchParams, dict.fromkeys(("omega", "alpha1", "beta1"),
                                                             float))),
}
PRIORS = {"irsv": (IrSvPriors, _prior_keys(IrSvPriors)),
          "irmsv": (IrMsvPriors, _prior_keys(IrMsvPriors))}


def _json_record(path: str, cls, keys: dict):
    """``cls`` built from the JSON object in ``path``, each value read by ``keys``.

    Every key must be one of ``keys``, and every field of ``cls`` without
    a default must be given.  A fault is a ValueError naming the file, and
    the key where there is one.
    """
    values = {}
    for key, value in read_json(path).items():
        if key not in keys:
            raise ValueError(f"{path}: {key}: unknown key")
        try:
            values[key] = keys[key](value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: {key}: {exc}") from None
    for field in fields(cls):
        if field.name not in values and field.default is MISSING:
            raise ValueError(f"{path}: {field.name}: missing")
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _simulate_replicate(model: str, params, length: int, gap_mean: float,
                        master_seed: int, index: int):
    """One simulation replicate; returns (timestamps, returns matrix, asset ids)."""
    rng = np.random.default_rng(_replicate_seed(master_seed, index))
    # gap-time GARCH works in observed time units, the SV models in gaps
    # rescaled into (0, 1]
    draw_gaps = draw_positive_poisson if model in ML_MODELS else generate_gaps
    gaps = draw_gaps(length - 1, gap_mean, rng) if length > 1 else np.empty(0)
    simulate = {"irsv": simulate_irsv, "irmsv": simulate_irmsv}.get(model, simulate_irgarch)
    _, r = simulate(params, gaps, length, rng)
    matrix = np.atleast_2d(r)
    timestamps = np.concatenate(([0.0], np.cumsum(gaps)))
    return timestamps, matrix, [f"s{i + 1}" for i in range(matrix.shape[0])]


def cmd_simulate(args) -> None:
    started = time.time()
    o = _options(args, ("model", "params", "length", "replicates", "gap_mean", "seed",
                        "threads", "out"))
    if o["length"] is None or o["length"] < 1:
        raise ValueError("--length must be a positive integer")
    if o["replicates"] < 1:
        raise ValueError("--replicates must be at least 1")
    low, high = POISSON_MEAN_RANGE
    if not low <= o["gap_mean"] <= high:
        raise ValueError(f"--gap-mean must lie in [{low:g}, {high:g}], not {o['gap_mean']}")
    if o["seed"] < 0:
        raise ValueError(f"--seed must be a non-negative integer, not {o['seed']}")
    out_dir = _out_dir(o["out"])
    params = _json_record(o["params"], *PARAMS[o["model"]])
    if o["model"] == "irarch":
        params = replace(params, beta1=0.0)
    jobs = [(o["model"], params, o["length"], o["gap_mean"], o["seed"], k)
            for k in range(o["replicates"])]
    results = _run_jobs(_simulate_replicate, jobs, o["threads"])

    outputs = []
    for k, (timestamps, matrix, assets) in enumerate(results):
        path = out_dir / f"rep{k:03d}.csv"
        write_returns(path, timestamps, matrix, assets)
        outputs.append(str(path))
    _write_manifest(out_dir, "simulate", o, [o["params"]], outputs, started)


def _drop_holdout(matrix: np.ndarray, gaps: np.ndarray, holdout: int):
    """Withhold the final ``holdout`` observations (and their gaps) from a fit."""
    if holdout < 0:
        raise ValueError("--holdout must be nonnegative")
    if holdout:
        if holdout >= matrix.shape[1]:
            raise ValueError("--holdout leaves no observations to fit")
        matrix = matrix[:, :-holdout]
        gaps = gaps[: matrix.shape[1] - 1]
    return matrix, gaps


def _fit_one_mcmc(model: str, data_path: str, priors, config: McmcConfig, holdout: int,
                  master_seed: int, index: int, out_dir: str) -> list[str]:
    timestamps, gaps, matrix, assets = read_returns(data_path)
    seed = int(_replicate_seed(master_seed, index).generate_state(1)[0] % 2**31)
    config = replace(config, rng_seed=seed)
    stem = Path(data_path).stem
    chain_path = Path(out_dir) / f"{stem}.chain.csv"
    summary_path = Path(out_dir) / f"{stem}.summary.csv"
    fit = fit_irsv if model == "irsv" else fit_irmsv
    try:
        matrix, gaps = _drop_holdout(matrix, gaps, holdout)
        gaps, scale_factor = scale_gaps(gaps)
        chain, summary = fit(matrix, gaps, priors, config)
    except (ValueError, RuntimeError) as exc:
        raise type(exc)(f"{data_path}: {exc}") from None
    write_chain(chain, chain_path, model=model, gap_scale_factor=scale_factor,
                n_obs_fit=matrix.shape[1], asset_ids=assets, data_file=str(data_path))
    write_summary(summary, summary_path)
    return [str(chain_path), str(chain_meta_path(chain_path)), str(summary_path)]


def cmd_fit(args) -> None:
    started = time.time()
    model = args.model
    mcmc = model in MCMC_MODELS
    o = _options(args, ("model", "data", *(("priors", "seed", "threads", *MCMC_SETTINGS)
                                            if mcmc else ()), "holdout", "out"))
    if mcmc:
        if o["seed"] < 0:
            raise ValueError(f"--seed must be a non-negative integer, not {o['seed']}")
        try:
            config = McmcConfig(**{field: o[name] for name, field in MCMC_SETTINGS.items()})
        except ValueError as exc:
            given = ", ".join(f"--{name} {o[name]}" for name in MCMC_SETTINGS)
            raise ValueError(f"{given}: {exc}") from None
    out_dir = _out_dir(o["out"])
    outputs: list[str] = []

    for k, data_path in enumerate(o["data"]):
        if not Path(data_path).exists():
            raise FileNotFoundError(f"data file not found: {data_path}")
        # each data file's outputs are named by its stem
        stem = Path(data_path).stem
        twins = [path for path in o["data"][:k] if Path(path).stem == stem]
        if twins:
            raise ValueError(f"data files {twins[0]} and {data_path} share the stem "
                             f"{stem!r}, so their outputs would overwrite each other")

    if mcmc:
        priors = _json_record(o["priors"], *PRIORS[model]) if o["priors"] else None
        jobs = [(model, path, priors, config, o["holdout"], o["seed"], k, str(out_dir))
                for k, path in enumerate(o["data"])]
        for group in _run_jobs(_fit_one_mcmc, jobs, o["threads"]):
            outputs.extend(group)
    else:
        series = []
        for data_path in o["data"]:
            timestamps, gaps, matrix, assets = read_returns(data_path)
            try:
                if matrix.shape[0] != 1:
                    raise ValueError(f"{model} expects exactly one return column")
                matrix, gaps = _drop_holdout(matrix, gaps, o["holdout"])
            except ValueError as exc:
                raise ValueError(f"{data_path}: {exc}") from None
            series.append((matrix[0], gaps))
        try:
            fits = fit_ml(series, arch_only=(model == "irarch"))
        except (ValueError, RuntimeError) as exc:
            if not hasattr(exc, "series"):
                raise
            raise type(exc)(f"{o['data'][exc.series]}: {exc}") from None
        for data_path, (r, _), fit in zip(o["data"], series, fits):
            report = {"model": model, **vars(fit.params), **vars(fit),
                      "n_obs_fit": int(r.size), "data_file": str(data_path)}
            del report["params"]
            path = Path(out_dir) / f"{Path(data_path).stem}.fit.json"
            write_json(path, report)
            outputs.append(str(path))
    _write_manifest(out_dir, "fit", o, list(o["data"]), outputs, started)


def cmd_refresh(args) -> None:
    started = time.time()
    o = _options(args, ("ticks", "raw", "out"))
    out_dir = _out_dir(o["out"])
    ticks = read_ticks(o["ticks"])
    if len(ticks) < 2:
        raise ValueError("refresh synchronization needs at least two assets")
    if not o["raw"]:
        ticks = [aggregate_one_second(t) for t in ticks]
    result = refresh_sample(ticks)
    if len(result) < 2:
        raise ValueError("fewer than two refresh times; cannot form returns")
    returns = np.diff(np.log(result.prices), axis=1)
    timestamps = result.refresh_times[1:]
    path = out_dir / "returns.csv"
    write_returns(path, timestamps, returns, [t.asset_id for t in ticks])
    _write_manifest(out_dir, "refresh", o, [o["ticks"]], [str(path)], started)


def _parse_horizons(text: str) -> list[int]:
    """The sorted distinct horizons of a comma-separated ``--horizons`` list."""
    try:
        horizons = sorted({int(piece) for piece in text.split(",")})
        if horizons[0] >= 1:
            return horizons
    except ValueError:
        pass
    raise ValueError(f"--horizons must be a comma-separated list of positive integers, "
                     f"not {text!r}")


def cmd_forecast(args) -> None:
    started = time.time()
    o = _options(args, ("model", "chain", "data", "holdout", "horizons", "out"))
    model, holdout = o["model"], o["holdout"]
    horizons = _parse_horizons(o["horizons"])
    out_dir = _out_dir(o["out"])

    timestamps, gaps, matrix, assets = read_returns(o["data"])
    n = matrix.shape[1]
    if not (0 < holdout < n):
        raise ValueError("--holdout must leave both fit and holdout observations")
    if max(horizons) > holdout:
        raise ValueError("every horizon must fit inside the holdout window")
    n_fit = n - holdout
    chain, meta = read_chain(o["chain"], model=model, n_obs_fit=n_fit, asset_ids=assets)
    future_gaps = gaps[n_fit - 1:] / meta["gap_scale_factor"]
    if not (future_gaps > 0).all():
        raise ValueError(f"{o['data']}: the holdout gaps must be positive")

    try:  # with the gaps checked, every fault left is in the chain's draws
        groups = asset_draws(chain, model, len(assets), n_fit)
        fcs = [forecast(*draws, future_gaps, steps=horizons) for draws in groups]
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{o['chain']}: {exc.args[0]}") from None
    rows = []
    for asset, fc in zip(assets, fcs):
        for k, horizon in enumerate(horizons):
            vol = float(fc.vol_mean[k])
            rows.append([model, asset, horizon, float(fc.h_mean[k]), float(fc.h_q025[k]),
                         float(fc.h_q975[k]), float(fc.r2_mean[k]), vol * SQRT_2_OVER_PI, vol])

    path = out_dir / "forecast.csv"
    write_forecasts(path, rows)
    _write_manifest(out_dir, "forecast", o, [o["chain"], o["data"]], [str(path)], started)


def cmd_compare(args) -> None:
    started = time.time()
    o = _options(args, ("forecasts", "data", "holdout", "out"))
    holdout = o["holdout"]
    out_dir = _out_dir(o["out"])
    timestamps, gaps, matrix, assets = read_returns(o["data"])
    if not (0 < holdout <= matrix.shape[1]):
        raise ValueError("--holdout must be positive and at most the series length")
    realized = matrix[:, matrix.shape[1] - holdout:]
    asset_index = {a: i for i, a in enumerate(assets)}

    targets = (("r2", "r2_forecast"), ("absr", "absr_forecast"), ("vol", "vol_forecast"))
    results = []
    for fpath in o["forecasts"]:
        rows = read_forecasts(fpath)
        model = rows[0]["model"]
        by_horizon: dict[int, list[dict]] = {}
        for row in rows:
            by_horizon.setdefault(row["horizon"], []).append(row)
        for horizon in sorted(by_horizon):
            if horizon > holdout:
                raise ValueError(
                    f"{fpath}: horizon {horizon} exceeds the {holdout}-step holdout"
                )
            group = by_horizon[horizon]
            for label, column in targets:
                errors = []
                for row in group:
                    asset = row["asset"]
                    if asset not in asset_index:
                        raise ValueError(f"{fpath}: unknown asset {asset!r}")
                    r_real = realized[asset_index[asset], horizon - 1]
                    truth = r_real**2 if label == "r2" else abs(r_real)
                    errors.append(abs(row[column] - truth))
                results.append([model, label, horizon, sum(errors) / len(errors)])

    path = out_dir / "mae.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["model", "target", "horizon", "mae"])
        for model, label, horizon, mae in results:
            writer.writerow([model, label, horizon, repr(float(mae))])
    _write_manifest(out_dir, "compare", o, o["forecasts"] + [o["data"]], [str(path)], started)


def cmd_replay(args) -> int:
    """Re-run a manifest's command line; its exit code is the replay's.

    The manifest lies in ``<launch>/<out>``, so a recorded ``--out`` that
    is relative and has no ``..`` locates the directory the run was
    launched in, and the command runs there; any other runs in the
    caller's directory.  A replay ``--out`` is taken relative to the
    caller's directory.
    """
    argv = read_json(args.manifest).get("argv_resolved")
    if not (isinstance(argv, list) and argv and all(isinstance(a, str) for a in argv)):
        raise ValueError(f"{args.manifest}: argv_resolved is not a command line")
    caller = launch = os.getcwd()
    for i, piece in enumerate(argv[:-1]):
        if piece == "--out":
            recorded = Path(argv[i + 1])
            if not recorded.is_absolute() and ".." not in recorded.parts:
                launch = os.path.dirname(os.path.abspath(args.manifest))
                for _ in recorded.parts:
                    launch = os.path.dirname(launch)
            if args.out is not None:
                argv[i + 1] = os.path.abspath(args.out)
    os.chdir(launch)
    try:
        return main(argv)
    finally:
        os.chdir(caller)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irvol",
        description="Volatility modeling for irregularly spaced financial time series",
    )
    parser.add_argument("--version", action="version", version=irvol.__version__)
    sub = parser.add_subparsers(dest="subcommand")

    def add_common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--out", type=str, help="output directory")

    p = sub.add_parser("simulate", help="simulate replicate data sets")
    p.add_argument("--model", required=True, choices=MCMC_MODELS + ML_MODELS)
    p.add_argument("--params", required=True, help="JSON file of true parameters")
    p.add_argument("--length", "-T", type=int)
    p.add_argument("--replicates", type=int, default=1)
    p.add_argument("--gap-mean", type=float, default=3.0)
    add_common(p)
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("fit", help="fit a model to one or more data files")
    p.add_argument("--model", required=True, choices=MCMC_MODELS + ML_MODELS)
    p.add_argument("--data", required=True, nargs="+")
    p.add_argument("--priors", help="JSON file of prior settings")
    for name, field in MCMC_SETTINGS.items():
        p.add_argument("--" + name, type=int, default=getattr(DEFAULT_CONFIG, field))
    p.add_argument("--holdout", type=int, default=0,
                   help="withhold this many final observations from the fit")
    add_common(p)
    p.set_defaults(handler=cmd_fit)

    p = sub.add_parser("refresh", help="synchronize a tick CSV into returns")
    p.add_argument("--ticks", required=True)
    p.add_argument("--raw", action="store_true",
                   help="skip the one-second aggregation step")
    add_common(p)
    p.set_defaults(handler=cmd_refresh)

    p = sub.add_parser("forecast", help="forecast volatility from a fitted chain")
    p.add_argument("--model", required=True, choices=MCMC_MODELS)
    p.add_argument("--chain", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--holdout", type=int, default=44)
    p.add_argument("--horizons", type=str, default="1,5,10,22,44")
    p.add_argument("--draws-per-sample", type=int,
                   help="no effect: forecasts are exact; accepted so older command "
                        "lines still run")
    add_common(p)
    p.set_defaults(handler=cmd_forecast)

    p = sub.add_parser("compare", help="MAE table for forecast files vs holdout data")
    p.add_argument("--forecasts", required=True, nargs="+")
    p.add_argument("--data", required=True, help="full returns file incl. holdout")
    p.add_argument("--holdout", type=int, default=44)
    add_common(p)
    p.set_defaults(handler=cmd_compare)

    p = sub.add_parser("replay", help="re-run a recorded manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default=None, help="redirect outputs to this directory")
    p.set_defaults(handler=cmd_replay)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_help()
        return EXIT_VALIDATION
    try:
        code = args.handler(args)
    except (OSError, ValueError, KeyError, RuntimeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, OSError):
            return EXIT_IO
        return EXIT_VALIDATION if isinstance(exc, (ValueError, KeyError)) else EXIT_NUMERICAL
    return EXIT_OK if code is None else code


if __name__ == "__main__":
    sys.exit(main())
