"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload sv-gaps --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the program is imported from ``src``.
Set-up builds the workload's inputs from the seed and starts ``irvol``
once; both are repeated ``SETUPS`` times and the median is ``setup_s``.
Then whole rounds run until the next one would overrun ``--seconds``
(at least one).  A round starts each stage as a fresh
``python -m irvol.cli ... --threads 1`` process, one at a time, and
checks every stage's output once the round is over.  Each stage is one
operation; it fails when its process exits non-zero or its output fails
a check.  ``wall_s`` is the median over rounds of the time from the
first stage's start to the last stage's end.

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` rounds alternate between plain and traced (stages started
through ``tracer.py``), and the metrics are the per-layer ones, taken
from the traced rounds; traced rounds must write byte-identical outputs
to the plain ones.  Results and outputs go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks as ck  # noqa: E402
import oracles  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUPS = 3
OUT_DIR = ".perfbench_out"
HERE = Path(__file__).resolve().parent
UNITS = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "cli.import_s": "s", "cli.simulate_s": "s", "cli.refresh_s": "s", "cli.fit_s": "s",
    "cli.forecast_s": "s", "cli.compare_s": "s", "cli.self_s": "s",
    "dataio.read_ticks_s": "s", "dataio.read_ticks_rows_per_s": "1/s",
    "dataio.write_returns_s": "s", "dataio.read_returns_s": "s",
    "dataio.write_chain_s": "s", "dataio.read_chain_s": "s", "dataio.chain_mb": "MB",
    "refresh.refresh_sample_s": "s", "refresh.us_per_refresh_time": "us",
    "refresh.refresh_times": "count",
    "mcmc.fit.iterations": "count", "mcmc.fit.ms_per_iter": "ms",
    "mcmc.fit.self_ns_per_site": "ns",
    "mcmc.samplers.scalar_steps": "count", "mcmc.samplers.scalar_step_us": "us",
    "mcmc.samplers.scalar_accept": "ratio",
    "mcmc.samplers.corr_steps": "count", "mcmc.samplers.corr_step_us": "us",
    "mcmc.samplers.corr_accept": "ratio",
    "mcmc.chain.summarize_s": "s", "mcmc.h_accept": "ratio",
    "mcmc.min_ess": "count", "mcmc.min_ess_per_s": "1/s", "mcmc.h_ess_median": "count",
    "irgarch.fit_ml_s": "s", "irgarch.loglik_evals": "count", "irgarch.us_per_loglik": "us",
    "irgarch.simulate_s": "s",
    "trace.overhead_s": "s",
}
# single-threaded numerics, as --threads 1 asks of the program itself
STAGE_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class StageResult:
    def __init__(self, name: str, start_ns: int, end_ns: int, rss_kb: int, code: int):
        self.name = name
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.rss_kb = rss_kb
        self.code = code
        self.checks = ck.Checks()

    @property
    def wall_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


def stage_env(root: Path) -> dict:
    env = dict(os.environ, **STAGE_ENV)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_process(argv, env, log_path):
    """Start one process and wait for it.

    Returns (start ns, end ns, peak RSS KB, exit code).
    """
    with open(log_path, "w") as log:
        start = time.perf_counter_ns()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        end = time.perf_counter_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, end, usage.ru_maxrss, proc.returncode


def run_round(workload, inputs, out: Path, env, traced: bool) -> list[StageResult]:
    """Run every stage once, then check the outputs."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    (out / "logs").mkdir()
    results = []
    for stage in workload.stages(inputs, out):
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"),
                    str(out / "logs" / f"{stage.name}.spans.json"), *stage.args]
        else:
            argv = [sys.executable, "-m", "irvol.cli", *stage.args]
        timing = run_process(argv, env, out / "logs" / f"{stage.name}.log")
        results.append(StageResult(stage.name, *timing))
    for res in results:
        if res.code != 0:
            continue
        try:
            workload.check(res.name, inputs, out, res.checks)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            res.checks.count(f"{res.name}.readable ({exc!r})", 1)
    return results


def round_wall_s(results) -> float:
    """From the first stage's start to the last stage's end."""
    return (results[-1].end_ns - results[0].start_ns) / 1e9


def snapshot(paths) -> dict[str, bytes]:
    return {str(p): p.read_bytes() for p in paths if p.exists()}


# --------------------------------------------------------------------------
# per-layer metrics of one traced round
# --------------------------------------------------------------------------

def chain_ess(out: Path) -> tuple[float, float]:
    """(min ESS over parameter columns, median ESS over latent columns)."""
    chains = sorted((out / "fit").glob("*.chain.csv")) if (out / "fit").exists() else []
    if not chains:
        return 0.0, 0.0
    names, draws = ck.read_chain_file(chains[0])
    ess = [oracles.geyer_ess(draws[:, k]) for k in range(len(names))]
    params = [e for n, e in zip(names, ess) if not n.startswith("h")]
    latent = [e for n, e in zip(names, ess) if n.startswith("h")]
    return min(params), statistics.median(latent)


def layer_metrics(results, out: Path) -> dict[str, float]:
    files, outer = [], []
    for res in results:
        outer.append((f"stage.{res.name}", res.start_ns, res.end_ns))
        path = out / "logs" / f"{res.name}.spans.json"
        if not path.exists():
            continue
        data = tracer.load(path)
        files.append(data)
        main_end = max((s[2] for s in data["spans"]), default=res.end_ns)
        outer.append(("proc.startup", res.start_ns, data["process_start_ns"]))
        outer.append(("proc.exit", main_end, res.end_ns))
    agg = tracer.aggregate(files, outer)
    calls, total, self_ns, counts = agg["calls"], agg["total_ns"], agg["self_ns"], agg["counts"]

    def sec(name):
        return total.get(name, 0) / 1e9

    def count(name, key):
        return counts.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    fit_iters = count("mcmc.fit", "iterations")
    site_updates = sum(s[4]["iterations"] * s[4]["sites"] for d in files for s in d["spans"]
                       if d["names"][s[0]] == "mcmc.fit" and s[4])
    scalar = "mcmc.samplers.scalar_step"
    corr = "mcmc.samplers.corr_step"
    min_ess, h_ess = chain_ess(out)
    m = {
        "cli.import_s": sec("cli.import"),
        "cli.self_s": (self_ns.get("cli.main", 0)
                       + sum(self_ns.get(f"cli.{s}", 0) for s in
                             ("simulate", "refresh", "fit", "forecast", "compare"))) / 1e9,
        "dataio.read_ticks_s": sec("dataio.read_ticks"),
        "dataio.read_ticks_rows_per_s": ratio(count("dataio.read_ticks", "rows"),
                                              sec("dataio.read_ticks")),
        "dataio.write_returns_s": sec("dataio.write_returns"),
        "dataio.read_returns_s": sec("dataio.read_returns"),
        "dataio.write_chain_s": sec("dataio.write_chain"),
        "dataio.read_chain_s": sec("dataio.read_chain"),
        "dataio.chain_mb": count("dataio.write_chain", "bytes") / 1e6,
        "refresh.refresh_sample_s": sec("refresh.refresh_sample"),
        "refresh.us_per_refresh_time": 1e6 * ratio(sec("refresh.refresh_sample"),
                                                   count("refresh.refresh_sample",
                                                         "refresh_times")),
        "refresh.refresh_times": count("refresh.refresh_sample", "refresh_times"),
        "mcmc.fit.iterations": fit_iters,
        "mcmc.fit.ms_per_iter": 1e3 * ratio(sec("mcmc.fit"), fit_iters),
        "mcmc.fit.self_ns_per_site": ratio(self_ns.get("mcmc.fit", 0), site_updates),
        "mcmc.samplers.scalar_steps": calls.get(scalar, 0),
        "mcmc.samplers.scalar_step_us": 1e6 * ratio(sec(scalar), calls.get(scalar, 0)),
        "mcmc.samplers.scalar_accept": ratio(count(scalar, "accepted"), calls.get(scalar, 0)),
        "mcmc.samplers.corr_steps": calls.get(corr, 0),
        "mcmc.samplers.corr_step_us": 1e6 * ratio(sec(corr), calls.get(corr, 0)),
        "mcmc.samplers.corr_accept": ratio(count(corr, "accepted"), calls.get(corr, 0)),
        "mcmc.chain.summarize_s": sec("mcmc.chain.summarize"),
        "mcmc.h_accept": ratio(count("mcmc.fit", "h_accept"), calls.get("mcmc.fit", 0)),
        "mcmc.min_ess": min_ess,
        "mcmc.min_ess_per_s": ratio(min_ess, sec("mcmc.fit")),
        "mcmc.h_ess_median": h_ess,
        "irgarch.fit_ml_s": sec("irgarch.fit_ml"),
        "irgarch.loglik_evals": calls.get("irgarch.loglik", 0),
        "irgarch.us_per_loglik": 1e6 * ratio(sec("irgarch.loglik"),
                                             calls.get("irgarch.loglik", 0)),
        "irgarch.simulate_s": sec("irgarch.simulate"),
    }
    for stage in ("simulate", "refresh", "fit", "forecast", "compare"):
        m[f"cli.{stage}_s"] = sec(f"cli.{stage}")
    return m


def covered(results, out: Path) -> bool:
    """The spans of each stage cover at least 99 % of it.

    A stage is the process's start-up before the tracer's first
    instruction, the tracer's top-level spans (``cli.import`` and
    ``cli.main``) and its exit after the last of them; the small rest is
    the tracer's own set-up between the spans.
    """
    for res in results:
        path = out / "logs" / f"{res.name}.spans.json"
        if not path.exists():
            return False
        data = tracer.load(path)
        top = [(s[1], s[2]) for s in data["spans"] if s[3] < 0]
        if not top or data["process_start_ns"] < res.start_ns or \
                max(end for _, end in top) > res.end_ns:
            return False
        spans_ns = ((data["process_start_ns"] - res.start_ns)
                    + sum(end - start for start, end in top)
                    + (res.end_ns - max(end for _, end in top)))
        if spans_ns < 0.99 * (res.end_ns - res.start_ns):
            return False
    return True


# --------------------------------------------------------------------------
# main
# --------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "irvol" / "cli.py").is_file():
        print(f"error: no irvol sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run_dir = root / OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    env = stage_env(root)

    setup_s = []
    for k in range(SETUPS):
        start = time.perf_counter_ns()
        directory = run_dir / f"inputs{k}"
        directory.mkdir()
        inputs = workload.build(args.seed, directory)
        *_, code = run_process([sys.executable, "-m", "irvol.cli", "--version"], env,
                               run_dir / f"warmup{k}.log")
        end = time.perf_counter_ns()
        if code != 0:
            print(f"error: irvol failed to start (exit {code}); see {run_dir}",
                  file=sys.stderr)
            return 1
        setup_s.append((end - start) / 1e9)

    out = run_dir / "round"
    plain, traced, layers = [], [], []
    attempted = failed = 0
    correct = True
    reference = None
    check_values: dict[str, tuple[float, float]] = {}
    observed: dict[str, tuple[float, float]] = {}
    stage_walls: dict[str, list[float]] = {}
    passes = 0
    began = time.perf_counter()
    while True:
        for is_traced in ((False, True) if args.trace else (False,)):
            results = run_round(workload, inputs, out, env, is_traced)
            attempted += len(results)
            for res in results:
                for table, entries in ((check_values, res.checks.results),
                                       (observed, res.checks.observations)):
                    for name, value, limit in entries:
                        worst = table.get(name, (-math.inf, limit))[0]
                        table[name] = (max(worst, value), limit)
                bad = res.checks.failures()
                failed += int(res.code != 0 or bool(bad))
                if bad:
                    correct = False
                    print(f"check failed: {res.name}: {bad}", file=sys.stderr)
                elif res.code != 0:
                    print(f"stage failed: {res.name} exited {res.code}", file=sys.stderr)
            if any(res.code != 0 for res in results):
                continue
            outputs = snapshot(workload.deterministic_outputs(out))
            if not is_traced:
                reference = reference or outputs
                for res in results:
                    stage_walls.setdefault(res.name, []).append(res.wall_s)
                plain.append({"wall": round_wall_s(results),
                              "peak_mb": max(res.rss_kb for res in results) / 1024.0})
                continue
            traced.append(round_wall_s(results))
            if outputs != reference or not covered(results, out):
                correct = False
                print("traced round differs from the plain one or has gaps",
                      file=sys.stderr)
            else:
                layers.append(layer_metrics(results, out))
        passes += 1
        spent = time.perf_counter() - began
        if spent + spent / passes > args.seconds:
            break

    def median_of(key):
        return statistics.median(r[key] for r in plain) if plain else math.nan

    if args.trace:
        metrics = {name: statistics.median(m[name] for m in layers)
                   for name in (layers[0] if layers else [])}
        metrics["trace.overhead_s"] = (statistics.median(traced) - median_of("wall")
                                       if traced else math.nan)
    else:
        metrics = {"wall_s": median_of("wall"), "setup_s": statistics.median(setup_s),
                   "peak_rss_mb": median_of("peak_mb")}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": UNITS[k]}
                          for k, v in metrics.items()}}
    with open(run_dir / "result.json", "w") as handle:
        json.dump(dict(result, rounds=len(plain), plain_rounds=plain,
                       traced_wall_s=traced, setup_runs_s=setup_s,
                       stage_wall_s=stage_walls, checks=check_values,
                       observations=observed), handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
