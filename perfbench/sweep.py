"""Run the benchmark over many seeds and summarize metrics and check margins.

    python3 perfbench/sweep.py --workload sv-gaps --seeds 1-10 --seconds 30 \
        --out .perfbench_out/sweep-sv-gaps.json

Runs ``run.py`` once per seed, one run at a time, from the checkout root.
The output file keeps every run's result line and check values; the
summary printed at the end gives, per metric, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of
the median, per check the worst value over all seeds against its limit,
and per observation (a count of items that break a comparison a known
program fault breaks on some seeds) its total over all seeds.  ``compare.py`` reads two such files.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for piece in text.split(","):
        lo, _, hi = piece.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(runs) -> dict:
    metrics: dict[str, list[float]] = {}
    checks: dict[str, tuple[float, float]] = {}
    observed: dict[str, list] = {}
    for run in runs:
        for name, entry in run["result"]["metrics"].items():
            metrics.setdefault(name, []).append(entry["value"])
        for name, (value, limit) in run["checks"].items():
            worst = checks.get(name, (-float("inf"), limit))[0]
            checks[name] = (max(worst, value), limit)
        for name, (value, _) in run["observations"].items():
            worst, total = observed.get(name, (0.0, 0.0))
            observed[name] = [max(worst, value), total + value]
    table = {}
    for name, values in metrics.items():
        q1, med, q3 = quartiles(values)
        table[name] = {"median": med, "q1": q1, "q3": q3,
                       "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}
    attempted = sum(run["result"]["attempted"] for run in runs)
    failed = sum(run["result"]["failed"] for run in runs)
    return {"metrics": table, "checks": checks, "observed": observed,
            "attempted": attempted, "failed": failed,
            "all_correct": all(run["result"]["correct"] for run in runs)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    runs = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        run_dir = Path(".perfbench_out") / f"{args.workload}-seed{seed}-trace{args.trace}"
        detail = json.loads((run_dir / "result.json").read_text())
        runs.append({"seed": seed, "result": result, "checks": detail["checks"],
                     "observations": detail["observations"], "rounds": detail["rounds"]})
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} rounds={detail['rounds']} {values}", flush=True)
        if proc.stderr.strip():
            print(proc.stderr.strip(), file=sys.stderr)

    summary = summarize(runs)
    Path(args.out).write_text(json.dumps({"workload": args.workload, "trace": args.trace,
                                          "seconds": args.seconds, "runs": runs,
                                          "summary": summary}, indent=1))
    print(f"\n{args.workload}: attempted {summary['attempted']}, failed {summary['failed']}, "
          f"all correct {summary['all_correct']}")
    for name, row in summary["metrics"].items():
        print(f"  {name:34s} median {row['median']:.6g}  q1 {row['q1']:.6g}  "
              f"q3 {row['q3']:.6g}  spread {row['spread']:.2%}")
    for name, (value, limit) in summary["checks"].items():
        print(f"  check {name:32s} worst {value:.6g}  limit {limit:.6g}")
    for name, (worst, total) in summary["observed"].items():
        print(f"  observed {name:29s} {total:g} in all runs, at most {worst:g} in one")
    return 0


if __name__ == "__main__":
    sys.exit(main())
