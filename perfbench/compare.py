"""Compare benchmark results of two commits, workload by workload.

    python3 perfbench/compare.py --base parent-*.json --change change-*.json

Each file is the output of ``sweep.py`` for one workload (same seeds and
``--seconds`` on both sides).  For every workload and metric it prints
both medians with their quartiles, the change of the median, the
parent's quartile spread as a share of its median and the metric's
bound from ``BENCHMARK.json``.  The verdict of an end-to-end metric is

* ``worse``: the median moved the wrong way by more than the bound;
* ``unresolved``: the parent's own spread is wider than the bound, unless
  every run of the change beats every run of the parent;
* ``ok`` otherwise.

Per-layer metrics have no bound and get no verdict.  The exit code is 1
when an end-to-end metric is ``worse``, or on any workload the share of
failed operations rose or an observation's total count rose (items that
break a comparison a known program fault breaks on some seeds, such as
ML fits that end below the nested ARCH optimum or do not converge),
else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(paths) -> dict[str, dict]:
    out = {}
    for path in paths:
        data = json.loads(Path(path).read_text())
        out[f"{data['workload']} (trace {data['trace']})"] = data
    return out


def values(data, name) -> list[float]:
    return [run["result"]["metrics"][name]["value"] for run in data["runs"]
            if name in run["result"]["metrics"]]


def verdict(base, change, row, spec) -> str:
    if spec is None or "bound" not in spec:
        return "-"
    sign = 1.0 if spec["better"] == "lower" else -1.0
    moved = sign * (change["median"] - base["median"]) / abs(base["median"])
    beats_all = (max(sign * v for v in row["change"]) < min(sign * v for v in row["base"]))
    if moved > spec["bound"]:
        return "worse"
    if base["spread"] > spec["bound"] and not beats_all:
        return "unresolved"
    return "ok"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True, help="sweep files of the parent")
    parser.add_argument("--change", nargs="+", required=True, help="sweep files of the change")
    args = parser.parse_args(argv)
    bench = json.loads(BENCHMARK.read_text())
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base_all, change_all = load(args.base), load(args.change)
    status = 0
    for workload in sorted(set(base_all) & set(change_all)):
        base, change = base_all[workload], change_all[workload]
        b_sum, c_sum = base["summary"], change["summary"]
        b_share = b_sum["failed"] / max(b_sum["attempted"], 1)
        c_share = c_sum["failed"] / max(c_sum["attempted"], 1)
        print(f"\n{workload}: failed share {b_share:.4%} -> {c_share:.4%}")
        if c_share > b_share:
            print("  the share of failed operations rose")
            status = 1
        b_obs, c_obs = b_sum.get("observed", {}), c_sum.get("observed", {})
        for name in sorted(set(b_obs) | set(c_obs)):
            before = b_obs.get(name, (0.0, 0.0))[1]
            after = c_obs.get(name, (0.0, 0.0))[1]
            print(f"  observed {name}: {before:g} -> {after:g}")
            if after > before:
                print(f"  the count of {name} rose")
                status = 1
        print(f"  {'metric':32s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s}"
              f" {'change':>8s} {'spread':>7s} {'bound':>6s}  verdict")
        for name in b_sum["metrics"]:
            if name not in c_sum["metrics"]:
                continue
            b, c = b_sum["metrics"][name], c_sum["metrics"][name]
            row = {"base": values(base, name), "change": values(change, name)}
            spec = specs.get(name)
            result = verdict(b, c, row, spec)
            if result == "worse":
                status = 1
            delta = (c["median"] - b["median"]) / abs(b["median"]) if b["median"] else 0.0
            bound = f"{spec['bound']:.2f}" if spec and "bound" in spec else "-"
            print(f"  {name:32s} {b['median']:>12.5g} [{b['q1']:.5g}, {b['q3']:.5g}]"
                  f" {c['median']:>12.5g} [{c['q1']:.5g}, {c['q3']:.5g}]"
                  f" {delta:>+8.2%} {b['spread']:>7.2%} {bound:>6s}  {result}")
    return status


if __name__ == "__main__":
    sys.exit(main())
