"""Span tracing of one ``irvol`` CLI process, from outside the program.

Run as ``python perfbench/tracer.py SPANS.json <irvol arguments...>`` with
``src`` on ``PYTHONPATH``.  The launcher times the import of
``irvol.cli``, wraps public names where their caller module binds them,
calls ``irvol.cli.main`` and, at exit, writes every span it recorded.
A span is (name, start ns, end ns, parent index, counts): the counts are
taken at the same boundary, from the wrapped call's arguments and
result.  Spans stay in memory until the process ends.  A name the
program no longer has is skipped, so it records no calls.

``load`` and ``aggregate`` turn span files back into per-name totals,
self times (a span's duration minus the part its children cover) and
counts.
"""

from __future__ import annotations

import time

PROCESS_START_NS = time.perf_counter_ns()

import functools  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

_COUNT_ERRORS = (AttributeError, IndexError, KeyError, TypeError, ValueError, OSError)


class Recorder:
    """In-memory span list with a stack of open spans."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, name: str, fn, args, kwargs, counter=None):
        """Run fn(*args, **kwargs) inside a span named ``name``."""
        name_id = self._name_id(name)
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = [name_id, start, end, parent, None]
        if counter is not None:
            try:
                self.spans[index][4] = counter(args, kwargs, result)
            except _COUNT_ERRORS:
                pass
        return result

    def wrap(self, module, attr: str, name: str, counter=None) -> None:
        """Replace module.attr by a traced wrapper; skip a missing name."""
        original = getattr(module, attr, None)
        if original is None:
            return

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.call(name, original, args, kwargs, counter)

        setattr(module, attr, traced)

    def write(self, path, extra: dict) -> None:
        with open(path, "w") as handle:
            json.dump(dict(extra, names=self.names, spans=self.spans), handle)


def _fit_counts(args, kwargs, result):
    chain = result[0]
    data = args[0]
    sites = len(data) if hasattr(data, "gaps") else int(data.shape[0] * data.shape[1])
    return {"iterations": chain.config.n_iterations, "sites": sites,
            "h_accept": chain.acceptance_rates["h"]}


def install(recorder: Recorder) -> None:
    """Wrap the layer boundaries the benchmark reports on."""
    cli = importlib.import_module("irvol.cli")
    for stage in ("simulate", "refresh", "fit", "forecast", "compare"):
        recorder.wrap(cli, f"cmd_{stage}", f"cli.{stage}")
    recorder.wrap(cli, "read_ticks", "dataio.read_ticks",
                  lambda a, k, res: {"rows": sum(len(t) for t in res)})
    recorder.wrap(cli, "read_returns", "dataio.read_returns")
    recorder.wrap(cli, "write_returns", "dataio.write_returns")
    recorder.wrap(cli, "read_chain", "dataio.read_chain")
    recorder.wrap(cli, "write_chain", "dataio.write_chain",
                  lambda a, k, res: {"bytes": os.path.getsize(a[1])})
    recorder.wrap(cli, "refresh_sample", "refresh.refresh_sample",
                  lambda a, k, res: {"refresh_times": len(res)})
    recorder.wrap(cli, "fit_irsv", "mcmc.fit", _fit_counts)
    recorder.wrap(cli, "fit_irmsv", "mcmc.fit", _fit_counts)
    recorder.wrap(cli, "fit_ml", "irgarch.fit_ml")
    recorder.wrap(cli, "simulate_irgarch", "irgarch.simulate")
    fit = importlib.import_module("irvol.mcmc.fit")
    accepted = lambda a, k, res: {"accepted": int(res.accepted)}  # noqa: E731
    recorder.wrap(fit, "adaptive_rwm_scalar", "mcmc.samplers.scalar_step", accepted)
    recorder.wrap(fit, "correlation_block_step", "mcmc.samplers.corr_step", accepted)
    recorder.wrap(fit, "summarize", "mcmc.chain.summarize")
    irgarch = importlib.import_module("irvol.irgarch")
    minimize = getattr(irgarch, "minimize", None)
    if minimize is not None:
        # the objective irgarch hands to the optimizer is the log-likelihood
        def traced_minimize(fun, x0, *args, **kwargs):
            def objective(*fargs):
                return recorder.call("irgarch.loglik", fun, fargs, {})
            return minimize(objective, x0, *args, **kwargs)

        irgarch.minimize = traced_minimize


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    cli = recorder.call("cli.import", importlib.import_module, ("irvol.cli",), {})
    install(recorder)
    code = recorder.call("cli.main", cli.main, (cli_args,), {})
    recorder.write(spans_path, {"process_start_ns": PROCESS_START_NS,
                                "exit_code": code})
    return code


# --------------------------------------------------------------------------
# analysis
# --------------------------------------------------------------------------

def load(path) -> dict:
    with open(path) as handle:
        return json.load(handle)


def aggregate(span_files, outer: list[tuple[str, int, int]]) -> dict:
    """Per-name call counts, total and self nanoseconds and summed counts.

    ``span_files`` are loaded span files of the stage processes of one
    round; ``outer`` adds spans recorded by the benchmark itself (stage
    processes seen from outside), which have no children of their own
    here.
    """
    calls: dict[str, int] = {}
    total: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    counts: dict[str, dict[str, float]] = {}

    def add(name, duration, own, span_counts):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0) + duration
        self_ns[name] = self_ns.get(name, 0) + own
        for key, value in (span_counts or {}).items():
            bucket = counts.setdefault(name, {})
            bucket[key] = bucket.get(key, 0) + value

    for name, start, end in outer:
        add(name, end - start, end - start, None)
    for data in span_files:
        spans = data["spans"]
        child_ns = [0] * len(spans)
        for name_id, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for k, (name_id, start, end, parent, span_counts) in enumerate(spans):
            add(data["names"][name_id], end - start, end - start - child_ns[k], span_counts)
    return {"calls": calls, "total_ns": total, "self_ns": self_ns, "counts": counts}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
