"""Shared fixtures: one real round of each workload, run through the CLI."""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture(scope="session")
def real_round(tmp_path_factory):
    """Return a function giving (workload, inputs, out dir) of a checked round."""
    cache = {}

    def get(name: str):
        if name not in cache:
            base = tmp_path_factory.mktemp(name)
            (base / "inputs").mkdir()
            workload = WORKLOADS[name]
            inputs = workload.build(7, base / "inputs")
            results = run.run_round(workload, inputs, base / "round", run.stage_env(ROOT),
                                    traced=False)
            assert all(res.code == 0 for res in results)
            assert all(not res.checks.failures() for res in results)
            cache[name] = (workload, inputs, base / "round")
        return cache[name]

    return get


@pytest.fixture
def copy_round(real_round, tmp_path):
    """A private copy of a real round's outputs that a test may perturb."""

    def get(name: str):
        workload, inputs, out = real_round(name)
        target = tmp_path / "round"
        shutil.copytree(out, target)
        return workload, inputs, target

    return get
