"""Oracles shared by several test files, written apart from the package."""

from __future__ import annotations

import math

import numpy as np


def batch_se(values, n_batches=50):
    """Monte Carlo standard error of the mean via batch means."""
    values = np.asarray(values)
    usable = (values.size // n_batches) * n_batches
    batches = values[:usable].reshape(n_batches, -1).mean(axis=1)
    return float(batches.std(ddof=1) / math.sqrt(n_batches))


def brute_force_refresh(times):
    """Literal transcription of the refresh-time definition.

    N_t^i counts ticks of asset i at or before t; each next refresh time
    is the max over assets of tick number N_tau^i + 1 (one-based), and
    iteration stops when that index is out of range for some asset.
    """
    taus = [max(t[0] for t in times)]
    while True:
        nxt = []
        for t in times:
            n_at_tau = sum(1 for x in t if x <= taus[-1])
            if n_at_tau + 1 > len(t):
                return taus
            nxt.append(t[n_at_tau])
        taus.append(max(nxt))
