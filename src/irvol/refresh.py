"""Multi-asset synchronization: one-second aggregation and refresh sampling.

A refresh time is the first instant at which every asset has traded at
least once since the previous refresh time.  Starting from
tau_1 = max over assets of the first tick time, each subsequent tau is
the maximum over assets of the first tick strictly after the current tau;
iteration stops as soon as some asset has no further tick.  Prices are
sampled previous-tick style: the most recent tick at or before each tau.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from irvol.core import TickSeries, _as_1d_floats


@dataclass(frozen=True)
class RefreshResult:
    """Synchronized prices on the common refresh-time grid.

    ``refresh_times`` is strictly increasing, and ``prices[i, j]`` is the
    last observed price of asset i at or before ``refresh_times[j]``.
    """

    refresh_times: np.ndarray
    prices: np.ndarray

    def __len__(self) -> int:
        return self.refresh_times.size


def refresh_times(tick_times: Sequence) -> np.ndarray:
    """Common refresh-time grid for two or more tick-time sequences."""
    if len(tick_times) == 0:
        raise ValueError("refresh sampling needs at least one asset's tick times")
    if len(tick_times) < 2:
        raise ValueError("refresh sampling needs at least two assets")
    times = []
    for k, t in enumerate(tick_times):
        arr = _as_1d_floats(t, f"tick times of asset {k}")
        if arr.size == 0:
            raise ValueError(f"asset {k} has no ticks")
        if np.any(np.diff(arr) <= 0):
            raise ValueError(f"tick times of asset {k} must be strictly increasing")
        times.append(arr)

    tau = max(float(t[0]) for t in times)
    out = [tau]
    # idx[i]: index of the first tick of asset i strictly after the current tau
    idx = [int(np.searchsorted(t, tau, side="right")) for t in times]
    while all(idx[i] < times[i].size for i in range(len(times))):
        tau = max(float(times[i][idx[i]]) for i in range(len(times)))
        out.append(tau)
        idx = [int(np.searchsorted(t, tau, side="right")) for t in times]
    return np.array(out)


def aggregate_one_second(ticks: TickSeries) -> TickSeries:
    """Collapse ticks to one per populated second.

    Each output tick sits on the end-of-interval second boundary (the
    second covering (k-1, k] is labeled k) and carries the last price
    observed within that second.  Empty seconds produce no output.
    """
    labels = np.ceil(ticks.timestamps)
    last_of_run = np.flatnonzero(np.diff(labels) != 0)
    idx = np.append(last_of_run, labels.size - 1)
    return TickSeries(ticks.asset_id, labels[idx], ticks.prices[idx])


def refresh_sample(ticks: Sequence[TickSeries]) -> RefreshResult:
    """Synchronize tick series onto the refresh-time grid.

    For each refresh time and asset the most recent tick at or before it
    is sampled (previous-tick convention, no look-ahead).
    """
    tau = refresh_times([t.timestamps for t in ticks])
    p = len(ticks)
    prices = np.empty((p, tau.size))
    for i, series in enumerate(ticks):
        pos = np.searchsorted(series.timestamps, tau, side="right") - 1
        prices[i] = series.prices[pos]
    return RefreshResult(tau, prices)
