"""Core types and gap-time utilities for irregularly spaced series.

An irregularly spaced series is a set of observations at strictly
increasing times t_1 < ... < t_T.  The gap times g_j = t_j - t_{j-1}
(j >= 2) drive every model in this package: persistence parameters get
raised to the power g_j, so gap times are usually rescaled into (0, 1]
to keep those powers bounded away from zero.  A gap sequence is a plain
float array throughout, and ``gap_values`` is the one check of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TIME_TOL = 1e-9  # absolute tolerance for timestamp arithmetic
LOG_2PI = math.log(2.0 * math.pi)


def _as_1d_floats(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TickSeries:
    """Trade ticks of one asset: strictly increasing times, positive prices.

    Timestamps are fractional seconds since an arbitrary epoch; equality is
    only meaningful to within ``TIME_TOL``.
    """

    asset_id: str
    timestamps: np.ndarray
    prices: np.ndarray

    def __post_init__(self):
        ts = _as_1d_floats(self.timestamps, "timestamps")
        px = _as_1d_floats(self.prices, "prices")
        if ts.size != px.size:
            raise ValueError("timestamps and prices must have equal length")
        if ts.size < 1:
            raise ValueError("a tick series needs at least one observation")
        if np.any(np.diff(ts) <= 0):
            raise ValueError(
                f"timestamps of {self.asset_id!r} must be strictly increasing"
            )
        if np.any(px <= 0):
            raise ValueError(f"prices of {self.asset_id!r} must be positive")
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "prices", px)

    def __len__(self) -> int:
        return self.timestamps.size


def gap_values(gaps, count: int | None = None, max_one: bool = False) -> np.ndarray:
    """The one check of a gap sequence: a read-only one-dimensional array of
    positive, finite floats.

    With ``count`` the first ``count`` entries are returned (erroring when
    fewer are available); ``max_one`` additionally requires gaps in (0, 1],
    as the stochastic volatility models take them.
    """
    g = _as_1d_floats(gaps, "gaps")
    if np.any(g <= 0):
        raise ValueError("gap times must be positive")
    if max_one and np.any(g > 1.0):
        raise ValueError("gaps must be scaled into (0, 1]; rescale them first")
    if count is not None:
        if count < 0:
            raise ValueError("count must be nonnegative")
        if g.size < count:
            raise ValueError(f"need {count} gap values but only {g.size} are available")
        g = g[:count]
    return g


def scale_gaps(gaps) -> tuple[np.ndarray, float]:
    """Divide gap times by their maximum so they lie in (0, 1].

    Returns the scaled gaps and the divisor, so ``gaps * factor`` recovers
    the original time units.  Idempotent: gaps whose maximum is already 1
    come back unchanged with a factor of 1.
    """
    g = gap_values(gaps)
    if g.size == 0:
        raise ValueError("cannot scale an empty gap sequence")
    m = float(np.max(g))
    return g / m, m


def squared_returns(returns) -> np.ndarray:
    """Squares of a (T,) or (p, T) return array, checked finite.

    A return whose square is not finite raises RuntimeError naming its
    row: the 1-based observation index, the line of a returns file below
    its header.
    """
    r = np.asarray(returns, dtype=float)
    with np.errstate(over="ignore"):
        r2 = r * r
    bad = ~np.isfinite(np.atleast_2d(r2))
    if bad.any():
        j = int(np.argmax(bad.any(axis=0)))
        value = float(np.atleast_2d(r)[np.argmax(bad[:, j]), j])
        raise RuntimeError(f"the return in row {j + 1} ({value!r}) overflows when squared")
    return r2


# The means draw_positive_poisson takes.  Below the lower end nearly every
# draw is a zero, and redrawing them takes about log(count) / mean rounds;
# above the upper end draws near 2**53 stop being exact float integers, and
# numpy refuses means above about 9.2e18.
POISSON_MEAN_RANGE = (0.1, 1e15)


def draw_positive_poisson(count: int, mean: float = 3.0, seed=None) -> np.ndarray:
    """Zero-truncated Poisson draws: Poisson(mean) conditioned on being > 0.

    Zeros are rejected and redrawn, which preserves the zero-truncated
    distribution exactly.  Deterministic for a fixed seed.
    """
    low, high = POISSON_MEAN_RANGE
    if count < 1:
        raise ValueError("count must be at least 1")
    if not low <= mean <= high:
        raise ValueError(f"mean must lie in [{low:g}, {high:g}], not {mean}")
    rng = np.random.default_rng(seed)
    out = rng.poisson(mean, size=count).astype(float)
    mask = out == 0
    while mask.any():
        out[mask] = rng.poisson(mean, size=int(mask.sum()))
        mask = out == 0
    return out


def generate_gaps(count: int, mean: float = 3.0, seed=None) -> np.ndarray:
    """Draw zero-truncated Poisson gap times and rescale them into (0, 1]."""
    return scale_gaps(draw_positive_poisson(count, mean, seed))[0]
