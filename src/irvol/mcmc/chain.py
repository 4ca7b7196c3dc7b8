"""Chain containers, posterior summaries, and effective sample size."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SUMMARY_PROBS = (0.025, 0.975)  # the summary's q2.5 and q97.5 columns


@dataclass(frozen=True)
class McmcConfig:
    """Run length and seed of one chain.

    Draws are stored at iterations burn_in + thin, burn_in + 2*thin, ...,
    n_iterations, so (n_iterations - burn_in) must be divisible by thin.
    """

    n_iterations: int
    burn_in: int
    thin: int = 1
    rng_seed: int = 0

    def __post_init__(self):
        if self.n_iterations < 1:
            raise ValueError("n_iterations must be positive")
        if not (0 <= self.burn_in < self.n_iterations):
            raise ValueError("burn_in must satisfy 0 <= burn_in < n_iterations")
        if self.thin < 1:
            raise ValueError("thin must be at least 1")
        if (self.n_iterations - self.burn_in) % self.thin != 0:
            raise ValueError("(n_iterations - burn_in) must be divisible by thin")

    @property
    def n_draws(self) -> int:
        return (self.n_iterations - self.burn_in) // self.thin


@dataclass(frozen=True)
class McmcChain:
    """Stored draws (rows) for named quantities (columns), with the
    post-burn-in acceptance rates and the config of the run that drew them.

    Latent-state columns are named h_<site> (univariate) or
    h<asset>_<site> (multivariate) alongside the model parameters.
    """

    names: tuple[str, ...]
    draws: np.ndarray
    acceptance_rates: dict[str, float]
    config: McmcConfig

    def __post_init__(self):
        names = tuple(self.names)
        draws = np.asarray(self.draws, dtype=float)
        if draws.ndim != 2:
            raise ValueError("draws must be a (n_draws, n_names) matrix")
        if draws.shape[1] != len(names):
            raise ValueError("one column per name is required")
        if len(set(names)) != len(names):
            raise ValueError("chain names must be unique")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "draws", draws)
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})

    @property
    def n_draws(self) -> int:
        return self.draws.shape[0]

    def column(self, name: str) -> np.ndarray:
        try:
            return self.draws[:, self._index[name]]
        except KeyError:
            raise KeyError(f"no chain column named {name}") from None


@dataclass(frozen=True)
class ParameterSummary:
    mean: float
    sd: float
    quantiles: dict[float, float]
    ess: float


def effective_sample_size(x) -> float:
    """ESS via Geyer's initial monotone sequence estimator.

    Autocovariances are computed by FFT; consecutive-lag pairs are summed,
    truncated at the first nonpositive pair, and forced nonincreasing
    before forming the integrated autocorrelation time.
    """
    arr = np.asarray(x, dtype=float)
    n = arr.size
    if n < 4:
        return float(n)
    centered = arr - arr.mean()
    if not np.any(centered):
        return float(n)
    m = 1 << (2 * n - 1).bit_length()  # the least power of two >= 2n
    spec = np.fft.rfft(centered, m)
    acov = np.fft.irfft(spec * np.conj(spec), m)[:n].real / n
    rho = acov / acov[0]
    pairs = rho[:-1:2] + rho[1::2]  # rho_2k + rho_2k+1 for every whole pair of lags
    pairs = pairs[: np.argmax(np.append(pairs <= 0.0, True))]  # up to the first sum <= 0
    iact = max(1.0, 2.0 * float(np.sum(np.minimum.accumulate(pairs))) - 1.0)
    return float(min(n, n / iact))


def summarize(chain: McmcChain) -> dict[str, ParameterSummary]:
    """Mean, sd, the interpolated 2.5% and 97.5% quantiles, and ESS for every
    chain column, in column order."""
    if chain.n_draws < 1:
        raise ValueError("cannot summarize an empty chain")
    out: dict[str, ParameterSummary] = {}
    for name in chain.names:
        col = chain.column(name)
        sd = float(np.std(col, ddof=1)) if col.size > 1 else 0.0
        qs = np.quantile(col, SUMMARY_PROBS, method="linear")
        out[name] = ParameterSummary(
            mean=float(col.mean()),
            sd=sd,
            quantiles={q: float(v) for q, v in zip(SUMMARY_PROBS, qs)},
            ess=effective_sample_size(col),
        )
    return out
