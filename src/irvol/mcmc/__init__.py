"""Bayesian estimation: priors, adaptive samplers, fitting, summaries."""

from irvol.mcmc.chain import (
    McmcChain,
    McmcConfig,
    ParameterSummary,
    effective_sample_size,
    summarize,
)
from irvol.mcmc.fit import DEFAULT_CONFIG, asset_draws, fit_irmsv, fit_irsv
from irvol.mcmc.priors import IrMsvPriors, IrSvPriors
from irvol.mcmc.samplers import (
    AdaptiveScale,
    adaptive_rwm_scalar,
    correlation_block_step,
)

__all__ = [
    "AdaptiveScale",
    "DEFAULT_CONFIG",
    "IrMsvPriors",
    "IrSvPriors",
    "McmcChain",
    "McmcConfig",
    "ParameterSummary",
    "adaptive_rwm_scalar",
    "asset_draws",
    "correlation_block_step",
    "effective_sample_size",
    "fit_irmsv",
    "fit_irsv",
    "summarize",
]
