"""Volatility models for irregularly spaced financial time series.

Gap-time stochastic volatility (univariate and multivariate) with
Bayesian MCMC estimation, gap-time GARCH/ARCH with conditional ML
fitting, closed-form moment formulas, refresh-time synchronization of
asynchronous tick data, and a CLI (``irvol``) wiring it all together.
"""

from irvol.core import (
    TickSeries,
    draw_positive_poisson,
    generate_gaps,
    scale_gaps,
)
from irvol.irgarch import (
    IrGarchParams,
    MlFit,
    conditional_loglik,
    filter_sigma2,
    fit_ml,
    simulate_irgarch,
)
from irvol.irmsv import (
    CorrelationMatrix,
    IrMsvParams,
    simulate_irmsv,
)
from irvol.irsv import (
    ForecastSummary,
    IrSvParams,
    forecast,
    simulate_irsv,
)
from irvol.refresh import RefreshResult, aggregate_one_second, refresh_sample, refresh_times

__version__ = "0.1.0"
