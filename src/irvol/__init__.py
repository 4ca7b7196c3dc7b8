"""Volatility models for irregularly spaced financial time series.

Gap-time stochastic volatility (univariate and multivariate) with
Bayesian MCMC estimation, gap-time GARCH/ARCH with conditional ML
fitting, closed-form moment formulas, refresh-time synchronization of
asynchronous tick data, and a CLI (``irvol``) wiring it all together.
"""

__version__ = "0.1.0"
