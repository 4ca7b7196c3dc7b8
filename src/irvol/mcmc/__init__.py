"""Bayesian estimation: priors, adaptive samplers, fitting, summaries."""
