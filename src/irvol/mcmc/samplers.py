"""Random-walk Metropolis steps with acceptance-rate adaptation."""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from irvol.irmsv import corr_from_lower, lower_index

ADAPT_INTERVAL = 200  # observations per adaptation round


class AdaptiveScale:
    """Proposal scales tuned toward a target acceptance rate on one clock.

    ``values`` is a 1-D array of scales; a number gives a single scale.
    Each ``observe(accepted)`` records one accept flag per scale.  Every
    ``ADAPT_INTERVAL`` observations each scale is multiplied by
    exp((rate - target) / sqrt(round)), a Robbins-Monro step decaying
    with the adaptation round, and kept in [1e-8, 1e6].  Call
    ``freeze()`` at the end of burn-in; a frozen scale never changes
    again, which keeps the post-burn-in chain a genuine Markov chain.
    ``accepted`` counts each scale's accepts since the last adaptation
    round or, once frozen, since ``freeze()``.
    """

    __slots__ = ("values", "target", "frozen", "accepted", "_seen", "_round")

    def __init__(self, values, target: float):
        values = np.array(values, dtype=float, ndmin=1)
        if values.ndim != 1 or not np.all(values > 0):
            raise ValueError("the initial scales must be positive")
        if not (0.0 < target < 1.0):
            raise ValueError("the target acceptance rate must lie in (0, 1)")
        self.values = values
        self.target = float(target)
        self.frozen = False
        self.accepted = np.zeros(values.size)
        self._seen = 0
        self._round = 0

    def observe(self, accepted) -> None:
        self.accepted += accepted
        if self.frozen:
            return
        self._seen += 1
        if self._seen >= ADAPT_INTERVAL:
            self._round += 1
            rates = self.accepted / self._seen
            self.values *= np.exp((rates - self.target) / math.sqrt(self._round))
            np.clip(self.values, 1e-8, 1e6, out=self.values)
            self.accepted[:] = 0.0
            self._seen = 0

    def freeze(self) -> None:
        self.frozen = True
        self.accepted[:] = 0.0


def _metropolis(proposal_lp: float, current_lp: float, rng: np.random.Generator) -> bool:
    """Accept with probability min(1, exp(proposal_lp - current_lp)).

    A -inf proposal is always rejected and a -inf current point always
    left; only the remaining case draws a uniform.
    """
    if proposal_lp == -math.inf:
        return False
    if current_lp == -math.inf:
        return True
    return math.log(rng.random()) < proposal_lp - current_lp


class Step(NamedTuple):
    value: float | np.ndarray
    accepted: bool


def adaptive_rwm_scalar(current: float, log_target: Callable[[float], float],
                        scale: AdaptiveScale, rng: np.random.Generator,
                        current_log_target: float | None = None) -> Step:
    """One adaptive random-walk Metropolis update of a scalar.

    Proposes current + scale * z with z standard normal and accepts with
    probability min(1, exp(log_target(proposal) - log_target(current))).
    Passing ``current_log_target`` skips re-evaluating the target at the
    current point.  A -inf proposal target is always rejected.
    """
    if current_log_target is None:
        current_log_target = log_target(current)
    proposal = current + float(scale.values[0]) * rng.standard_normal()
    proposal_lp = log_target(proposal)
    accepted = _metropolis(proposal_lp, current_log_target, rng)
    scale.observe(accepted)
    return Step(proposal, True) if accepted else Step(current, False)


def correlation_block_step(corr: np.ndarray, scale: AdaptiveScale,
                           rng: np.random.Generator,
                           log_target: Callable[[np.ndarray, np.ndarray], float],
                           current_log_target: float | None = None) -> Step:
    """Joint random-walk update of all free correlations.

    The p(p-1)/2 below-diagonal entries are perturbed by independent
    N(0, scale**2) increments.  Proposals with any entry outside (-1, 1)
    or a non-positive-definite matrix score -inf, so they are rejected —
    the validity indicator is part of the target, and the Gaussian
    proposal stays symmetric, so the chain remains correct.  ``corr`` is a
    plain (p, p) array; symmetry and the unit diagonal are preserved
    exactly.  ``log_target(matrix, chol)`` also receives the matrix's
    lower Cholesky factor, which the validity check computes anyway.
    Passing ``current_log_target`` skips re-evaluating it at ``corr``.
    """
    p = corr.shape[0]
    rows, cols = lower_index(p)
    proposal_flat = corr[rows, cols] + float(scale.values[0]) * rng.standard_normal(rows.size)
    proposal_lp = -math.inf
    if np.all(np.abs(proposal_flat) < 1.0):
        proposal = corr_from_lower(p, proposal_flat)
        try:
            chol = np.linalg.cholesky(proposal)
        except np.linalg.LinAlgError:
            pass
        else:
            proposal_lp = log_target(proposal, chol)
    if current_log_target is None:
        current_log_target = log_target(corr, np.linalg.cholesky(corr))
    accepted = _metropolis(proposal_lp, current_log_target, rng)
    scale.observe(accepted)
    return Step(proposal, True) if accepted else Step(corr, False)
