"""Random-walk Metropolis steps with acceptance-rate adaptation."""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from irvol.irmsv import corr_from_lower, lower_index


class AdaptiveScale:
    """Proposal scale tuned toward a target acceptance rate.

    Every ``interval`` recorded steps the scale is multiplied by
    exp(step_size * (rate - target)) with a Robbins-Monro step size
    decaying as 1/sqrt(adaptation round).  Call ``freeze()`` at the end
    of burn-in; a frozen scale never changes again, which keeps the
    post-burn-in chain a genuine Markov chain.
    """

    __slots__ = ("value", "target", "interval", "frozen", "_accepted", "_seen", "_round")

    def __init__(self, value: float, target: float, interval: int = 200):
        if value <= 0:
            raise ValueError("the initial scale must be positive")
        if not (0.0 < target < 1.0):
            raise ValueError("the target acceptance rate must lie in (0, 1)")
        if interval < 1:
            raise ValueError("the adaptation interval must be at least 1")
        self.value = float(value)
        self.target = float(target)
        self.interval = int(interval)
        self.frozen = False
        self._accepted = 0
        self._seen = 0
        self._round = 0

    def observe(self, accepted: bool) -> None:
        if self.frozen:
            return
        self._seen += 1
        self._accepted += bool(accepted)
        if self._seen >= self.interval:
            self._round += 1
            rate = self._accepted / self._seen
            self.value *= math.exp((rate - self.target) / math.sqrt(self._round))
            self.value = min(max(self.value, 1e-8), 1e6)
            self._accepted = 0
            self._seen = 0

    def freeze(self) -> None:
        self.frozen = True


class VectorAdaptiveScale:
    """Per-site proposal scales sharing one adaptation clock.

    Intended for latent-state sweeps where every site records exactly one
    accept/reject per sweep; ``sweep_done()`` advances the clock and, every
    ``interval`` sweeps, adapts all scales from their per-site rates.
    """

    __slots__ = ("values", "target", "interval", "frozen", "_accepted", "_sweeps", "_round")

    def __init__(self, size: int, value: float, target: float, interval: int = 200):
        if value <= 0:
            raise ValueError("the initial scale must be positive")
        if not (0.0 < target < 1.0):
            raise ValueError("the target acceptance rate must lie in (0, 1)")
        self.values = np.full(size, float(value))
        self.target = float(target)
        self.interval = int(interval)
        self.frozen = False
        self._accepted = np.zeros(size)
        self._sweeps = 0
        self._round = 0

    def record(self, sites: np.ndarray, accepted: np.ndarray) -> None:
        if self.frozen:
            return
        self._accepted[sites] += accepted

    def sweep_done(self) -> None:
        if self.frozen:
            return
        self._sweeps += 1
        if self._sweeps >= self.interval:
            self._round += 1
            rates = self._accepted / self._sweeps
            self.values *= np.exp((rates - self.target) / math.sqrt(self._round))
            np.clip(self.values, 1e-8, 1e6, out=self.values)
            self._accepted[:] = 0.0
            self._sweeps = 0

    def freeze(self) -> None:
        self.frozen = True


class ScalarStep(NamedTuple):
    value: float
    accepted: bool


def adaptive_rwm_scalar(current: float, log_target: Callable[[float], float],
                        scale: AdaptiveScale, rng: np.random.Generator,
                        current_log_target: float | None = None) -> ScalarStep:
    """One adaptive random-walk Metropolis update of a scalar.

    Proposes current + scale * z with z standard normal and accepts with
    probability min(1, exp(log_target(proposal) - log_target(current))).
    Passing ``current_log_target`` skips re-evaluating the target at the
    current point.  A -inf proposal target is always rejected.
    """
    if current_log_target is None:
        current_log_target = log_target(current)
    proposal = current + scale.value * rng.standard_normal()
    proposal_lp = log_target(proposal)
    if proposal_lp == -math.inf:
        accepted = False
    elif current_log_target == -math.inf:
        accepted = True
    else:
        accepted = math.log(rng.uniform()) < proposal_lp - current_log_target
    scale.observe(accepted)
    return ScalarStep(proposal, True) if accepted else ScalarStep(current, False)


class BlockStep(NamedTuple):
    matrix: np.ndarray
    accepted: bool


def correlation_block_step(corr: np.ndarray, scale: AdaptiveScale,
                           rng: np.random.Generator,
                           log_target: Callable[[np.ndarray, np.ndarray], float],
                           current_log_target: float | None = None) -> BlockStep:
    """Joint random-walk update of all free correlations.

    The p(p-1)/2 below-diagonal entries are perturbed by independent
    N(0, scale**2) increments.  Proposals with any entry outside (-1, 1)
    or a non-positive-definite matrix are rejected immediately — the
    validity indicator is part of the target, and the Gaussian proposal
    stays symmetric, so the chain remains correct.  ``corr`` is a plain
    (p, p) array; symmetry and the unit diagonal are preserved exactly.
    ``log_target(matrix, chol)`` also receives the matrix's lower
    Cholesky factor, which the validity check computes anyway.  Passing
    ``current_log_target`` skips re-evaluating the target at ``corr``.
    """
    p = corr.shape[0]
    rows, cols = lower_index(p)
    proposal_flat = corr[rows, cols] + scale.value * rng.standard_normal(rows.size)
    if np.any(np.abs(proposal_flat) >= 1.0):
        scale.observe(False)
        return BlockStep(corr, False)
    proposal = corr_from_lower(p, proposal_flat)
    try:
        chol = np.linalg.cholesky(proposal)
    except np.linalg.LinAlgError:
        scale.observe(False)
        return BlockStep(corr, False)
    proposal_lp = log_target(proposal, chol)
    if current_log_target is None:
        current_log_target = log_target(corr, np.linalg.cholesky(corr))
    if proposal_lp == -math.inf:
        accepted = False
    elif current_log_target == -math.inf:
        accepted = True
    else:
        accepted = math.log(rng.uniform()) < proposal_lp - current_log_target
    scale.observe(accepted)
    return BlockStep(proposal, True) if accepted else BlockStep(corr, False)
