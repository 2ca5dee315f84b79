"""Peer lifetime (churn) models.

The paper motivates its parameter choice (k = h = 32) by "the massive
churn we may observe in an Internet scenario" (section 2.2, citing the
Glacier measurements [3]).  These models generate the *permanent*
departure times that force maintenance; transient downtime is treated
as departure from the storage system's perspective, the conservative
assumption common to the cited works.

All models expose ``sample(rng)`` returning a lifetime in the
simulation's time unit and ``mean_lifetime`` for analytic cross-checks.
"""

from __future__ import annotations

import abc
import math

import numpy as np

__all__ = [
    "LifetimeModel",
    "ExponentialLifetime",
    "WeibullLifetime",
    "DeterministicLifetime",
]


class LifetimeModel(abc.ABC):
    """Distribution of a peer's time-in-system before permanent departure."""

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator) -> float:
        """Draw one lifetime (strictly positive)."""

    @property
    @abc.abstractmethod
    def mean_lifetime(self) -> float:
        """Expected lifetime, used by analytic repair-rate estimates."""

    def expected_failures(self, peers: int, horizon: float) -> float:
        """Rough expected permanent departures among ``peers`` by ``horizon``.

        Uses the exponential approximation rate = 1 / mean; exact for
        :class:`ExponentialLifetime`, an estimate otherwise.
        """
        rate = 1.0 / self.mean_lifetime
        return peers * (1.0 - math.exp(-rate * horizon))


class ExponentialLifetime(LifetimeModel):
    """Memoryless lifetimes -- the standard baseline churn model."""

    def __init__(self, mean: float):
        if mean <= 0:
            raise ValueError(f"mean lifetime must be positive, got {mean}")
        self.mean = mean

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.exponential(self.mean))

    @property
    def mean_lifetime(self) -> float:
        return self.mean

    def __repr__(self) -> str:
        return f"ExponentialLifetime(mean={self.mean})"


class WeibullLifetime(LifetimeModel):
    """Weibull lifetimes; shape < 1 gives the heavy early churn measured
    in deployed P2P systems (many peers leave quickly, survivors last)."""

    def __init__(self, shape: float, scale: float):
        if shape <= 0 or scale <= 0:
            raise ValueError(f"shape and scale must be positive, got {shape}, {scale}")
        self.shape = shape
        self.scale = scale

    def sample(self, rng: np.random.Generator) -> float:
        return float(self.scale * rng.weibull(self.shape))

    @property
    def mean_lifetime(self) -> float:
        return self.scale * math.gamma(1.0 + 1.0 / self.shape)

    def __repr__(self) -> str:
        return f"WeibullLifetime(shape={self.shape}, scale={self.scale})"


class DeterministicLifetime(LifetimeModel):
    """Fixed lifetimes; handy for exactly scripted test scenarios."""

    def __init__(self, lifetime: float):
        if lifetime <= 0:
            raise ValueError(f"lifetime must be positive, got {lifetime}")
        self.lifetime = lifetime

    def sample(self, rng: np.random.Generator) -> float:
        return self.lifetime

    @property
    def mean_lifetime(self) -> float:
        return self.lifetime

    def __repr__(self) -> str:
        return f"DeterministicLifetime(lifetime={self.lifetime})"
