"""Tests for peer lifetime models."""

import numpy as np
import pytest

from repro.p2p.churn import (
    DeterministicLifetime,
    ExponentialLifetime,
    WeibullLifetime,
)

ALL_MODELS = [
    ExponentialLifetime(mean=100.0),
    WeibullLifetime(shape=0.5, scale=50.0),
    DeterministicLifetime(lifetime=42.0),
]


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda model: type(model).__name__)
class TestCommonBehaviour:
    def test_samples_positive(self, model):
        rng = np.random.default_rng(1)
        samples = [model.sample(rng) for _ in range(500)]
        assert all(sample > 0 for sample in samples)

    def test_empirical_mean_close_to_declared(self, model):
        rng = np.random.default_rng(2)
        samples = np.array([model.sample(rng) for _ in range(20000)])
        assert samples.mean() == pytest.approx(model.mean_lifetime, rel=0.15)

    def test_deterministic_given_seed(self, model):
        a = [model.sample(np.random.default_rng(3)) for _ in range(5)]
        b = [model.sample(np.random.default_rng(3)) for _ in range(5)]
        assert a == b

    def test_repr_is_informative(self, model):
        assert type(model).__name__ in repr(model)


class TestValidation:
    def test_exponential(self):
        with pytest.raises(ValueError):
            ExponentialLifetime(mean=0)

    def test_weibull(self):
        with pytest.raises(ValueError):
            WeibullLifetime(shape=0, scale=1)
        with pytest.raises(ValueError):
            WeibullLifetime(shape=1, scale=-1)

    def test_deterministic(self):
        with pytest.raises(ValueError):
            DeterministicLifetime(0)


class TestSpecificShapes:
    def test_deterministic_is_constant(self):
        model = DeterministicLifetime(7.0)
        rng = np.random.default_rng(4)
        assert {model.sample(rng) for _ in range(10)} == {7.0}

    def test_weibull_mean_formula(self):
        # shape = 1 degenerates to the exponential: mean = scale.
        assert WeibullLifetime(shape=1.0, scale=30.0).mean_lifetime == pytest.approx(
            30.0
        )

    def test_weibull_early_churn(self):
        """shape < 1: the median falls well below the mean (many peers
        leave early)."""
        model = WeibullLifetime(shape=0.5, scale=100.0)
        rng = np.random.default_rng(6)
        samples = np.array([model.sample(rng) for _ in range(10000)])
        assert np.median(samples) < 0.5 * samples.mean()


class TestExpectedFailures:
    def test_exponential_exact(self):
        model = ExponentialLifetime(mean=100.0)
        expected = model.expected_failures(peers=1000, horizon=100.0)
        assert expected == pytest.approx(1000 * (1 - np.exp(-1)), rel=1e-9)

    def test_monotone_in_horizon(self):
        model = ExponentialLifetime(mean=50.0)
        values = [model.expected_failures(100, horizon) for horizon in (1, 10, 100)]
        assert values[0] < values[1] < values[2]

    def test_bounded_by_population(self):
        model = ExponentialLifetime(mean=1.0)
        assert model.expected_failures(peers=10, horizon=1e9) <= 10
