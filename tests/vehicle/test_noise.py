"""Unit tests for the sensor noise models."""

import pytest

from repro.vehicle import GaussianNoise


class TestGaussianNoise:
    def test_zero_sigma_identity(self):
        n = GaussianNoise(sigma=0.0)
        assert n.apply(1.5) == 1.5

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            GaussianNoise(sigma=-0.1)

    def test_deterministic_per_seed(self):
        a = [GaussianNoise(0.1, seed=5).apply(1.0) for _ in range(1)]
        b = [GaussianNoise(0.1, seed=5).apply(1.0) for _ in range(1)]
        assert a == b

    def test_different_seeds_differ(self):
        assert GaussianNoise(0.1, seed=1).apply(1.0) != GaussianNoise(0.1, seed=2).apply(1.0)

    def test_statistics(self):
        n = GaussianNoise(0.5, seed=0)
        samples = [n.apply(0.0) for _ in range(5000)]
        mean = sum(samples) / len(samples)
        var = sum((s - mean) ** 2 for s in samples) / len(samples)
        assert mean == pytest.approx(0.0, abs=0.05)
        assert var == pytest.approx(0.25, rel=0.1)

