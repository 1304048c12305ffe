"""Unit and property tests for the Algebraic Differentiation Estimator."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AlgebraicDifferentiator


def feed(ade, fn, t0=0.0, t1=3.0, dt=0.01):
    t = t0
    while t <= t1 + 1e-12:
        ade.add_sample(t, fn(t))
        t += dt
    return ade


class TestBasics:
    def test_invalid_window(self):
        with pytest.raises(ValueError):
            AlgebraicDifferentiator(window=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_nan_or_infinite_window_rejected(self, value):
        # NaN passed the old ``<= 0`` check.
        with pytest.raises(ValueError, match="window"):
            AlgebraicDifferentiator(window=value)

    def test_empty_estimate_is_zero(self):
        assert AlgebraicDifferentiator(1.0).estimate() == 0.0

    def test_single_sample_estimate_is_zero(self):
        ade = AlgebraicDifferentiator(1.0)
        ade.add_sample(0.0, 5.0)
        assert ade.estimate() == 0.0

    def test_out_of_order_rejected(self):
        ade = AlgebraicDifferentiator(1.0)
        ade.add_sample(1.0, 0.0)
        with pytest.raises(ValueError, match="out-of-order"):
            ade.add_sample(0.5, 0.0)

    def test_equal_timestamps_allowed(self):
        ade = AlgebraicDifferentiator(1.0)
        ade.add_sample(1.0, 0.0)
        ade.add_sample(1.0, 0.1)  # same instant: fine (sensor burst)

    def test_window_evicts_old_samples(self):
        ade = AlgebraicDifferentiator(window=0.5)
        for k in range(200):
            ade.add_sample(k * 0.01, 0.0)
        # Roughly window/dt samples retained (plus the edge sample).
        assert len(ade) <= 0.5 / 0.01 + 2


class TestAccuracy:
    def test_constant_signal_zero_derivative(self):
        ade = feed(AlgebraicDifferentiator(1.0), lambda t: 7.5)
        assert ade.estimate() == pytest.approx(0.0, abs=1e-9)

    def test_linear_ramp(self):
        ade = feed(AlgebraicDifferentiator(1.0), lambda t: 2.0 * t)
        assert ade.estimate() == pytest.approx(2.0, rel=1e-3)

    def test_negative_slope(self):
        ade = feed(AlgebraicDifferentiator(1.0), lambda t: -3.0 * t + 1.0)
        assert ade.estimate() == pytest.approx(-3.0, rel=1e-3)

    def test_sine_derivative_tracks_cosine(self):
        # With a short window the estimate approximates cos(t) with lag.
        ade = AlgebraicDifferentiator(window=0.3)
        feed(ade, math.sin, t1=2.0, dt=0.005)
        true = math.cos(2.0)
        assert ade.estimate() == pytest.approx(true, abs=0.15)

    def test_noise_attenuation(self):
        # The windowed integral should beat naive finite differences on a
        # noisy ramp.
        rng = random.Random(3)
        ade = AlgebraicDifferentiator(window=1.0)
        samples = []
        for k in range(400):
            t = k * 0.01
            v = 2.0 * t + rng.gauss(0.0, 0.05)
            samples.append((t, v))
            ade.add_sample(t, v)
        naive = (samples[-1][1] - samples[-2][1]) / 0.01
        assert abs(ade.estimate() - 2.0) < abs(naive - 2.0)
        assert ade.estimate() == pytest.approx(2.0, abs=0.3)

    @given(
        slope=st.one_of(
            st.floats(min_value=-10.0, max_value=-0.1),
            st.floats(min_value=0.1, max_value=10.0),
        ),
        intercept=st.floats(min_value=-5.0, max_value=5.0),
        grid=st.sampled_from([(0.01, 1.0), (0.05, 1.0), (0.1, 1.0), (0.01, 2.0)]),
        extra=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=80)
    def test_linear_functions_recovered(self, slope, intercept, grid, extra):
        # Closed form of the trapezoid rule on E(t) = a·t + b sampled every
        # h over a full window T.  With E(t − τ) = E(t) − a·τ the integrand
        # is E(t)·(T − 2τ) + a·(2τ² − T·τ).  The trapezoid rule integrates
        # the linear terms exactly (the first to zero), and overestimates
        # ∫₀ᵀ 2a·τ² dτ by T·h²·4a/12.  The exact integral is a·T³/6, so the
        # estimate is (6/T³)·(a·T³/6 + a·T·h²/3) = a·(1 + 2h²/T²).
        h, window = grid
        ade = AlgebraicDifferentiator(window=window)
        for k in range(round(window / h) + 1 + extra):
            t = k * h
            ade.add_sample(t, slope * t + intercept)
        expected = slope * (1.0 + 2.0 * h * h / (window * window))
        assert ade.estimate() == pytest.approx(expected, rel=1e-12)

    def test_partial_window_still_estimates(self):
        # Fewer samples than the window width: effective-width integral.
        ade = AlgebraicDifferentiator(window=10.0)
        for k in range(20):
            ade.add_sample(k * 0.01, 4.0 * k * 0.01)
        assert ade.estimate() == pytest.approx(4.0, rel=5e-2)
