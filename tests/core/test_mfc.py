"""Unit tests for the Model-Free Control performance-directed controller."""

import math

import pytest

from repro.core import MFCConfig, ModelFreeController


class TestConfig:
    def test_alpha_must_be_negative(self):
        with pytest.raises(ValueError, match="alpha"):
            MFCConfig(alpha=1.0)
        with pytest.raises(ValueError, match="alpha"):
            MFCConfig(alpha=0.0)

    def test_feedback_gain_must_be_negative(self):
        with pytest.raises(ValueError, match="feedback_gain"):
            MFCConfig(feedback_gain=0.5)

    def test_timing_validation(self):
        with pytest.raises(ValueError):
            MFCConfig(ade_window=0.0)

    # NaN passed the old ``>= 0`` / ``<= 0`` checks and ran a whole
    # controller; an infinite gain or window is no setting either.
    @pytest.mark.parametrize("value", [math.nan, -math.inf])
    def test_alpha_nan_or_infinite_rejected(self, value):
        with pytest.raises(ValueError, match="alpha"):
            MFCConfig(alpha=value)

    @pytest.mark.parametrize("value", [math.nan, -math.inf])
    def test_feedback_gain_nan_or_infinite_rejected(self, value):
        with pytest.raises(ValueError, match="feedback_gain"):
            MFCConfig(feedback_gain=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_ade_window_nan_or_infinite_rejected(self, value):
        with pytest.raises(ValueError, match="ade_window"):
            MFCConfig(ade_window=value)


class TestBehaviour:
    def feed_constant_error(self, error, steps=10, ts=0.5):
        mfc = ModelFreeController(MFCConfig())
        us = []
        for k in range(steps):
            t = k * ts
            for i in range(10):
                mfc.observe(t + i * ts / 10, error)
            us.append(mfc.update(t + ts, error))
        return mfc, us

    def test_positive_error_drives_u_up(self):
        # Eq. (8): with constant positive E, u integrates upward.
        _, us = self.feed_constant_error(1.0)
        assert us[-1] > us[0] > 0.0

    def test_negative_error_drives_u_down(self):
        _, us = self.feed_constant_error(-1.0)
        assert us[-1] < us[0] < 0.0

    def test_zero_error_keeps_u_stable(self):
        _, us = self.feed_constant_error(0.0)
        assert all(abs(u) < 1e-9 for u in us)

    def test_u_property_tracks_last_update(self):
        mfc = ModelFreeController()
        mfc.observe(0.0, 0.5)
        u = mfc.update(0.5, 0.5)
        assert mfc.u == u

    def test_f_hat_estimation(self):
        # With a ramp error and u = 0 initially, F̂ ≈ Ė.
        mfc = ModelFreeController(MFCConfig())
        for k in range(100):
            mfc.observe(k * 0.01, 2.0 * k * 0.01)
        mfc.update(1.0, 2.0)
        assert mfc.f_hat == pytest.approx(2.0, rel=0.05)

    def test_gain_scale_divides_u(self):
        # A more negative alpha scales the command down proportionally.
        small = ModelFreeController(MFCConfig(alpha=-1.0))
        large = ModelFreeController(MFCConfig(alpha=-10.0))
        for mfc in (small, large):
            for i in range(10):
                mfc.observe(i * 0.05, 1.0)
        u_small = small.update(0.5, 1.0)
        u_large = large.update(0.5, 1.0)
        assert u_small == pytest.approx(10.0 * u_large, rel=1e-6)
