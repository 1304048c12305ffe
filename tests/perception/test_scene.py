"""Unit tests for the scene-complexity timelines."""

import pytest

from repro.perception import ramp_timeline, spike_timeline


class TestTimelines:
    def test_ramp(self):
        fn = ramp_timeline(n_base=5, n_peak=25, t_start=10.0, t_ramp=10.0)
        assert fn(0.0) == 5
        assert fn(10.0) == 5
        assert fn(15.0) == pytest.approx(15.0)
        assert fn(20.0) == 25
        assert fn(99.0) == 25

    def test_ramp_validation(self):
        with pytest.raises(ValueError):
            ramp_timeline(5, 25, 0.0, 0.0)

    def test_spike(self):
        fn = spike_timeline(n_base=5, n_peak=30, t_on=10.0, t_off=20.0)
        assert fn(5.0) == 5
        assert fn(10.0) == 30
        assert fn(19.9) == 30
        assert fn(20.0) == 5

    def test_spike_validation(self):
        with pytest.raises(ValueError):
            spike_timeline(5, 30, 10.0, 5.0)

