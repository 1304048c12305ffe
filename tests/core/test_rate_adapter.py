"""Unit tests for the Task Rate Adapter (external coordinator)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RateAdapterConfig, TaskRateAdapter


def adapter(**cfg_kwargs):
    cfg = RateAdapterConfig(**cfg_kwargs)
    a = TaskRateAdapter(cfg)
    a.set_rate_range("cam", 10.0, 40.0)
    a.set_rate_range("lidar", 10.0, 40.0)
    return a


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RateAdapterConfig(target_miss_ratio=2.0)
        with pytest.raises(ValueError):
            RateAdapterConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            RateAdapterConfig(kp_initial=-1.0)
        with pytest.raises(ValueError):
            RateAdapterConfig(kp_decay=1.5)
        with pytest.raises(ValueError):
            RateAdapterConfig(kp_floor=-0.1)
        with pytest.raises(ValueError):
            RateAdapterConfig(drift_reset_threshold=0.0)
        with pytest.raises(ValueError):
            RateAdapterConfig(utilization_bound=0.0)

    # NaN passed the old ``<= 0`` / ``< 0`` checks.
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_epsilon_nan_or_infinite_rejected(self, value):
        with pytest.raises(ValueError, match="epsilon"):
            RateAdapterConfig(epsilon=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_kp_initial_nan_or_infinite_rejected(self, value):
        with pytest.raises(ValueError, match="kp_initial"):
            RateAdapterConfig(kp_initial=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_kp_floor_nan_or_infinite_rejected(self, value):
        with pytest.raises(ValueError, match="kp_floor"):
            RateAdapterConfig(kp_floor=value)

    def test_drift_reset_threshold_nan_rejected(self):
        with pytest.raises(ValueError, match="drift_reset_threshold"):
            RateAdapterConfig(drift_reset_threshold=math.nan)
        # An infinite threshold is a setting: the gain never resets.
        assert RateAdapterConfig(drift_reset_threshold=math.inf).drift_reset_threshold == math.inf

    @pytest.mark.parametrize(
        "lo, hi", [(math.nan, 10.0), (10.0, math.nan), (10.0, math.inf), (math.inf, math.inf)]
    )
    def test_rate_range_nan_or_infinite_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="rate range"):
            TaskRateAdapter().set_rate_range("x", lo, hi)

    def test_rate_range_validation(self):
        a = TaskRateAdapter()
        with pytest.raises(ValueError):
            a.set_rate_range("x", 0.0, 10.0)
        with pytest.raises(ValueError):
            a.set_rate_range("x", 20.0, 10.0)


class TestErrorTerm:
    def test_epsilon_substitution_at_zero_miss(self):
        a = adapter(epsilon=0.05)
        assert a.error(0.0) == pytest.approx(0.05)

    def test_negative_error_when_missing(self):
        a = adapter(target_miss_ratio=0.0)
        assert a.error(0.1) == pytest.approx(-0.1)

    def test_target_offset(self):
        a = adapter(target_miss_ratio=0.05)
        assert a.error(0.02) == pytest.approx(0.03)


class TestEq13Step:
    def test_rates_increase_when_no_misses(self):
        a = adapter(epsilon=0.05, kp_initial=10.0)
        out = a.update(0.0, {"cam": 20.0, "lidar": 20.0})
        assert out["cam"] == pytest.approx(20.5)
        assert out["lidar"] == pytest.approx(20.5)

    def test_rates_decrease_when_overloaded(self):
        a = adapter(kp_initial=10.0)
        out = a.update(0.2, {"cam": 20.0})
        assert out["cam"] == pytest.approx(18.0)

    def test_clamped_to_range(self):
        a = adapter(kp_initial=1000.0)
        assert a.update(0.5, {"cam": 20.0})["cam"] == 10.0
        a2 = adapter(kp_initial=1000.0, epsilon=1.0)
        assert a2.update(0.0, {"cam": 20.0})["cam"] == 40.0

    def test_unregistered_task_unchanged(self):
        a = adapter(kp_initial=10.0)
        out = a.update(0.2, {"cam": 20.0, "gps": 50.0})
        assert out["gps"] == 50.0


class TestKpDynamics:
    def test_kp_decays_when_stable(self):
        a = adapter(kp_initial=10.0, kp_decay=0.5, kp_floor=0.01)
        a.update(0.0, {"cam": 20.0})
        assert a.kp == pytest.approx(5.0)
        a.update(0.0, {"cam": 20.0})
        assert a.kp == pytest.approx(2.5)

    def test_kp_snaps_to_zero_below_floor(self):
        a = adapter(kp_initial=0.1, kp_decay=0.1, kp_floor=0.05)
        a.update(0.0, {"cam": 20.0})
        assert a.kp == 0.0

    def test_kp_held_while_missing(self):
        a = adapter(kp_initial=10.0, kp_decay=0.5)
        a.update(0.3, {"cam": 20.0})
        assert a.kp == pytest.approx(10.0)

    def test_drift_resets_kp(self):
        a = adapter(kp_initial=10.0, kp_decay=0.5, drift_reset_threshold=0.25)
        a.update(0.0, {"cam": 20.0})  # decays to 5
        a.update(0.0, {"cam": 20.0}, drift=0.5)  # reset fires first
        assert a.resets == 1
        # After the reset the stable window still decays once.
        assert a.kp == pytest.approx(5.0)


class TestUtilizationBound:
    def test_increase_suppressed_above_bound(self):
        a = adapter(kp_initial=10.0, epsilon=0.05, utilization_bound=0.8)
        out = a.update(0.0, {"cam": 20.0}, utilization=0.95)
        # Forced decrease proportional to the excess (0.15).
        assert out["cam"] < 20.0

    def test_increase_allowed_below_bound(self):
        a = adapter(kp_initial=10.0, epsilon=0.05, utilization_bound=0.8)
        out = a.update(0.0, {"cam": 20.0}, utilization=0.5)
        assert out["cam"] > 20.0

    def test_kp_kept_alive_above_bound(self):
        a = adapter(kp_initial=10.0, kp_decay=0.5, utilization_bound=0.8)
        a.update(0.0, {"cam": 20.0}, utilization=0.95)
        assert a.kp == pytest.approx(10.0)  # no decay while over bound

    def test_none_utilization_skips_guard(self):
        a = adapter(kp_initial=10.0, epsilon=0.05)
        out = a.update(0.0, {"cam": 20.0}, utilization=None)
        assert out["cam"] > 20.0


class TestClosedLoop:
    def test_converges_to_stable_rate(self):
        """Feedback against a toy plant: misses grow with rate above 25 Hz."""
        a = adapter(kp_initial=20.0, kp_decay=0.9, epsilon=0.02)
        rate = 15.0
        for _ in range(60):
            miss = max(0.0, (rate - 25.0) / 25.0)
            rate = a.update(miss, {"cam": rate})["cam"]
        # Settles near (just under) the 25 Hz capacity cliff.
        assert 17.0 <= rate <= 30.0
        assert a.kp < 20.0  # authority decayed as it stabilized



# One coordination window: (miss ratio, utilization or None, drift).
windows = st.tuples(
    st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0)),
    st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.5)),
    st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0)),
)


@given(
    kp_initial=st.floats(min_value=0.0, max_value=100.0),
    kp_decay=st.floats(min_value=0.0, max_value=1.0),
    floor_share=st.floats(min_value=0.0, max_value=1.0),
    target=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.2)),
    steps=st.lists(windows, min_size=1, max_size=60),
)
@settings(max_examples=200, deadline=None)
def test_kp_decays_monotonically_between_regime_resets(
    kp_initial, kp_decay, floor_share, target, steps
):
    """§VI's gain schedule, checked against every step rather than a log.

    ``K_p`` starts at its profiled value, decays towards 0 while the loop is
    stable and is put back to the profiled value only by an execution-time
    regime reset.  So across any sequence of windows it never rises on a
    step that did not count a reset, and it is always either 0 (frozen) or
    inside ``[kp_floor, kp_initial]``.
    """
    kp_floor = floor_share * kp_initial
    a = adapter(
        kp_initial=kp_initial, kp_decay=kp_decay, kp_floor=kp_floor,
        target_miss_ratio=target,
    )
    rates = {"cam": 20.0, "lidar": 20.0}
    for miss, util, drift in steps:
        kp_before, resets_before = a.kp, a.resets
        rates = a.update(miss, rates, drift=drift, utilization=util)
        assert a.resets in (resets_before, resets_before + 1)
        if a.resets == resets_before:
            assert a.kp <= kp_before
        assert a.kp == 0.0 or kp_floor <= a.kp <= kp_initial


class TestRateInvariants:
    def test_rates_always_within_range_under_any_inputs(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @given(
            misses=st.lists(
                st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=40
            ),
            utils=st.lists(
                st.floats(min_value=0.0, max_value=1.5), min_size=1, max_size=40
            ),
        )
        @settings(max_examples=40, deadline=None)
        def run(misses, utils):
            a = adapter(kp_initial=50.0, epsilon=0.5)
            rates = {"cam": 20.0, "lidar": 20.0}
            for miss, util in zip(misses, utils):
                rates = a.update(miss, rates, utilization=util)
                for v in rates.values():
                    assert 10.0 <= v <= 40.0

        run()
