"""Unit and property tests for execution-time models."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rt import (
    ConstantExecTime,
    ExecContext,
    ExecTimeObserver,
    SceneCubicExecTime,
    StepExecTime,
    UniformExecTime,
)

RNG = random.Random(7)
CTX = ExecContext(now=0.0, scene_complexity=0.0)


class TestConstant:
    def test_sample_is_value(self):
        m = ConstantExecTime(0.02)
        assert m.sample(CTX, RNG) == 0.02
        assert m.mean(CTX) == 0.02

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ConstantExecTime(-0.1)


class TestUniform:
    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            UniformExecTime(-0.1, 0.2)
        with pytest.raises(ValueError):
            UniformExecTime(0.2, 0.1)

    def test_mean(self):
        assert UniformExecTime(0.01, 0.03).mean(CTX) == pytest.approx(0.02)

    @given(
        lo=st.floats(min_value=0.0, max_value=0.05),
        width=st.floats(min_value=0.0, max_value=0.05),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60)
    def test_samples_within_bounds(self, lo, width, seed):
        m = UniformExecTime(lo, lo + width)
        rng = random.Random(seed)
        for _ in range(20):
            v = m.sample(CTX, rng)
            assert lo <= v <= lo + width


class TestSceneCubic:
    def test_cubic_growth(self):
        m = SceneCubicExecTime(base=0.005, coeff=1e-6)
        c10 = m.mean(ExecContext(scene_complexity=10))
        c20 = m.mean(ExecContext(scene_complexity=20))
        assert c20 - 0.005 == pytest.approx(8 * (c10 - 0.005))

    def test_negative_complexity_treated_as_zero(self):
        m = SceneCubicExecTime(base=0.005, coeff=1e-6)
        assert m.mean(ExecContext(scene_complexity=-5)) == pytest.approx(0.005)

    def test_max_value_cap(self):
        m = SceneCubicExecTime(base=0.005, coeff=1.0, max_value=0.1)
        assert m.mean(ExecContext(scene_complexity=100)) == pytest.approx(0.1)
        assert m.sample(ExecContext(scene_complexity=100), RNG) <= 0.1

    def test_jitter_bounds(self):
        m = SceneCubicExecTime(base=0.01, coeff=0.0, jitter=0.1)
        rng = random.Random(1)
        for _ in range(100):
            v = m.sample(CTX, rng)
            assert 0.009 <= v <= 0.011

    def test_validation(self):
        with pytest.raises(ValueError):
            SceneCubicExecTime(base=-1.0, coeff=0.0)
        with pytest.raises(ValueError):
            SceneCubicExecTime(base=0.0, coeff=0.0, jitter=1.5)


class TestStep:
    def test_switches_on_window(self):
        m = StepExecTime(
            normal=ConstantExecTime(0.02),
            elevated=ConstantExecTime(0.04),
            t_on=10.0,
            t_off=80.0,
        )
        assert m.mean(ExecContext(now=5.0)) == 0.02
        assert m.mean(ExecContext(now=10.0)) == 0.04
        assert m.mean(ExecContext(now=79.9)) == 0.04
        assert m.mean(ExecContext(now=80.0)) == 0.02

    def test_sample_follows_window(self):
        m = StepExecTime(
            normal=ConstantExecTime(0.01),
            elevated=ConstantExecTime(0.03),
            t_on=1.0,
            t_off=2.0,
        )
        assert m.sample(ExecContext(now=1.5), RNG) == 0.03
        assert m.sample(ExecContext(now=0.5), RNG) == 0.01

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            StepExecTime(ConstantExecTime(0.01), ConstantExecTime(0.02), t_on=5.0, t_off=1.0)


class TestObserver:
    def test_last_run_with_alpha_one(self):
        obs = ExecTimeObserver(alpha=1.0)
        obs.observe("t", 0.01)
        obs.observe("t", 0.05)
        assert obs.estimate("t") == pytest.approx(0.05)

    def test_ewma_blending(self):
        obs = ExecTimeObserver(alpha=0.5)
        obs.observe("t", 0.02)
        obs.observe("t", 0.04)
        assert obs.estimate("t") == pytest.approx(0.03)

    def test_default_for_unknown(self):
        obs = ExecTimeObserver()
        assert obs.estimate("nope", default=0.123) == 0.123

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            ExecTimeObserver(alpha=0.0)
        with pytest.raises(ValueError):
            ExecTimeObserver(alpha=1.5)

    def test_negative_observation_rejected(self):
        obs = ExecTimeObserver()
        with pytest.raises(ValueError):
            obs.observe("t", -0.01)

    def test_drift_zero_without_observations(self):
        assert ExecTimeObserver().max_drift() == 0.0

    def test_drift_relative_to_stable_mark(self):
        obs = ExecTimeObserver(alpha=1.0)
        obs.observe("t", 0.02)
        obs.mark_stable()
        assert obs.max_drift() == pytest.approx(0.0)
        obs.observe("t", 0.04)
        assert obs.max_drift() == pytest.approx(1.0)

    def test_new_task_after_mark_counts_as_full_drift(self):
        obs = ExecTimeObserver(alpha=1.0)
        obs.observe("a", 0.02)
        obs.mark_stable()
        obs.observe("b", 0.01)
        assert obs.max_drift() == pytest.approx(1.0)

    def test_zero_reference_drift(self):
        obs = ExecTimeObserver(alpha=1.0)
        obs.observe("t", 0.0)
        obs.mark_stable()
        obs.observe("t", 0.01)
        assert obs.max_drift() == pytest.approx(1.0)

    def test_estimates_snapshot_is_copy(self):
        obs = ExecTimeObserver()
        obs.observe("t", 0.02)
        snap = obs.estimates()
        snap["t"] = 999.0
        assert obs.estimate("t") == pytest.approx(0.02)
