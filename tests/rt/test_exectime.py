"""Unit and property tests for execution-time models."""

import math
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


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "make",
    [
        lambda: ConstantExecTime(NAN),
        lambda: ConstantExecTime(INF),
        lambda: UniformExecTime(0.0, NAN),
        lambda: UniformExecTime(NAN, 0.1),
        lambda: UniformExecTime(0.0, INF),
        lambda: SceneCubicExecTime(base=NAN, coeff=0.0),
        lambda: SceneCubicExecTime(base=0.0, coeff=NAN),
        lambda: SceneCubicExecTime(base=INF, coeff=0.0),
        lambda: SceneCubicExecTime(base=0.0, coeff=INF),
        lambda: SceneCubicExecTime(base=0.0, coeff=0.0, jitter=NAN),
        lambda: SceneCubicExecTime(base=0.0, coeff=0.0, max_value=NAN),
    ],
    ids=[
        "constant-nan", "constant-inf", "uniform-hi-nan", "uniform-lo-nan",
        "uniform-hi-inf", "cubic-base-nan", "cubic-coeff-nan", "cubic-base-inf",
        "cubic-coeff-inf", "cubic-jitter-nan", "cubic-max-nan",
    ],
)
def test_non_finite_parameters_rejected(make):
    # Each check used to be written ``x < 0``, which NaN passes; a NaN
    # sample then passes every Eq. (11) comparison too.
    with pytest.raises(ValueError):
        make()


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

    @pytest.mark.parametrize("t_on, t_off", [(math.nan, 1.0), (0.0, math.nan)])
    def test_nan_window_rejected(self, t_on, t_off):
        # ``t_off < t_on`` is false for NaN, and the window then never opened.
        with pytest.raises(ValueError, match="t_off must be >= t_on"):
            StepExecTime(ConstantExecTime(0.002), ConstantExecTime(0.02), t_on=t_on, t_off=t_off)


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

    def test_nan_observation_rejected(self):
        obs = ExecTimeObserver(alpha=0.5)
        obs.observe("t", 0.02)
        with pytest.raises(ValueError):
            obs.observe("t", float("nan"))
        assert obs.estimate("t") == 0.02
        assert obs.max_drift() == 0.0

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
