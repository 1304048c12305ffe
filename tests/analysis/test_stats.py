"""Unit and property tests for the statistics helpers."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import clip_series, mean, percentile, rms, rms_series


class TestRMS:
    def test_empty(self):
        assert rms([]) == 0.0

    def test_known_value(self):
        assert rms([3.0, 4.0]) == pytest.approx(math.sqrt(12.5))

    def test_sign_invariant(self):
        assert rms([-2.0, 2.0]) == pytest.approx(2.0)

    def test_series_variant(self):
        assert rms_series([(0.0, 3.0), (1.0, 4.0)]) == pytest.approx(rms([3.0, 4.0]))

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=50))
    @settings(max_examples=60)
    def test_bounds(self, values):
        r = rms(values)
        assert 0.0 <= r <= max(abs(v) for v in values) + 1e-9


class TestMean:
    def test_empty(self):
        assert mean([]) == 0.0

    def test_known(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0


class TestPercentile:
    def test_validation(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)

    def test_empty(self):
        assert percentile([], 50.0) == 0.0

    def test_single(self):
        assert percentile([5.0], 99.0) == 5.0

    def test_median(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == pytest.approx(2.5)

    def test_extremes(self):
        data = [5.0, 1.0, 3.0]
        assert percentile(data, 0.0) == 1.0
        assert percentile(data, 100.0) == 5.0

    @given(
        data=st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=30),
        q=st.floats(min_value=0.0, max_value=100.0),
    )
    @settings(max_examples=60)
    def test_within_data_range(self, data, q):
        p = percentile(data, q)
        assert min(data) - 1e-9 <= p <= max(data) + 1e-9


class TestClip:
    def test_clip(self):
        series = [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]
        assert clip_series(series, 0.5, 2.0) == [(1.0, 2.0), (2.0, 3.0)]

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            clip_series([], 2.0, 1.0)

