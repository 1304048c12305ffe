"""Unit tests for the discomfort metric and report rendering."""

import pytest

from repro.analysis import (
    discomfort,
    format_comparison,
    format_series,
    format_table,
    jerk_series,
    sparkline,
)


class TestJerk:
    def test_constant_accel_zero_jerk(self):
        accel = [(k * 0.1, 2.0) for k in range(10)]
        assert all(j == 0.0 for _, j in jerk_series(accel))

    def test_known_jerk(self):
        accel = [(0.0, 0.0), (0.5, 1.0)]
        assert jerk_series(accel) == [(0.5, 2.0)]

    def test_skips_degenerate_steps(self):
        accel = [(0.0, 0.0), (0.0, 1.0), (0.1, 1.0)]
        assert len(jerk_series(accel)) == 1


class TestDiscomfort:
    def test_empty_and_constant(self):
        assert discomfort([]).score == 0.0
        smooth = discomfort([(k * 0.1, 1.0) for k in range(20)])
        assert smooth.rms_jerk == 0.0 and smooth.exceedance_ratio == 0.0

    def test_abrupt_changes_scored(self):
        rough = [(k * 0.1, (k % 2) * 3.0) for k in range(20)]
        report = discomfort(rough)
        assert report.rms_jerk > 0.0
        assert report.exceedance_ratio == 1.0  # 30 m/s³ steps all exceed
        assert report.peak_jerk == pytest.approx(30.0)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            discomfort([(0.0, 0.0), (0.1, 1.0)], threshold=0.0)

    def test_score_monotone_in_roughness(self):
        smooth = discomfort([(k * 0.1, 0.1 * k) for k in range(20)])
        rough = discomfort([(k * 0.1, (k % 2) * 3.0) for k in range(20)])
        assert rough.score > smooth.score


class TestReportRendering:
    def test_format_table_alignment(self):
        out = format_table("Title", ["a", "bb"], [[1, 2.34567], ["x", "y"]])
        lines = out.splitlines()
        assert lines[0] == "Title"
        assert "a" in lines[2] and "bb" in lines[2]
        assert "2.346" in out  # 4 significant digits

    def test_format_table_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table("T", ["a", "b"], [[1]])

    def test_format_series_decimation(self):
        series = [(float(k), float(k)) for k in range(100)]
        out = format_series("S", series, max_points=5)
        assert out.count("t=") <= 8
        assert "(100 samples)" in out

    def test_format_series_empty(self):
        assert "empty" in format_series("S", [])

    def test_format_series_validation(self):
        with pytest.raises(ValueError):
            format_series("S", [(0.0, 1.0)], max_points=1)

    def test_sparkline(self):
        assert sparkline([]) == ""
        flat = sparkline([1.0, 1.0, 1.0])
        assert len(set(flat)) == 1
        spiky = sparkline([0.0, 1.0, 0.0])
        assert spiky[1] != spiky[0]

    def test_format_comparison_marks_winner(self):
        out = format_comparison("T", "m", {"A": 2.0, "B": 1.0}, best="min")
        assert "B *" in out and "A *" not in out

    def test_format_comparison_max_mode(self):
        out = format_comparison("T", "m", {"A": 2.0, "B": 1.0}, best="max")
        assert "A *" in out

    def test_format_comparison_paper_column(self):
        out = format_comparison(
            "T", "m", {"A": 2.0}, paper_values={"A": 1.5}
        )
        assert "(paper)" in out and "1.5" in out

    def test_format_comparison_validation(self):
        with pytest.raises(ValueError):
            format_comparison("T", "m", {}, best="median")
