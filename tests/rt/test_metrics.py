"""Unit tests for the metrics recorder."""

import pytest

from repro.rt import ConstantExecTime, Job, MetricsRecorder, TaskSpec


def job(name="t", release=0.0, exec_time=0.01, finish=None):
    spec = TaskSpec(
        name=name, priority=1, relative_deadline=0.1, exec_model=ConstantExecTime(exec_time)
    )
    j = Job(task=spec, release_time=release, exec_time=exec_time)
    if finish is not None:
        j.finish_time = finish
    return j


class TestPerTaskStats:
    def test_release_complete_counts(self):
        m = MetricsRecorder()
        j = job("a", release=0.0, finish=0.02)
        m.on_release(j)
        m.on_complete(j)
        stats = m.per_task["a"]
        assert stats.released == 1 and stats.completed == 1 and stats.missed == 0

    def test_miss_ratio(self):
        m = MetricsRecorder()
        good = job("a", finish=0.02)
        bad = job("a", finish=0.5)
        m.on_release(good)
        m.on_release(bad)
        m.on_complete(good)
        m.on_miss(bad, dropped=False)
        assert m.per_task["a"].miss_ratio == pytest.approx(0.5)

    def test_empty_stats_are_zero(self):
        m = MetricsRecorder()
        m.on_release(job("a"))
        stats = m.per_task["a"]
        assert stats.miss_ratio == 0.0


class TestWindows:
    def test_close_window_snapshots_counters(self):
        m = MetricsRecorder()
        j = job("a", finish=0.01)
        m.on_release(j)
        m.on_complete(j)
        m.on_control_command(0.01, 0.005)
        w = m.close_window(0.5, utilization=0.4)
        assert w.completed == 1 and w.missed == 0 and w.control_commands == 1
        assert w.miss_ratio == 0.0
        assert w.utilization == pytest.approx(0.4)
        assert w.throughput == pytest.approx(2.0)  # 1 command / 0.5 s

    def test_window_counters_reset(self):
        m = MetricsRecorder()
        j = job("a", finish=0.01)
        m.on_release(j)
        m.on_complete(j)
        m.close_window(0.5)
        w2 = m.close_window(1.0)
        assert w2.completed == 0 and w2.t_start == 0.5 and w2.t_end == 1.0

    def test_window_miss_ratio(self):
        m = MetricsRecorder()
        good, bad = job("a", finish=0.01), job("a", finish=9.9)
        for j in (good, bad):
            m.on_release(j)
        m.on_complete(good)
        m.on_miss(bad, dropped=False)
        w = m.close_window(1.0)
        assert w.miss_ratio == pytest.approx(0.5)

    def test_empty_window_ratios_zero(self):
        m = MetricsRecorder()
        w = m.close_window(1.0)
        assert w.miss_ratio == 0.0 and w.throughput == 0.0

    def test_degenerate_window_throughput(self):
        m = MetricsRecorder()
        m.close_window(0.0)
        assert m.windows[0].throughput == 0.0

    def test_series_accessors(self):
        m = MetricsRecorder()
        m.close_window(0.5)
        m.close_window(1.0)
        assert [t for t, _ in m.miss_ratio_series()] == [0.5, 1.0]


class TestAggregates:
    def test_overall_miss_ratio(self):
        m = MetricsRecorder()
        for i in range(3):
            j = job("a", finish=0.01)
            m.on_release(j)
            m.on_complete(j)
        bad = job("a", finish=9.0)
        m.on_release(bad)
        m.on_miss(bad, dropped=False)
        assert m.overall_miss_ratio == pytest.approx(0.25)
        assert m.total_finished == 4

    def test_overall_miss_ratio_empty(self):
        assert MetricsRecorder().overall_miss_ratio == 0.0

    def test_control_metrics(self):
        m = MetricsRecorder()
        m.on_control_command(1.0, 0.004)
        m.on_control_command(2.0, 0.006)
        assert m.control_response_times() == [0.004, 0.006]
        assert m.mean_control_response() == pytest.approx(0.005)
        assert m.control_throughput(horizon=4.0) == pytest.approx(0.5)

    def test_control_metrics_empty(self):
        m = MetricsRecorder()
        assert m.mean_control_response() == 0.0
        assert m.control_throughput(10.0) == 0.0
        assert m.control_throughput(0.0) == 0.0
