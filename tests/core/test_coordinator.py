"""Unit tests for the hierarchical coordinator façade."""

import pytest

from repro.core import HCPerfConfig, HierarchicalCoordinator
from repro.rt import ConstantExecTime, ExecTimeObserver, Job, TaskSpec


def job(name="t", priority=1, exec_time=0.01, deadline=0.1):
    spec = TaskSpec(
        name=name, priority=priority, relative_deadline=deadline,
        exec_model=ConstantExecTime(exec_time),
    )
    return Job(task=spec, release_time=0.0, exec_time=exec_time)


class TestInternalCoordinator:
    def test_report_performance_updates_error(self):
        c = HierarchicalCoordinator()
        c.report_performance(0.0, 1.5)
        assert c.tracking_error == 1.5

    def test_sample_controller_returns_u(self):
        c = HierarchicalCoordinator()
        for i in range(10):
            c.report_performance(i * 0.05, 1.0)
        u = c.sample_controller(0.5)
        assert u == c.mfc.u
        assert u > 0.0

    def test_resolve_gamma_records_history(self):
        c = HierarchicalCoordinator()
        jobs = [job(exec_time=0.001, deadline=1.0)]
        result = c.resolve_gamma(0.0, jobs, lambda j: j.exec_time, 0.0, 2)
        assert c.last_result is result
        assert c.gamma_history == [(0.0, result.gamma)]

    def test_overload_counted(self):
        c = HierarchicalCoordinator()
        doomed = [job(exec_time=0.5, deadline=0.1)]
        result = c.resolve_gamma(0.0, doomed, lambda j: j.exec_time, 0.0, 1)
        assert result.overloaded
        assert c.overload_rounds == 1


class TestGammaHistory:
    def test_long_horizon_keeps_every_sample(self):
        # More resolutions than fig13 makes in 90 s (61,744): every sample
        # stays, from the first, and the history is a plain list.
        c = HierarchicalCoordinator()
        jobs = [job(exec_time=0.001, deadline=1.0)]
        n = 65_536 + 1_000
        for i in range(n):
            c.resolve_gamma(i * 1e-3, jobs, lambda j: j.exec_time, 0.0, 2)
        assert type(c.gamma_history) is list
        assert len(c.gamma_history) == n
        assert [t for t, _ in c.gamma_history] == [i * 1e-3 for i in range(n)]


class TestExternalCoordinator:
    def test_adapt_rates_disabled_returns_none(self):
        c = HierarchicalCoordinator(HCPerfConfig(enable_external=False))
        obs = ExecTimeObserver()
        assert c.adapt_rates(0.1, {"cam": 20.0}, obs) is None

    def test_adapt_rates_applies_update(self):
        c = HierarchicalCoordinator()
        c.rate_adapter.set_rate_range("cam", 10.0, 40.0)
        obs = ExecTimeObserver()
        out = c.adapt_rates(0.0, {"cam": 20.0}, obs)
        assert out is not None and out["cam"] > 20.0

    def test_drift_triggers_stable_remark(self):
        c = HierarchicalCoordinator()
        c.rate_adapter.set_rate_range("cam", 10.0, 40.0)
        obs = ExecTimeObserver(alpha=1.0)
        obs.observe("t", 0.02)
        obs.mark_stable()
        obs.observe("t", 0.06)  # 200% drift
        assert obs.max_drift() > c.config.rate.drift_reset_threshold
        c.adapt_rates(0.0, {"cam": 20.0}, obs)
        # The coordinator re-baselines the observer after the reset.
        assert obs.max_drift() == pytest.approx(0.0)
        assert c.rate_adapter.resets == 1


class TestReset:
    def test_reset_restores_everything(self):
        c = HierarchicalCoordinator()
        c.report_performance(0.0, 2.0)
        c.sample_controller(0.5)
        c.resolve_gamma(0.0, [job()], lambda j: j.exec_time, 0.0, 2)
        c.reset()
        assert c.tracking_error == 0.0
        assert c.gamma_history == []
        assert c.last_result is None
        assert c.overload_rounds == 0
        assert c.mfc.history == []
