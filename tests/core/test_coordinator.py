"""Unit tests for HCPerf's two coordinators as :class:`HCPerfScheduler` runs them.

The internal coordinator (MFC + dynamic-priority γ resolution) runs in
``report_performance``, ``on_window`` and ``on_dispatch_round``; the external
one (the Task Rate Adapter) in ``on_window``.
"""

import pytest

from repro.obs.recorder import Recorder
from repro.rt import (
    ConstantExecTime,
    ExecTimeObserver,
    Job,
    ProcessorState,
    ReadyQueue,
    TaskGraph,
    TaskSpec,
)
from repro.rt.metrics import WindowSample
from repro.rt.view import SystemView
from repro.schedulers import HCPerfConfig, HCPerfScheduler


def job(name="t", priority=1, exec_time=0.01, deadline=0.1):
    spec = TaskSpec(
        name=name, priority=priority, relative_deadline=deadline,
        exec_model=ConstantExecTime(exec_time),
    )
    return Job(task=spec, release_time=0.0, exec_time=exec_time)


def cam_graph():
    g = TaskGraph()
    g.add_task(
        TaskSpec("cam", priority=5, relative_deadline=0.1,
                 exec_model=ConstantExecTime(0.005), rate=20.0, rate_range=(10.0, 40.0))
    )
    return g


def view(jobs=(), n_processors=2, observer=None):
    q = ReadyQueue()
    for j in jobs:
        q.push(j)
    return SystemView(
        ready=q,
        processors=[ProcessorState(i) for i in range(n_processors)],
        observer=observer or ExecTimeObserver(),
        rates={"cam": 20.0},
    )


def window(miss=0.0, util=0.5, t=0.5):
    return WindowSample(
        t_start=t - 0.5, t_end=t, completed=10, missed=int(miss * 10),
        control_commands=5, utilization=util,
    )


def scheduler(config=None, recorder=None):
    s = HCPerfScheduler(config)
    s.prepare(cam_graph(), 2)
    s.recorder = recorder
    return s


class TestInternalCoordinator:
    def test_report_performance_updates_error(self):
        s = scheduler()
        s.report_performance(0.0, 1.5)
        assert s.tracking_error == 1.5

    def test_sample_controller_returns_u(self):
        rec = Recorder()
        s = scheduler(recorder=rec)
        for i in range(10):
            s.report_performance(i * 0.05, 1.0)
        s.on_window(0.5, view(), window())
        (event,) = rec.by_kind("controller")
        assert event.u == s.mfc.u
        assert event.f_hat == s.mfc.f_hat
        assert s.mfc.u > 0.0

    def test_resolve_gamma_records_history(self):
        s = scheduler()
        s.on_dispatch_round(0.0, view([job(exec_time=0.001, deadline=1.0)]))
        result = s.last_result
        assert result is not None and s.gamma == result.gamma
        assert s.gamma_history == [(0.0, result.gamma)]
        s.on_dispatch_round(0.25, view([job(exec_time=0.001, deadline=1.0)]))
        assert s.last_result is not result
        assert [t for t, _ in s.gamma_history] == [0.0, 0.25]

    def test_overload_counted(self):
        s = scheduler()
        s.on_dispatch_round(0.0, view([job(exec_time=0.5, deadline=0.1)], n_processors=1))
        assert s.last_result.overloaded
        assert s.overload_rounds == 1
        s.on_dispatch_round(0.1, view([job(exec_time=0.001, deadline=1.0)]))
        assert not s.last_result.overloaded
        assert s.overload_rounds == 1


class TestGammaHistory:
    def test_long_horizon_keeps_every_sample(self):
        # More dispatch rounds than fig13 makes in 90 s (61,744): every sample
        # stays, from the first, and the history is a plain list.
        s = scheduler()
        v = view([job(exec_time=0.001, deadline=1.0)])
        n = 65_536 + 1_000
        for i in range(n):
            s.on_dispatch_round(i * 1e-3, v)
        assert type(s.gamma_history) is list
        assert len(s.gamma_history) == n
        assert [t for t, _ in s.gamma_history] == [i * 1e-3 for i in range(n)]


class TestExternalCoordinator:
    def test_adapt_rates_disabled_returns_none(self):
        rec = Recorder()
        s = scheduler(HCPerfConfig(enable_external=False), recorder=rec)
        assert s.on_window(0.5, view(), window(miss=0.1)) is None
        assert s.rate_adapter.kp == s.config.rate.kp_initial
        assert rec.by_kind("rate_adapter") == []
        assert len(rec.by_kind("controller")) == 1

    def test_adapt_rates_applies_update(self):
        rec = Recorder()
        s = scheduler(recorder=rec)
        out = s.on_window(0.5, view(), window(miss=0.0, util=0.4))
        assert out is not None and out["cam"] > 20.0
        (event,) = rec.by_kind("rate_adapter")
        assert event.kp == s.rate_adapter.kp and not event.reset

    def test_drift_triggers_stable_remark(self):
        rec = Recorder()
        s = scheduler(recorder=rec)
        for k in range(s.drift_warmup_windows):  # past the warm-up re-baselining
            s.on_window(0.5 * (k + 1), view(), window(t=0.5 * (k + 1)))
        obs = ExecTimeObserver(alpha=1.0)
        obs.observe("t", 0.02)
        obs.mark_stable()
        obs.observe("t", 0.06)  # 200% drift
        assert obs.max_drift() > s.config.rate.drift_reset_threshold
        s.on_window(2.5, view(observer=obs), window(t=2.5))
        # The scheduler re-baselines the observer after the reset.
        assert obs.max_drift() == pytest.approx(0.0)
        assert s.rate_adapter.resets == 1
        assert [e.reset for e in rec.by_kind("rate_adapter")] == [False] * 4 + [True]
