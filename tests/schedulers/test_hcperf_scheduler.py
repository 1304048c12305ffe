"""Unit tests for the HCPerf scheduler adapter."""

import pytest

from repro.core.rate_adapter import RateAdapterConfig
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


def make_graph():
    g = TaskGraph()
    g.add_task(
        TaskSpec("src", priority=5, relative_deadline=0.1,
                 exec_model=ConstantExecTime(0.005), rate=20.0, rate_range=(10.0, 40.0))
    )
    g.add_task(
        TaskSpec("fixed_src", priority=5, relative_deadline=0.1,
                 exec_model=ConstantExecTime(0.005), rate=20.0)  # no range
    )
    g.add_task(
        TaskSpec("ctl", priority=1, relative_deadline=0.1,
                 exec_model=ConstantExecTime(0.002))
    )
    g.add_edge("src", "ctl")
    g.add_edge("fixed_src", "ctl")
    g.validate()
    return g


def make_view(graph, jobs=()):
    q = ReadyQueue()
    for j in jobs:
        q.push(j)
    return SystemView(
        ready=q,
        processors=[ProcessorState(0), ProcessorState(1)],
        observer=ExecTimeObserver(),
        rates={"src": 20.0, "fixed_src": 20.0},
    )


def window(miss=0.0, util=0.5, t=0.5):
    return WindowSample(
        t_start=t - 0.5, t_end=t, completed=10, missed=int(miss * 10),
        control_commands=5, utilization=util,
    )


class TestPrepare:
    def test_registers_adaptable_rate_ranges(self):
        g = make_graph()
        s = HCPerfScheduler()
        s.prepare(g, 2)
        ranges = s.rate_adapter.rate_ranges
        assert ranges == {"src": (10.0, 40.0)}


class TestDispatch:
    def test_dispatch_round_updates_gamma(self):
        g = make_graph()
        s = HCPerfScheduler()
        s.prepare(g, 2)
        # Build positive error history so u > 0.
        for i in range(20):
            s.report_performance(i * 0.05, 1.0)
        s.on_window(1.0, make_view(g), window(t=1.0))
        j = Job(task=g.task("ctl"), release_time=1.0, exec_time=0.002)
        view = make_view(g, [j])
        s.on_dispatch_round(1.0, view)
        assert s.gamma > 0.0

    def test_rank_uses_dynamic_priority(self):
        g = make_graph()
        s = HCPerfScheduler()
        s.prepare(g, 2)
        view = make_view(g)
        j = Job(task=g.task("ctl"), release_time=0.0, exec_time=0.002)
        # gamma = 0 initially -> rank is the slack.
        rank = s.rank(j, 0.0, view)
        assert rank == pytest.approx(0.1 - 0.002)

    def test_drops_expired(self):
        assert HCPerfScheduler.drop_expired is True


class TestWindowFlow:
    def test_on_window_produces_rates_once(self):
        g = make_graph()
        s = HCPerfScheduler()
        s.prepare(g, 2)
        view = make_view(g)
        s.report_performance(0.1, 0.5)
        rates = s.on_window(0.5, view, window(miss=0.0, util=0.4))
        assert rates is not None
        assert rates["src"] > 20.0  # epsilon pushes up
        # Each window returns a request of its own.
        again = s.on_window(1.0, view, window(miss=0.0, util=0.4, t=1.0))
        assert again is not rates and again["src"] > 20.0

    def test_ablated_external_returns_no_rates(self):
        g = make_graph()
        s = HCPerfScheduler(HCPerfConfig(enable_external=False))
        s.prepare(g, 2)
        view = make_view(g)
        s.report_performance(0.1, 0.5)
        assert s.on_window(0.5, view, window()) is None

    def test_overloaded_window_reduces_rates(self):
        g = make_graph()
        s = HCPerfScheduler(
            HCPerfConfig(rate=RateAdapterConfig(kp_initial=20.0))
        )
        s.prepare(g, 2)
        view = make_view(g)
        s.report_performance(0.1, 0.5)
        rates = s.on_window(0.5, view, window(miss=0.5, util=0.99))
        assert rates["src"] < 20.0

    def test_first_window_marks_observer_stable(self):
        g = make_graph()
        s = HCPerfScheduler()
        s.prepare(g, 2)
        view = make_view(g)
        view.observer.observe("src", 0.005)
        s.report_performance(0.1, 0.5)
        s.on_window(0.5, view, window())
        assert view.observer.max_drift() == pytest.approx(0.0)
