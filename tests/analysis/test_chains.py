"""Tests for end-to-end chain latency attribution."""

import pytest

from repro.analysis.chains import chain_budget, render_chain_budget
from repro.obs.events import SpanEvent
from repro.obs.recorder import Recorder
from repro.rt import RTExecutor, SimConfig
from repro.schedulers import EDFScheduler
from repro.workloads import full_task_graph
from tests.conftest import build_chain_graph


def recorded_chain_run(horizon=2.0):
    g = build_chain_graph()
    ex = RTExecutor(g, EDFScheduler(), SimConfig(n_processors=2, horizon=horizon, seed=1))
    ex.recorder = Recorder()
    ex.run()
    return g, ex.recorder


class TestChainBudget:
    def test_default_path_is_longest(self):
        g, rec = recorded_chain_run()
        budget = chain_budget(g, rec)
        assert budget.path == ["source", "middle", "sink"]

    def test_stage_statistics(self):
        g, rec = recorded_chain_run()
        budget = chain_budget(g, rec)
        for stage in budget.stages:
            assert stage.executions > 0
            assert stage.mean_exec > 0.0
            assert stage.mean_wait >= 0.0
            assert 0.0 <= stage.miss_ratio <= 1.0
        # Constant exec models: the middle stage (0.004 s) dominates.
        assert budget.bottleneck().task == "middle"

    def test_totals_add_up(self):
        g, rec = recorded_chain_run()
        budget = chain_budget(g, rec)
        assert budget.total == pytest.approx(budget.total_wait + budget.total_exec)

    def test_explicit_path(self):
        g, rec = recorded_chain_run()
        budget = chain_budget(g, rec, path=["middle", "sink"])
        assert budget.path == ["middle", "sink"]

    def test_unknown_path_task_raises(self):
        g, rec = recorded_chain_run()
        with pytest.raises(Exception):
            chain_budget(g, rec, path=["nope"])

    def test_untraced_task_zero_stats(self):
        g, _ = recorded_chain_run(horizon=2.0)
        budget = chain_budget(g, Recorder())
        assert all(s.executions == 0 for s in budget.stages)
        assert budget.bottleneck().mean_total == 0.0

    def test_stage_derives_wait_exec_and_miss_from_spans(self):
        g = build_chain_graph()
        rec = Recorder()
        for cycle, (release, start, finish, outcome) in enumerate([
            (0.00, 0.01, 0.04, "complete"),
            (0.05, 0.08, 0.09, "miss"),
            (0.10, 0.10, 0.12, "kill"),
        ]):
            rec.emit(SpanEvent(t=finish, task="middle", cycle=cycle, start=start,
                               finish=finish, release=release, deadline=release + 0.06,
                               outcome=outcome))
        (stage,) = chain_budget(g, rec, path=["middle"]).stages
        assert stage.executions == 3
        assert stage.mean_wait == pytest.approx((0.01 + 0.03 + 0.0) / 3)
        assert stage.mean_exec == pytest.approx((0.03 + 0.01 + 0.02) / 3)
        assert stage.miss_ratio == pytest.approx(2 / 3)

    def test_render(self):
        g, rec = recorded_chain_run()
        out = render_chain_budget(chain_budget(g, rec))
        assert "source → middle → sink" in out
        assert "TOTAL (path sum)" in out

    def test_full_graph_chain(self):
        g = full_task_graph()
        ex = RTExecutor(g, EDFScheduler(), SimConfig(n_processors=2, horizon=1.0, seed=0))
        ex.recorder = Recorder()
        ex.run()
        budget = chain_budget(g, ex.recorder)
        # The longest chain runs from a camera/lidar source to the command.
        assert budget.path[-1] == "control_command"
        assert "sensor_fusion" in budget.path
        assert budget.bottleneck().task == "sensor_fusion"
