"""Integration-level tests of the discrete-event executor semantics."""

import pytest

from repro.rt import (
    ConstantExecTime,
    RTExecutor,
    SimConfig,
    TaskGraph,
    TaskSpec,
)
from repro.schedulers import EDFScheduler, HPFScheduler
from tests.conftest import build_chain_graph, build_diamond_graph


def run_chain(horizon=1.0, scheduler=None, **graph_kwargs):
    g = build_chain_graph(**graph_kwargs)
    ex = RTExecutor(
        g,
        scheduler or EDFScheduler(),
        SimConfig(n_processors=2, horizon=horizon, coordination_period=0.25, seed=1),
    )
    metrics = ex.run()
    return ex, metrics


class TestReleases:
    def test_source_release_count_matches_rate(self):
        ex, m = run_chain(horizon=1.0, rate=20.0)
        # Releases every 0.05 s over [0, 1]; float accumulation may or may
        # not include the final instant.
        assert m.per_task["source"].released in (20, 21)

    def test_chain_propagates_to_sink(self):
        ex, m = run_chain(horizon=1.0)
        assert m.per_task["sink"].completed > 0
        # Every completed source job should eventually produce one sink job.
        assert m.per_task["sink"].released == m.per_task["middle"].completed

    def test_and_activation_requires_all_predecessors(self):
        g = build_diamond_graph(rate=10.0)
        ex = RTExecutor(
            g, EDFScheduler(), SimConfig(n_processors=2, horizon=1.0, seed=0)
        )
        m = ex.run()
        # The sink fires once per cycle, not once per branch completion.
        assert m.per_task["sink"].released == m.per_task["left"].completed
        assert m.per_task["sink"].released == m.per_task["right"].completed

    def test_provenance_tracks_source_timestamp(self):
        commands = []
        g = build_chain_graph(rate=10.0)
        ex = RTExecutor(
            g,
            EDFScheduler(),
            SimConfig(n_processors=2, horizon=0.5, seed=0),
            on_control=lambda job, now: commands.append((job.sense_time, now)),
        )
        ex.run()
        assert commands, "sink should have produced control commands"
        for sense, now in commands:
            assert sense <= now
            # Sense time is a source release instant: multiple of 0.1 s.
            assert abs(sense / 0.1 - round(sense / 0.1)) < 1e-9


class TestDeadlines:
    def test_late_finish_counts_as_miss_and_blocks_successors(self):
        # middle takes longer than its deadline -> always misses.
        g = build_chain_graph(exec_times=(0.001, 0.2, 0.001), deadlines=(0.05, 0.05, 0.05))
        ex = RTExecutor(
            g, EDFScheduler(), SimConfig(n_processors=2, horizon=1.0, seed=0)
        )
        m = ex.run()
        assert m.per_task["middle"].missed > 0
        assert m.per_task["middle"].completed == 0
        assert m.per_task.get("sink") is None or m.per_task["sink"].released == 0

    def test_drop_expired_skips_execution(self):
        class DroppingEDF(EDFScheduler):
            drop_expired = True

        # One processor, overload: many jobs expire in the queue.
        g = build_chain_graph(
            rate=50.0, exec_times=(0.03, 0.001, 0.001), deadlines=(0.04, 0.05, 0.05)
        )
        ex = RTExecutor(
            g, DroppingEDF(), SimConfig(n_processors=1, horizon=1.0, seed=0)
        )
        m = ex.run()
        assert m.per_task["source"].dropped > 0

    def test_no_drop_executes_late_jobs(self):
        class KeepingEDF(EDFScheduler):
            drop_expired = False

        g = build_chain_graph(
            rate=50.0, exec_times=(0.03, 0.001, 0.001), deadlines=(0.04, 0.05, 0.05)
        )
        ex = RTExecutor(
            g, KeepingEDF(), SimConfig(n_processors=1, horizon=1.0, seed=0,
                                       max_pending_per_task=1000)
        )
        m = ex.run()
        stats = m.per_task["source"]
        assert stats.missed > 0
        # Late jobs ran to completion, so they are not "dropped".
        assert stats.dropped == 0


class TestBoundedChannels:
    def test_eviction_keeps_per_task_backlog_bounded(self):
        g = build_chain_graph(
            rate=45.0,
            rate_range=(10.0, 50.0),
            exec_times=(0.05, 0.001, 0.001),
            deadlines=(1.0, 1.0, 1.0),
        )
        cap = 3
        ex = RTExecutor(
            g,
            EDFScheduler(),
            SimConfig(n_processors=1, horizon=1.0, seed=0, max_pending_per_task=cap),
        )
        probe = []
        ex.add_periodic(
            "probe",
            0.05,
            lambda t: probe.append(
                sum(1 for j in ex.ready if j.task.name == "source")
            ),
        )
        m = ex.run()
        assert max(probe) <= cap
        assert m.per_task["source"].dropped > 0


class TestRates:
    def test_set_rate_changes_release_cadence(self):
        g = build_chain_graph(rate=10.0)
        ex = RTExecutor(g, EDFScheduler(), SimConfig(n_processors=2, horizon=1.0, seed=0))
        ex.add_periodic("bump", 0.5, lambda t: ex.set_rate("source", 40.0))
        m = ex.run()
        # ~5 releases in the first half, ~20 in the second.
        assert 12 <= m.per_task["source"].released <= 28

    def test_set_rate_clamps_to_range(self):
        g = build_chain_graph(rate=10.0, rate_range=(5.0, 20.0))
        ex = RTExecutor(g, EDFScheduler(), SimConfig(horizon=1.0))
        assert ex.set_rate("source", 100.0) == 20.0
        assert ex.set_rate("source", 1.0) == 5.0
        assert ex.get_rate("source") == 5.0

    def test_set_rate_rejects_non_source(self):
        g = build_chain_graph()
        ex = RTExecutor(g, EDFScheduler(), SimConfig(horizon=1.0))
        with pytest.raises(ValueError, match="not a source"):
            ex.set_rate("middle", 10.0)

    def test_set_rate_rejects_nonpositive(self):
        g = build_chain_graph()
        ex = RTExecutor(g, EDFScheduler(), SimConfig(horizon=1.0))
        with pytest.raises(ValueError, match="positive"):
            ex.set_rate("source", 0.0)

    def test_rates_snapshot(self):
        g = build_chain_graph(rate=10.0)
        ex = RTExecutor(g, EDFScheduler(), SimConfig(horizon=1.0))
        assert ex.rates() == {"source": 10.0}


class TestHooks:
    def test_periodic_hook_cadence(self):
        g = build_chain_graph()
        ex = RTExecutor(g, EDFScheduler(), SimConfig(n_processors=2, horizon=1.0, seed=0))
        ticks = []
        ex.add_periodic("probe", 0.1, ticks.append)
        ex.run()
        assert len(ticks) == 10
        assert ticks[0] == pytest.approx(0.1)
        assert ticks[-1] == pytest.approx(1.0)

    def test_periodic_hook_validation(self):
        g = build_chain_graph()
        ex = RTExecutor(g, EDFScheduler(), SimConfig(horizon=1.0))
        with pytest.raises(ValueError):
            ex.add_periodic("bad", 0.0, lambda t: None)

    def test_stop_aborts_run(self):
        g = build_chain_graph()
        ex = RTExecutor(g, EDFScheduler(), SimConfig(n_processors=2, horizon=10.0, seed=0))
        ex.add_periodic("stopper", 0.3, lambda t: ex.stop("test-stop"))
        ex.run()
        assert ex.now <= 0.4
        assert ex.stop_reason == "test-stop"

    def test_control_hook_called_per_sink_completion(self):
        calls = []
        g = build_chain_graph(rate=10.0)
        ex = RTExecutor(
            g,
            EDFScheduler(),
            SimConfig(n_processors=2, horizon=1.0, seed=0),
            on_control=lambda job, now: calls.append(now),
        )
        m = ex.run()
        assert len(calls) == m.per_task["sink"].completed


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        def once():
            g = build_chain_graph(rate=30.0)
            ex = RTExecutor(
                g, EDFScheduler(), SimConfig(n_processors=2, horizon=2.0, seed=9)
            )
            m = ex.run()
            return (
                m.per_task["sink"].completed,
                m.overall_miss_ratio,
                ex.utilization(),
            )

        assert once() == once()

    def test_coordination_windows_closed(self):
        g = build_chain_graph()
        ex = RTExecutor(
            g, EDFScheduler(), SimConfig(n_processors=2, horizon=1.0,
                                         coordination_period=0.25, seed=0)
        )
        m = ex.run()
        assert len(m.windows) == 4

    def test_window_utilization_in_unit_range(self):
        g = build_chain_graph(rate=40.0)
        ex = RTExecutor(g, EDFScheduler(), SimConfig(n_processors=1, horizon=1.0, seed=0))
        m = ex.run()
        for w in m.windows:
            assert 0.0 <= w.utilization <= 1.0 + 1e-9


class TestUtilization:
    def test_utilization_between_zero_and_one(self):
        ex, _ = run_chain(horizon=1.0)
        assert 0.0 <= ex.utilization() <= 1.0

    def test_utilization_zero_before_run(self):
        g = build_chain_graph()
        ex = RTExecutor(g, EDFScheduler(), SimConfig(horizon=1.0))
        assert ex.utilization() == 0.0


class TestConfigValidation:
    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            SimConfig(n_processors=0)
        with pytest.raises(ValueError):
            SimConfig(horizon=0.0)
        with pytest.raises(ValueError):
            SimConfig(coordination_period=0.0)
        with pytest.raises(ValueError):
            SimConfig(max_pending_per_task=0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_horizon_and_coordination_period_must_be_finite(self, value):
        with pytest.raises(ValueError, match="horizon must be positive and finite"):
            SimConfig(horizon=value)
        with pytest.raises(ValueError, match="coordination_period must be positive and finite"):
            SimConfig(coordination_period=value)

    def test_invalid_graph_rejected_at_construction(self):
        g = TaskGraph()
        g.add_task(
            TaskSpec("lonely", priority=1, relative_deadline=0.1,
                     exec_model=ConstantExecTime(0.01))
        )
        with pytest.raises(Exception):
            RTExecutor(g, HPFScheduler(), SimConfig(horizon=1.0))


class TestAndGateStarvation:
    def test_one_missing_branch_starves_the_join(self):
        """Diamond graph: if one branch always misses, the sink never fires."""
        from repro.rt import ConstantExecTime

        g = build_diamond_graph(rate=10.0)
        # Make the 'right' branch impossible: exec time beyond its deadline.
        g.task("right").exec_model = ConstantExecTime(0.5)
        ex = RTExecutor(
            g, EDFScheduler(), SimConfig(n_processors=2, horizon=1.0, seed=0)
        )
        m = ex.run()
        assert m.per_task["left"].completed > 0
        assert m.per_task["right"].completed == 0
        assert "sink" not in m.per_task or m.per_task["sink"].released == 0

    def test_join_fires_once_slow_branch_recovers(self):
        """A slow-but-feasible branch throttles (not kills) the join."""
        from repro.rt import ConstantExecTime, TaskSpec

        g = build_diamond_graph(rate=20.0)
        g.task("right").exec_model = ConstantExecTime(0.04)  # slow, meets D=0.1
        ex = RTExecutor(
            g, EDFScheduler(), SimConfig(n_processors=2, horizon=1.0, seed=0)
        )
        m = ex.run()
        assert m.per_task["sink"].released > 0
        assert m.per_task["sink"].released <= m.per_task["right"].completed
