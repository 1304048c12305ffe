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
        assert ex.rates()["source"] == 5.0

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

    @pytest.mark.parametrize("rate_range", [None, (5.0, 20.0)])
    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), float("-inf")])
    def test_set_rate_rejects_non_finite(self, rate, rate_range):
        # A NaN rate used to clamp to r_min on a ranged source and, on an
        # unranged one, stop releases after the first (NaN never compares
        # <= the horizon); +inf gave a zero period.  Only the error is
        # checked: no run ever sees such a rate.
        g = build_chain_graph(rate=10.0, rate_range=rate_range)
        ex = RTExecutor(g, EDFScheduler(), SimConfig(horizon=1.0))
        with pytest.raises(ValueError, match="finite"):
            ex.set_rate("source", rate)
        assert ex.rates() == {"source": 10.0}

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


    @pytest.mark.parametrize("period", [float("nan"), float("inf"), -0.1])
    def test_periodic_hook_rejects_non_finite_period(self, period):
        # A NaN period used to be accepted: its first tick then sat in the
        # event heap at NaN, which breaks heapq's order.
        ex = RTExecutor(build_chain_graph(), EDFScheduler(), SimConfig(horizon=1.0))
        with pytest.raises(ValueError, match="positive and finite"):
            ex.add_periodic("bad", period, lambda t: None)
        assert ex._periodic == []

    def test_oneshot_rejects_nan_time(self):
        nan = float("nan")
        ex = RTExecutor(build_chain_graph(), EDFScheduler(), SimConfig(horizon=1.0))
        with pytest.raises(ValueError, match=">= 0"):
            ex.at(nan, "bad", lambda t: None)
        assert ex._oneshots == []
        rejected = []

        def schedule_nan(t):
            pending = len(ex._events)
            with pytest.raises(ValueError, match=">= 0"):
                ex.at(nan, "bad", lambda t: None)
            rejected.append(len(ex._events) == pending)

        ex.at(0.5, "probe", schedule_nan)
        ex.run()
        assert rejected == [True]

    def test_stop_aborts_run(self):
        g = build_chain_graph()
        ex = RTExecutor(g, EDFScheduler(), SimConfig(n_processors=2, horizon=10.0, seed=0))
        ex.add_periodic("stopper", 0.3, lambda t: ex.stop())
        ex.run()
        assert ex.now <= 0.4

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


class TestHotPathInvariants:
    """What the executor's per-job shortcuts rely on."""

    def test_speedup_table_matches_effective_speedup(self):
        from repro.workloads.profiles import heterogeneous_task_graph

        g = heterogeneous_task_graph()
        ex = RTExecutor(
            g, EDFScheduler(), SimConfig(processor_profile="2xCPU+1xGPU@3", horizon=0.5)
        )
        ex.run()
        speedups = set()
        for proc in ex.processors:
            for task in g:
                want = proc.effective_speedup(task)
                assert ex._unit_speedup[proc.index][task.name] == want
                speedups.add(want)
        assert speedups == {1.0, 3.0}  # a typed platform, not the identity one

    def test_placement_is_decided_once_per_unit_and_task(self):
        # A policy that reserves the GPU for one task: eligible() is asked
        # once per (unit, task) pair, after prepare(), and no job ever runs
        # on a unit that does not admit its task.
        from repro.workloads.profiles import full_task_graph

        reserved = "camera_object_detection"

        class ReservedGPU(EDFScheduler):
            def __init__(self):
                self.prepared = False
                self.asked = []

            def prepare(self, graph, n_processors):
                self.prepared = True

            def eligible(self, task, processor):
                assert self.prepared, "placement asked before prepare()"
                self.asked.append((processor.index, task.name))
                if processor.unit_type == "GPU" and task.name != reserved:
                    return False
                return super().eligible(task, processor)

        g = full_task_graph()
        policy = ReservedGPU()
        ex = RTExecutor(g, policy, SimConfig(processor_profile="2xCPU+1xGPU@3", horizon=2.0))
        released = []
        on_release = ex.metrics.on_release

        def spy(job):
            released.append(job)
            on_release(job)

        ex.metrics.on_release = spy
        ex.run()
        pairs = [(p.index, t.name) for p in ex.processors for t in g]
        assert sorted(policy.asked) == sorted(pairs) and len(policy.asked) == 3 * 23
        ran = [job for job in released if job.processor is not None]
        on_gpu = {job.task.name for job in ran if job.unit == "GPU"}
        assert on_gpu == {reserved}
        assert {job.task.name for job in ran if job.unit == "CPU"} >= {t.name for t in g} - on_gpu
        assert all(ex.processors[job.processor].unit_type == job.unit for job in ran)

    @pytest.mark.parametrize("activation", ["all-inputs", "newest-only"])
    def test_provenance_survives_successor_releases(self, activation):
        # Successors share a completed job's provenance instead of copying
        # it, so nothing may mutate a provenance once its job is released.
        from repro.workloads.profiles import FUSION_TASK, heterogeneous_task_graph

        g = heterogeneous_task_graph()
        g.task(FUSION_TASK).activation = activation
        ex = RTExecutor(
            g, EDFScheduler(), SimConfig(processor_profile="2xCPU+1xGPU@3", horizon=2.0)
        )
        released = []
        on_release = ex.metrics.on_release

        def spy(job):
            released.append((job, list(job.provenance.items())))
            on_release(job)

        ex.metrics.on_release = spy
        m = ex.run()
        assert m.per_task[FUSION_TASK].released > 0
        assert any(len(snapshot) > 1 for _, snapshot in released)  # merged inputs
        for job, snapshot in released:
            assert list(job.provenance.items()) == snapshot, job

    @pytest.mark.parametrize("activation", ["all-inputs", "newest-only"])
    def test_merged_provenance_is_the_reference_merge(self, activation):
        # One pending input is handed on as the very dict its job carries;
        # any merge equals the oldest-sample-per-source rule, keys in order.
        from repro.workloads.profiles import FUSION_TASK, heterogeneous_task_graph

        g = heterogeneous_task_graph()
        g.task(FUSION_TASK).activation = activation
        ex = RTExecutor(
            g, EDFScheduler(), SimConfig(processor_profile="2xCPU+1xGPU@3", horizon=2.0)
        )
        merge = ex._merge_pending
        single_input = []

        def checked(pending):
            reference = {}
            for prov in pending.values():
                for source, ts in prov.items():
                    reference[source] = min(ts, reference.get(source, ts))
            merged = merge(pending)
            assert list(merged.items()) == list(reference.items())
            single_input.append(len(pending) == 1)
            if len(pending) == 1:
                assert merged is next(iter(pending.values()))
            return merged

        ex._merge_pending = checked
        ex.run()
        assert any(single_input) and not all(single_input)

    @pytest.mark.parametrize("profile", ["homogeneous", "heterogeneous"])
    def test_busy_remaining_is_the_remaining_sum_at_every_plant_tick(self, profile):
        # ΣT_p reads busy_until directly; it must equal the per-unit
        # remaining() sum bit for bit on a real HCPerf run, on 2 CPUs and
        # on 2xCPU+1xGPU@3 (where three terms can round differently).
        from repro.experiments.heterogeneous import build_scenario
        from repro.experiments.runner import run_scenario

        probes = []

        def probe_plant_ticks(ex):
            hook = next(h for h in ex._periodic if h.name == "plant")
            tick = hook.fn

            def probed(now):
                procs = ex.view.processors
                reference = sum([p.remaining(now) for p in procs if p.job is not None], 0.0)
                probes.append((ex.view.busy_remaining(now).hex(), reference.hex()))
                tick(now)

            hook.fn = probed

        scenario = build_scenario(profile, horizon=12.0)
        run_scenario(scenario, "HCPerf", before_run=probe_plant_ticks)
        assert all(fast == reference for fast, reference in probes)
        busy = sum(reference != (0.0).hex() for _, reference in probes)
        assert busy > len(probes) // 4  # most ticks see work in flight
