"""Unit tests for the four baseline scheduling policies."""

import dataclasses

import pytest

from repro.rt import (
    ConstantExecTime,
    Criticality,
    ExecTimeObserver,
    Job,
    ProcessorState,
    ReadyQueue,
    TaskGraph,
    TaskSpec,
)
from repro.rt.view import SystemView
from repro.schedulers import (
    ApolloScheduler,
    EDFScheduler,
    EDFVDScheduler,
    HPFScheduler,
    make_scheduler,
    virtual_deadline_factor,
)


def spec(name, priority=1, deadline=0.1, rate=None, crit=Criticality.LOW, affinity=None):
    return TaskSpec(
        name=name,
        priority=priority,
        relative_deadline=deadline,
        exec_model=ConstantExecTime(0.01),
        rate=rate,
        criticality=crit,
        affinity=affinity,
    )


def job(task_spec, release=0.0):
    return Job(task=task_spec, release_time=release, exec_time=0.01)


VIEW = SystemView(ready=ReadyQueue(), processors=[], observer=ExecTimeObserver(), rates={})


class TestHPF:
    def test_rank_is_priority(self):
        s = HPFScheduler()
        assert s.rank(job(spec("a", priority=3)), 0.0, VIEW) == 3.0
        assert s.rank(job(spec("b", priority=1)), 0.0, VIEW) == 1.0

    def test_does_not_drop_expired(self):
        assert HPFScheduler.drop_expired is False


class TestEDF:
    def test_rank_is_absolute_deadline(self):
        s = EDFScheduler()
        j = job(spec("a", deadline=0.2), release=1.0)
        assert s.rank(j, 1.0, VIEW) == pytest.approx(1.2)

    def test_earlier_deadline_wins(self):
        s = EDFScheduler()
        early = job(spec("e", deadline=0.05), release=0.0)
        late = job(spec("l", deadline=0.5), release=0.0)
        assert s.rank(early, 0.0, VIEW) < s.rank(late, 0.0, VIEW)


class TestEDFVD:
    def test_factor_validation(self):
        with pytest.raises(ValueError):
            EDFVDScheduler(x=0.0)
        with pytest.raises(ValueError):
            EDFVDScheduler(x=1.5)

    def test_virtual_deadline_shrinks_high_criticality(self):
        g = TaskGraph()
        g.add_task(spec("hi", deadline=0.1, crit=Criticality.HIGH, rate=10.0))
        g.add_task(spec("lo", deadline=0.1))
        g.add_edge("hi", "lo")
        s = EDFVDScheduler(x=0.5)
        s.prepare(g, 2)
        j_hi = job(g.task("hi"))
        j_lo = job(g.task("lo"))
        assert s.rank(j_hi, 0.0, VIEW) == pytest.approx(0.05)
        assert s.rank(j_lo, 0.0, VIEW) == pytest.approx(0.1)

    def test_unknown_task_falls_back_to_actual_deadline(self):
        s = EDFVDScheduler(x=0.5)
        j = job(spec("never_prepared", deadline=0.2))
        assert s.rank(j, 0.0, VIEW) == pytest.approx(0.2)

    def test_factor_formula(self):
        assert virtual_deadline_factor(0.5, 0.25) == pytest.approx(0.5)
        # Degenerate inputs fall back to 1.0 (no shortening).
        assert virtual_deadline_factor(1.2, 0.3) == 1.0
        assert virtual_deadline_factor(0.5, 0.9) == 1.0
        assert virtual_deadline_factor(0.5, 0.0) == 1.0


class TestApollo:
    def make_graph(self):
        g = TaskGraph()
        g.add_task(spec("src", priority=5, rate=10.0))
        g.add_task(spec("mid", priority=3))
        g.add_task(spec("sink", priority=1))
        g.add_edge("src", "mid")
        g.add_edge("mid", "sink")
        return g

    @staticmethod
    def units_admitting(s, task, n_processors):
        return [i for i in range(n_processors) if s.eligible(task, ProcessorState(i))]

    def test_prepare_binds_every_task(self):
        g = self.make_graph()
        s = ApolloScheduler()
        s.prepare(g, 2)
        for t in g:
            assert len(self.units_admitting(s, t, 2)) == 1

    def test_eligible_also_applies_affinity(self):
        g = self.make_graph()
        g.add_task(spec("gpu_stage", affinity={"GPU"}))
        g.add_edge("mid", "gpu_stage")
        s = ApolloScheduler()
        s.prepare(g, 2)
        units = [ProcessorState(i, unit_type=u) for i in range(2) for u in ("CPU", "GPU")]
        for t in g:
            # One unit index per task, and there only the unit types its
            # affinity names.
            (bound,) = {p.index for p in units if s.eligible(t, p)}
            for p in units:
                assert s.eligible(t, p) == (p.index == bound and p.can_run(t))

    def test_prepare_leaves_the_graph_untouched(self):
        g = self.make_graph()
        before = [dataclasses.astuple(t) for t in g]
        s = ApolloScheduler()
        s.prepare(g, 2)
        assert [dataclasses.astuple(t) for t in g] == before

    def test_greedy_binding_balances_load(self):
        # One heavy task and several light ones: the heavy task should be
        # alone (or nearly) on its processor.
        g = TaskGraph()
        g.add_task(
            TaskSpec("heavy", priority=5, relative_deadline=0.2,
                     exec_model=ConstantExecTime(0.05), rate=10.0)
        )
        for i in range(4):
            g.add_task(
                TaskSpec(f"light{i}", priority=3, relative_deadline=0.2,
                         exec_model=ConstantExecTime(0.001))
            )
            g.add_edge("heavy", f"light{i}")
        s = ApolloScheduler()
        s.prepare(g, 2)
        (heavy_proc,) = self.units_admitting(s, g.task("heavy"), 2)
        light_procs = {
            proc for i in range(4) for proc in self.units_admitting(s, g.task(f"light{i}"), 2)
        }
        assert light_procs == {1 - heavy_proc}

    def test_rank_is_static_priority(self):
        s = ApolloScheduler()
        assert s.rank(job(spec("a", priority=4)), 0.0, VIEW) == 4.0

    def test_does_not_drop_expired(self):
        assert ApolloScheduler.drop_expired is False


class TestRegistry:
    def test_make_scheduler_all_names(self):
        for name in ("HPF", "EDF", "EDF-VD", "Apollo", "HCPerf"):
            s = make_scheduler(name)
            assert s.name == name

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            make_scheduler("ROUND-ROBIN")

    def test_instances_are_fresh(self):
        assert make_scheduler("EDF") is not make_scheduler("EDF")


class TestEDFVDAutoX:
    def test_derives_from_graph(self):
        from repro.workloads import full_task_graph

        s = EDFVDScheduler(x=None)
        s.prepare(full_task_graph(), 2)
        assert 0.0 < s.effective_x <= 1.0

    def test_explicit_x_unchanged_by_prepare(self):
        from repro.workloads import full_task_graph

        s = EDFVDScheduler(x=0.6)
        s.prepare(full_task_graph(), 2)
        assert s.effective_x == 0.6

    def test_all_low_criticality_falls_back_to_one(self):
        g = TaskGraph()
        g.add_task(spec("a", rate=10.0))
        g.add_task(spec("b"))
        g.add_edge("a", "b")
        s = EDFVDScheduler(x=None)
        s.prepare(g, 2)
        assert s.effective_x == 1.0
