"""Recorder unit behaviour: emission, run binding, views, and agreement of
a recording with the run state the experiments read."""

import pytest

from repro.experiments.runner import run_scenario
from repro.faults import NAMED_SPECS
from repro.faults.harness import InjectionHarness
from repro.faults.spec import FaultSpec
from repro.obs.events import (
    EVENT_KINDS,
    ControlEvent,
    DropEvent,
    FaultMarkEvent,
    GammaEvent,
    RateAdapterEvent,
    ReleaseEvent,
    SpanEvent,
    UnresolvedEvent,
    WindowEvent,
    event_from_dict,
)
from repro.obs.invariants import check_recording
from repro.obs.recorder import Recorder
from repro.rt import RTExecutor, SimConfig
from repro.rt.task import Job
from repro.schedulers import EDFScheduler
from repro.workloads import SCENARIOS

from ..conftest import build_chain_graph


def make_job(name="source", release=0.0, cycle=0, deadline=0.05):
    graph = build_chain_graph(deadlines=(deadline, deadline, deadline))
    return Job(
        task=graph.task(name), release_time=release, exec_time=0.002, cycle=cycle
    )


class TestEvents:
    def test_every_kind_round_trips(self):
        samples = {
            "release": {"ev": "release", "t": 0.1, "task": "a", "cycle": 0,
                        "deadline": 0.2},
            "span": {"ev": "span", "t": 0.2, "task": "a", "cycle": 0,
                     "processor": 1, "start": 0.1, "finish": 0.2,
                     "release": 0.1, "deadline": 0.3, "outcome": "complete"},
            "drop": {"ev": "drop", "t": 0.2, "task": "a", "cycle": 1,
                     "release": 0.1, "deadline": 0.15, "reason": "expired"},
            "unresolved": {"ev": "unresolved", "t": 1.0, "task": "a",
                           "cycle": 2, "state": "ready"},
            "gamma": {"ev": "gamma", "t": 0.2, "gamma": 0.01,
                      "gamma_max": 0.02, "overloaded": False},
            "controller": {"ev": "controller", "t": 0.5, "u": 0.01,
                           "f_hat": -0.2},
            "rate_adapter": {"ev": "rate_adapter", "t": 0.5,
                             "miss_ratio": 0.1, "kp": 4.0, "reset": True},
            "rate": {"ev": "rate", "t": 0.5, "task": "a", "rate": 20.0},
            "window": {"ev": "window", "t": 0.5, "t_start": 0.0,
                       "completed": 4, "missed": 1, "control_commands": 2,
                       "utilization": 0.7},
            "control": {"ev": "control", "t": 0.3, "response": 0.01},
            "fault": {"ev": "fault", "t": 2.0, "fault": "exec_spike",
                      "detail": "on task=fusion"},
        }
        assert set(samples) == set(EVENT_KINDS)
        for kind, data in samples.items():
            event = event_from_dict(data)
            assert event.kind == kind
            assert event.to_dict() == data

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            event_from_dict({"ev": "nope", "t": 0.0})

    def test_bad_span_outcome_rejected(self):
        with pytest.raises(ValueError, match="outcome"):
            SpanEvent(t=0.0, outcome="maybe")

    def test_window_miss_ratio(self):
        from repro.obs.events import WindowEvent

        assert WindowEvent(t=1.0, completed=3, missed=1).miss_ratio == 0.25
        assert WindowEvent(t=1.0).miss_ratio == 0.0


class TestRecorder:
    def test_helpers_emit_typed_events(self):
        rec = Recorder()
        job = make_job()
        rec.release(job)
        rec.span(job, processor=0, outcome="complete", finish=0.01)
        rec.drop(job, 0.02, reason="evicted")
        rec.gamma(0.02, 0.01, 0.02, False)
        rec.fault(0.5, "exec_spike", "on")
        assert [e.kind for e in rec.events] == [
            "release", "span", "drop", "gamma", "fault",
        ]
        assert len(rec) == 5
        stats = rec.stats()
        assert stats["_total"] == 5 and stats["span"] == 1

    def test_span_without_start_falls_back_to_finish(self):
        rec = Recorder()
        rec.span(make_job(), processor=0, outcome="kill", finish=0.5)
        span = next(rec.spans())
        assert span.start == span.finish == 0.5

    def test_bind_and_finalize_capture_meta(self, chain_graph, small_config):
        executor = RTExecutor(chain_graph, EDFScheduler(), small_config)
        rec = Recorder()
        executor.recorder = rec
        executor.run()
        assert rec.meta["n_processors"] == 2
        assert rec.meta["seed"] == 42
        assert rec.meta["t_end"] == pytest.approx(executor.now)
        assert rec.t_end == pytest.approx(2.0)
        tasks = rec.task_meta()
        assert set(tasks) == {"source", "middle", "sink"}
        assert tasks["source"]["rate_range"] == [10.0, 50.0]

    def test_by_kind_filter(self):
        rec = Recorder()
        rec.gamma(0.0, 0.0, 0.0, False)
        rec.control(0.1, 0.01)
        assert [e.kind for e in rec.by_kind("gamma")] == ["gamma"]
        assert isinstance(rec.by_kind("gamma")[0], GammaEvent)


class TestRunPairing:
    """``RTExecutor.run`` finalizes the recording in a ``finally``."""

    def test_a_raising_run_still_closes_its_recording(self):
        graph = build_chain_graph(exec_times=(0.03, 0.04, 0.03))
        config = SimConfig(n_processors=2, horizon=2.0, coordination_period=0.25, seed=42)
        executor = RTExecutor(graph, EDFScheduler(), config)
        rec = executor.recorder = Recorder()
        calls = []

        def explode(now: float) -> None:
            calls.append(now)
            if len(calls) == 7:
                raise RuntimeError("hook failed")

        executor.add_periodic("explode", 0.1, explode)
        with pytest.raises(RuntimeError, match="hook failed"):
            executor.run()
        assert rec.meta["t_end"] == pytest.approx(0.7)
        leftover = [(job.task.name, job.cycle) for job in executor.ready] + [
            (proc.job.task.name, proc.job.cycle)
            for proc in executor.processors
            if proc.job is not None
        ]
        unresolved = [(e.task, e.cycle) for e in rec.by_kind("unresolved")]
        assert leftover and sorted(unresolved) == sorted(leftover)
        assert [v for v in check_recording(rec) if v.code == "OBS003"] == []


def early(spec: FaultSpec, onset: float = 1.0) -> FaultSpec:
    """``spec`` with every fault window moved so the first one opens at ``onset``."""
    shift = spec.first_onset() - onset
    data = spec.to_dict()
    for fault in data["faults"]:
        for key in ("t_on", "t_off", "t_fail", "t_recover"):
            if isinstance(fault.get(key), (int, float)):
                fault[key] -= shift
    return FaultSpec.from_dict(data)


class TestRecordingMatchesRunState:
    """A recording tells the same story as the executor and coordinator.

    The experiments and the resilience report read the run state directly,
    so every recorded series must agree with it exactly.
    """

    @pytest.mark.parametrize("scheduler", ["EDF", "HCPerf"])
    @pytest.mark.parametrize("spec_name", sorted(NAMED_SPECS))
    def test_named_fault_spec(self, spec_name, scheduler):
        harness = InjectionHarness(early(NAMED_SPECS[spec_name]()))
        rec = Recorder()
        result = run_scenario(
            SCENARIOS["fig13"](horizon=6.0), scheduler, seed=2, recorder=rec,
            before_run=harness.attach,
        )
        metrics = result.metrics

        windows = [e for e in rec.events if isinstance(e, WindowEvent)]
        assert [
            (e.t_start, e.t, e.completed, e.missed, e.control_commands, e.utilization)
            for e in windows
        ] == [
            (w.t_start, w.t_end, w.completed, w.missed, w.control_commands, w.utilization)
            for w in metrics.windows
        ]
        assert sum(isinstance(e, ControlEvent) for e in rec.events) == len(
            metrics.control_events
        )

        marks = [
            {"t": e.t, "kind": e.fault, "detail": e.detail}
            for e in rec.events
            if isinstance(e, FaultMarkEvent)
        ]
        assert marks == harness.events_dict()
        # fusion_bursts draws its first burst after this short horizon.
        assert marks or spec_name == "fusion_bursts"

        gammas = [e for e in rec.events if isinstance(e, GammaEvent)]
        overloaded = sum(e.overloaded for e in gammas)
        assert overloaded / max(1, len(gammas)) == result.overload_duty_cycle
        assert len(gammas) == len(result.gamma_history)
        resets = [e for e in rec.events if isinstance(e, RateAdapterEvent) and e.reset]
        assert len(resets) == result.rate_adapter_resets

        stats = metrics.per_task.values()
        released = sum(isinstance(e, ReleaseEvent) for e in rec.events)
        completed = sum(
            isinstance(e, SpanEvent) and e.outcome == "complete" for e in rec.events
        )
        missed = sum(
            isinstance(e, DropEvent)
            or (isinstance(e, SpanEvent) and e.outcome != "complete")
            for e in rec.events
        )
        unresolved = sum(isinstance(e, UnresolvedEvent) for e in rec.events)
        assert released == sum(s.released for s in stats)
        assert completed == sum(s.completed for s in stats)
        assert missed == sum(s.missed for s in stats)
        assert completed + missed + unresolved == released
