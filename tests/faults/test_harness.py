"""InjectionHarness wiring: each fault kind lands on the right seam."""

import pytest

from repro.faults import (
    ComplexitySurge,
    DeadlineStorm,
    ExecTimeBurst,
    ExecTimeSpike,
    FaultSpec,
    InjectionHarness,
    ProcessorFailure,
    SensorDropout,
)
from repro.faults.harness import _ModulatedExecTime
from repro.obs.recorder import Recorder
from repro.rt import RTExecutor, SimConfig
from repro.schedulers import EDFScheduler
from tests.conftest import build_chain_graph


def make_executor(n_processors=2, horizon=1.0, seed=3, **graph_kwargs):
    g = build_chain_graph(**graph_kwargs)
    ex = RTExecutor(
        g, EDFScheduler(), SimConfig(n_processors=n_processors, horizon=horizon, seed=seed)
    )
    ex.recorder = Recorder()
    return ex


def run_with(spec, **kwargs):
    ex = make_executor(**kwargs)
    harness = InjectionHarness(spec)
    harness.attach(ex)
    ex.run()
    return ex, harness


class TestAttachment:
    def test_empty_spec_is_a_strict_no_op(self):
        ex = make_executor()
        harness = InjectionHarness(FaultSpec())
        harness.attach(ex)
        assert harness.events == []
        assert ex.release_gate is None
        assert not isinstance(ex.graph.task("middle").exec_model, _ModulatedExecTime)

    def test_attach_is_single_use(self):
        harness = InjectionHarness(FaultSpec())
        harness.attach(make_executor())
        with pytest.raises(RuntimeError):
            harness.attach(make_executor())


class TestExecTimeFaults:
    def test_spike_causes_misses_only_in_window(self):
        spec = FaultSpec(faults=[
            ExecTimeSpike(task="middle", t_on=0.2, t_off=0.4, add=0.1),
        ])
        clean_ex, _ = run_with(FaultSpec())
        ex, harness = run_with(spec)
        assert clean_ex.metrics.per_task["middle"].missed == 0
        assert ex.metrics.per_task["middle"].missed > 0
        # every miss happened inside the spike window
        missed = [e for e in ex.recorder.spans() if e.outcome != "complete"]
        assert missed and all(0.2 <= e.release < 0.4 for e in missed)
        kinds = [e.kind for e in harness.events]
        assert kinds == ["exec_spike", "exec_spike"]  # on + off marks

    def test_storm_wraps_every_task(self):
        ex = make_executor()
        InjectionHarness(
            FaultSpec(faults=[DeadlineStorm(t_on=0.1, t_off=0.2, factor=2.0)])
        ).attach(ex)
        for task in ex.graph:
            assert isinstance(task.exec_model, _ModulatedExecTime)

    def test_burst_windows_are_spec_seed_deterministic(self):
        fault = ExecTimeBurst(task="middle", rate=5.0, duration=0.05, factor=2.0)
        h1 = InjectionHarness(FaultSpec(seed=9, faults=[fault]))
        h2 = InjectionHarness(FaultSpec(seed=9, faults=[fault]))
        h3 = InjectionHarness(FaultSpec(seed=10, faults=[fault]))
        w1 = h1._schedule_bursts(fault, 0, horizon=50.0)
        w2 = h2._schedule_bursts(fault, 0, horizon=50.0)
        w3 = h3._schedule_bursts(fault, 0, horizon=50.0)
        assert w1 == w2
        assert w1 != w3
        assert all(t_off - t_on <= 0.05 + 1e-12 for t_on, t_off in w1)


class TestSensorDropout:
    def test_releases_suppressed_inside_window(self):
        # Window edges sit between grid points: the 20 Hz releases at 0.2,
        # 0.25, 0.3 and 0.35 are swallowed, the one at 0.4 is not.
        spec = FaultSpec(faults=[SensorDropout(task="source", t_on=0.19, t_off=0.39)])
        ex, harness = run_with(spec)
        drops = [e for e in harness.events if "suppressed" in e.detail]
        assert len(drops) == 4
        assert all(0.19 <= e.t < 0.39 for e in drops)
        started = sorted(e.release for e in ex.recorder.spans() if e.task == "source")
        assert all(not (0.19 <= r < 0.39) for r in started)
        # the release clock kept ticking: the grid resumes at ~0.4
        assert any(abs(r - 0.4) < 1e-6 for r in started)

    def test_non_source_target_rejected(self):
        ex = make_executor()
        harness = InjectionHarness(
            FaultSpec(faults=[SensorDropout(task="middle", t_on=0.1, t_off=0.2)])
        )
        with pytest.raises(ValueError, match="non-source"):
            harness.attach(ex)


class TestProcessorFailure:
    def test_kills_in_flight_job_and_stays_down(self):
        # Single processor; the source job released at 0.2 is mid-execution
        # (constant 2 ms) when the processor dies at 0.201.
        spec = FaultSpec(faults=[ProcessorFailure(processor=0, t_fail=0.201)])
        ex, harness = run_with(spec, n_processors=1)
        assert not ex.processors[0].available
        killed = [e for e in ex.recorder.spans() if e.outcome == "kill"]
        assert len(killed) == 1
        assert killed[0].task == "source"
        assert abs(killed[0].finish - 0.201) < 1e-9
        fail_events = [e for e in harness.events if e.kind == "processor_failure"]
        assert len(fail_events) == 1
        assert "killed=source" in fail_events[0].detail
        # nothing executes after the failure
        assert all(e.start < 0.201 for e in ex.recorder.spans())

    def test_recovery_restores_dispatch(self):
        spec = FaultSpec(faults=[ProcessorFailure(processor=0, t_fail=0.3, t_recover=0.6)])
        ex, harness = run_with(spec, n_processors=1)
        assert ex.processors[0].available
        assert any(e.start >= 0.6 for e in ex.recorder.spans())
        assert [e.detail.split()[0] for e in harness.events
                if e.kind == "processor_failure"] == ["fail", "recover"]

    def test_out_of_range_processor_rejected(self):
        ex = make_executor(n_processors=2)
        harness = InjectionHarness(
            FaultSpec(faults=[ProcessorFailure(processor=2, t_fail=0.1)])
        )
        with pytest.raises(ValueError, match="platform has 2"):
            harness.attach(ex)


class TestComplexitySurge:
    def test_timeline_amplified_only_in_window(self):
        ex = make_executor()
        base = ex.complexity
        InjectionHarness(
            FaultSpec(faults=[ComplexitySurge(t_on=0.2, t_off=0.4, scale=2.0, add=5.0)])
        ).attach(ex)
        assert ex.complexity(0.1) == base(0.1)
        assert ex.complexity(0.3) == base(0.3) * 2.0 + 5.0
        assert ex.complexity(0.4) == base(0.4)
