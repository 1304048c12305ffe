"""Invariant-checker property tests over randomized recorded runs.

Every (seed, scheduler, processor-count) cell runs a randomized small
workload with the recorder attached and asserts the full invariant catalog
stays clean.  All randomness is drawn from per-case ``random.Random(seed)``
streams — fixed seed lists, no global RNG — so a red cell reproduces from
its test id alone.
"""

import random

import pytest

from repro.faults import (
    ExecTimeSpike,
    FaultSpec,
    ProcessorFailure,
    SensorDropout,
)
from repro.faults.harness import InjectionHarness
from repro.obs.invariants import check_recording
from repro.obs.recorder import Recorder
from repro.rt import (
    ConstantExecTime,
    RTExecutor,
    SimConfig,
    TaskGraph,
    TaskSpec,
)
from repro.schedulers import make_scheduler
from tests.conftest import build_chain_or_diamond

#: The fixed seed list every property cell draws its workload from.
SEEDS = (0, 1, 7, 23, 101)

SCHEDULERS = ("EDF", "HCPerf", "HPF")

PROCESSOR_COUNTS = (1, 2, 4)


def random_workload(rng: random.Random) -> TaskGraph:
    """A random chain or diamond graph with randomized costs/deadlines."""
    rate = rng.choice([10.0, 20.0, 40.0])
    scale = rng.uniform(0.3, 3.0)
    deadline = rng.choice([0.04, 0.08, 0.15])
    return build_chain_or_diamond(rate, scale, fan_out=rng.random() < 0.5, deadline=deadline)


def record_run(graph, scheduler_name, n_processors, seed) -> Recorder:
    executor = RTExecutor(
        graph,
        make_scheduler(scheduler_name),
        SimConfig(
            n_processors=n_processors,
            horizon=1.5,
            coordination_period=0.25,
            seed=seed,
        ),
    )
    rec = Recorder()
    executor.recorder = rec
    executor.run()
    return rec


@pytest.mark.parametrize("n_processors", PROCESSOR_COUNTS)
@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("seed", SEEDS)
def test_random_runs_satisfy_all_invariants(seed, scheduler, n_processors):
    rng = random.Random(seed * 1009 + n_processors)
    rec = record_run(random_workload(rng), scheduler, n_processors, seed)
    assert rec.events, "instrumented run produced no events"
    violations = check_recording(rec)
    assert violations == [], "\n".join(str(v) for v in violations)


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_overloaded_runs_stay_sound(scheduler):
    """Execution times far above the deadline: drops/misses/overload flags
    must still reconcile (OBS003/OBS006/OBS008 under real pressure)."""
    g = TaskGraph()
    g.add_task(
        TaskSpec("src", priority=2, relative_deadline=0.02,
                 exec_model=ConstantExecTime(0.03),
                 rate=40.0, rate_range=(10.0, 50.0))
    )
    g.add_task(
        TaskSpec("sink", priority=1, relative_deadline=0.02,
                 exec_model=ConstantExecTime(0.03))
    )
    g.add_edge("src", "sink")
    g.validate()
    rec = record_run(g, scheduler, 1, seed=0)
    violations = check_recording(rec)
    assert violations == [], "\n".join(str(v) for v in violations)
    outcomes = {s.outcome for s in rec.spans()} | {
        e.kind for e in rec.events if e.kind in ("drop",)
    }
    assert outcomes - {"complete"}, "overload scenario produced no pressure"


def scaled_canonical_suite() -> FaultSpec:
    """The canonical three-fault workout, time-compressed to a short run."""
    return FaultSpec(
        name="canonical-scaled",
        faults=[
            ExecTimeSpike(task="sensor_fusion", t_on=1.0, t_off=2.5, factor=2.5),
            SensorDropout(task="image_preprocessing", t_on=3.0, t_off=3.6),
            ProcessorFailure(processor=0, t_fail=4.2, t_recover=4.8),
        ],
    )


@pytest.mark.parametrize("scheduler", ("EDF", "HCPerf"))
def test_canonical_fault_suite_runs_stay_sound(scheduler):
    from repro.experiments.runner import run_scenario
    from repro.workloads.scenarios import motivation_red_light

    harness = InjectionHarness(scaled_canonical_suite())
    rec = Recorder()
    run_scenario(
        motivation_red_light(horizon=6.0),
        scheduler,
        seed=1,
        recorder=rec,
        before_run=harness.attach,
    )
    violations = check_recording(rec)
    assert violations == [], "\n".join(str(v) for v in violations)
    # every injected fault left its marker on the shared timeline
    marks = {e.fault for e in rec.events if e.kind == "fault"}
    assert {"exec_spike", "sensor_dropout", "processor_failure"} <= marks
    # the processor kill (if a job was in flight) shows up as a kill span or
    # at minimum the failure marker bracketed by recovery
    details = [e.detail for e in rec.events if e.kind == "fault"]
    assert any("fail" in d for d in details)
    assert any("recover" in d for d in details)


def test_recorder_attachment_does_not_change_the_run():
    """Recorder-on and recorder-off runs produce identical metrics."""
    rng = random.Random(99)
    graph_a = random_workload(rng)
    rng = random.Random(99)
    graph_b = random_workload(rng)
    cfg = SimConfig(n_processors=2, horizon=1.5, coordination_period=0.25, seed=5)

    plain = RTExecutor(graph_a, make_scheduler("HCPerf"), cfg)
    plain_metrics = plain.run()

    recorded = RTExecutor(graph_b, make_scheduler("HCPerf"), cfg)
    recorded.recorder = Recorder()
    recorded_metrics = recorded.run()

    assert plain_metrics.miss_ratio_series() == recorded_metrics.miss_ratio_series()
    assert plain_metrics.overall_miss_ratio == recorded_metrics.overall_miss_ratio
    assert plain.rates() == recorded.rates()
    assert plain.utilization() == recorded.utilization()


# ---------------------------------------------------------------------------
# Typed platforms and activation modes (OBS001-OBS009 must stay clean)
# ---------------------------------------------------------------------------

TYPED_PROFILES = ("2xCPU", "1xCPU+1xGPU@2", "2xCPU+1xGPU@3")

ACTIVATIONS = ("all-inputs", "newest-only")


def typed_workload(rng: random.Random, profile: str, activation: str) -> TaskGraph:
    """A random workload retargeted onto a typed platform.

    On GPU-bearing profiles one middle stage becomes GPU-affine (with a
    speedup override); the sink gets the requested activation mode.
    """
    g = random_workload(rng)
    names = {t.name for t in g}
    if "GPU" in profile:
        target = "mid" if "mid" in names else "left"
        g.task(target).affinity = frozenset({"GPU"})
        g.task(target).speedup = {"GPU": 2.0}
    g.task("sink").activation = activation
    return g


@pytest.mark.parametrize("profile", TYPED_PROFILES)
@pytest.mark.parametrize("activation", ACTIVATIONS)
@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_typed_runs_satisfy_all_invariants(scheduler, activation, profile):
    from repro.rt import SimConfig
    from repro.schedulers import make_scheduler
    from repro.rt.executor import RTExecutor

    rng = random.Random(len(profile) * 31 + len(activation))
    graph = typed_workload(rng, profile, activation)
    executor = RTExecutor(
        graph,
        make_scheduler(scheduler),
        SimConfig(processor_profile=profile, horizon=1.5,
                  coordination_period=0.25, seed=11),
    )
    rec = Recorder()
    executor.recorder = rec
    executor.run()
    assert rec.events, "instrumented run produced no events"
    violations = check_recording(rec)
    assert violations == [], "\n".join(str(v) for v in violations)
    # typed platforms tag every span with its unit; identity ones never do
    units = {s.unit for s in rec.spans()}
    if profile == "2xCPU":
        assert units <= {None}
        assert "processor_profile" not in rec.meta
    else:
        assert None not in units and units
        assert rec.meta["processor_profile"] == profile
