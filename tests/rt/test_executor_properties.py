"""Property-based tests of executor invariants.

Hypothesis drives random small workloads through the engine; the invariants
must hold for every one of them:

* accounting closes: released = completed + missed + still-in-flight;
* the platform never executes two jobs concurrently on one processor;
* every job reported completed finished by its absolute deadline;
* every late-finishing job is reported missed;
* the miss ratio is in [0, 1] and utilization in [0, 1].

The typed-platform section pins the new dispatch semantics: jobs never run
outside their task's affinity, a speedup-1.0 typed profile reproduces the
scalar platform exactly, and the two activation modes obey their token
contracts (all-inputs conserves tokens; newest-only fires once per fresh
input and never reads a stale edge twice as a trigger).
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.invariants import check_recording
from repro.obs.recorder import Recorder
from repro.rt import (
    ConstantExecTime,
    ProcessorProfile,
    RTExecutor,
    SimConfig,
    TaskGraph,
    TaskSpec,
)
from repro.schedulers import EDFScheduler, HCPerfScheduler, HPFScheduler
from tests.conftest import build_chain_or_diamond


@st.composite
def workloads(draw):
    """A random small chain/diamond workload plus platform parameters."""
    rate = draw(st.sampled_from([10.0, 20.0, 40.0]))
    exec_scale = draw(st.floats(min_value=0.2, max_value=3.0))
    n_proc = draw(st.integers(min_value=1, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=999))
    fan_out = draw(st.booleans())
    scheduler = draw(st.sampled_from(["EDF", "HPF", "HCPerf"]))
    return rate, exec_scale, n_proc, seed, fan_out, scheduler


SCHEDULERS = {"EDF": EDFScheduler, "HPF": HPFScheduler, "HCPerf": HCPerfScheduler}


@given(params=workloads())
@settings(max_examples=30, deadline=None)
def test_engine_invariants(params):
    rate, exec_scale, n_proc, seed, fan_out, scheduler = params
    graph = build_chain_or_diamond(rate, exec_scale, fan_out)
    executor = RTExecutor(
        graph,
        SCHEDULERS[scheduler](),
        SimConfig(n_processors=n_proc, horizon=1.5, coordination_period=0.25,
                  seed=seed),
    )
    rec = Recorder()
    executor.recorder = rec
    metrics = executor.run()

    # --- accounting closes ------------------------------------------------
    for name, stats in metrics.per_task.items():
        in_queue = sum(1 for j in executor.ready if j.task.name == name)
        running = sum(
            1 for p in executor.processors
            if p.job is not None and p.job.task.name == name
        )
        assert stats.released == stats.completed + stats.missed + in_queue + running, name
        assert stats.dropped <= stats.missed

    # --- non-preemptive, no overlap (plus the rest of OBS001-OBS009) -------
    assert check_recording(rec) == []

    # --- deadline bookkeeping ----------------------------------------------
    for span in rec.spans():
        if span.outcome == "complete":
            assert span.finish <= span.deadline + 1e-12
        else:
            assert span.finish > span.deadline - 1e-12
        assert span.start >= span.release - 1e-12
        assert span.finish >= span.start

    # --- bounded ratios ----------------------------------------------------
    assert 0.0 <= metrics.overall_miss_ratio <= 1.0
    assert 0.0 <= executor.utilization() <= 1.0 + 1e-9
    for w in metrics.windows:
        assert 0.0 <= w.miss_ratio <= 1.0


@given(
    seed=st.integers(min_value=0, max_value=500),
    n_proc=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=15, deadline=None)
def test_rate_bounds_always_respected(seed, n_proc):
    """Whatever HCPerf's adapter does, rates stay inside the allowable range."""
    graph = build_chain_or_diamond(rate=20.0, exec_scale=2.0, fan_out=True)
    executor = RTExecutor(
        graph,
        HCPerfScheduler(),
        SimConfig(n_processors=n_proc, horizon=3.0, coordination_period=0.25,
                  seed=seed),
    )
    observed = []
    executor.add_periodic("probe", 0.25, lambda t: observed.append(executor.rates()["src"]))
    executor.run()
    lo, hi = graph.task("src").rate_range
    assert all(lo <= r <= hi for r in observed)


# ---------------------------------------------------------------------------
# Typed platforms and activation modes
# ---------------------------------------------------------------------------

def build_typed(rate, exec_scale, accel_affine, activation):
    """Diamond graph for a 2xCPU+1xGPU platform.

    ``accel_affine`` pins the two middle stages to the GPU (where they run
    2x faster); the sink's activation mode is selectable.
    """
    g = build_chain_or_diamond(rate, exec_scale, fan_out=True)
    if accel_affine:
        for name in ("left", "right"):
            g.task(name).affinity = frozenset({"GPU"})
            g.task(name).speedup = {"GPU": 2.0}
    g.task("sink").activation = activation
    return g


@st.composite
def typed_workloads(draw):
    rate = draw(st.sampled_from([10.0, 20.0, 40.0]))
    exec_scale = draw(st.floats(min_value=0.2, max_value=3.0))
    seed = draw(st.integers(min_value=0, max_value=999))
    accel_affine = draw(st.booleans())
    activation = draw(st.sampled_from(["all-inputs", "newest-only"]))
    scheduler = draw(st.sampled_from(["EDF", "HPF", "HCPerf"]))
    return rate, exec_scale, seed, accel_affine, activation, scheduler


def run_typed(params, profile="2xCPU+1xGPU@2"):
    rate, exec_scale, seed, accel_affine, activation, scheduler = params
    graph = build_typed(rate, exec_scale, accel_affine, activation)
    executor = RTExecutor(
        graph,
        SCHEDULERS[scheduler](),
        SimConfig(processor_profile=profile, horizon=1.5,
                  coordination_period=0.25, seed=seed),
    )
    executor.recorder = Recorder()
    metrics = executor.run()
    return graph, executor, metrics


@given(params=typed_workloads())
@settings(max_examples=25, deadline=None)
def test_jobs_never_run_outside_affinity(params):
    graph, executor, _ = run_typed(params)
    unit_of = {i: u.type for i, u in enumerate(executor.profile.units)}
    for span in executor.recorder.spans():
        affinity = graph.task(span.task).affinity
        assert span.unit == unit_of[span.processor]
        if affinity is not None:
            assert span.unit in affinity, (
                f"{span.task} ran on {span.unit}, affinity {sorted(affinity)}"
            )


@given(params=typed_workloads())
@settings(max_examples=25, deadline=None)
def test_activation_token_contracts(params):
    """all-inputs: one firing consumes one token per edge, so the sink can
    never fire more often than its slowest input delivers.  newest-only:
    every fresh input fires the sink exactly once."""
    _, executor, metrics = run_typed(params)
    activation = params[4]
    sink = metrics.per_task["sink"]
    deliveries = metrics.per_task["left"].completed + metrics.per_task["right"].completed
    if activation == "newest-only":
        assert sink.released == deliveries
    else:
        assert sink.released <= min(
            metrics.per_task["left"].completed, metrics.per_task["right"].completed
        )


@given(params=typed_workloads())
@settings(max_examples=15, deadline=None)
def test_typed_engine_invariants_still_hold(params):
    """The core accounting/overlap/deadline invariants survive typed
    dispatch and both activation modes."""
    graph, executor, metrics = run_typed(params)
    for name, stats in metrics.per_task.items():
        in_queue = sum(1 for j in executor.ready if j.task.name == name)
        running = sum(
            1 for p in executor.processors
            if p.job is not None and p.job.task.name == name
        )
        assert stats.released == stats.completed + stats.missed + in_queue + running, name
    assert 0.0 <= metrics.overall_miss_ratio <= 1.0


@given(
    seed=st.integers(min_value=0, max_value=500),
    n_proc=st.integers(min_value=1, max_value=3),
    scheduler=st.sampled_from(["EDF", "HPF", "HCPerf"]),
)
@settings(max_examples=20, deadline=None)
def test_speedup_one_profile_reproduces_scalar_platform(seed, n_proc, scheduler):
    """A typed profile whose units all have speedup 1.0 and whose tasks have
    no affinity restrictions is observationally identical to the plain
    ``n_processors`` platform — even when the unit *types* differ."""
    def run(config):
        graph = build_chain_or_diamond(rate=20.0, exec_scale=1.5, fan_out=True)
        ex = RTExecutor(graph, SCHEDULERS[scheduler](), config)
        rec = Recorder()
        ex.recorder = rec
        metrics = ex.run()
        # Typed platforms tag spans with their unit; compare the rest.
        spans = [dataclasses.replace(s, unit=None) for s in rec.spans()]
        return spans, metrics.overall_miss_ratio

    scalar = run(SimConfig(n_processors=n_proc, horizon=1.5,
                           coordination_period=0.25, seed=seed))
    # exotic type names, but speedup 1.0 everywhere and no affinities
    units = tuple(
        ProcessorProfile.parse("NPU").units[0] if i % 2 else
        ProcessorProfile.parse("CPU").units[0]
        for i in range(n_proc)
    )
    typed = run(SimConfig(processor_profile=ProcessorProfile(units=units),
                          horizon=1.5, coordination_period=0.25, seed=seed))
    assert typed == scalar


def test_newest_only_never_reuses_a_trigger_and_retains_snapshots():
    """Deterministic two-source fusion: the fast source fires the sink on
    every completion, each firing consumes exactly the one fresh token, and
    the slow source's last output is retained (not cleared) between its
    deliveries."""
    g = TaskGraph()
    g.add_task(TaskSpec("fast", priority=2, relative_deadline=0.1,
                        exec_model=ConstantExecTime(0.001),
                        rate=40.0, rate_range=(10.0, 50.0)))
    g.add_task(TaskSpec("slow", priority=2, relative_deadline=0.2,
                        exec_model=ConstantExecTime(0.001),
                        rate=10.0, rate_range=(5.0, 20.0)))
    g.add_task(TaskSpec("fuse", priority=1, relative_deadline=0.2,
                        exec_model=ConstantExecTime(0.001),
                        activation="newest-only"))
    g.add_edge("fast", "fuse")
    g.add_edge("slow", "fuse")
    g.validate()

    executor = RTExecutor(
        g, EDFScheduler(),
        SimConfig(n_processors=2, horizon=1.0, coordination_period=0.5, seed=0),
    )
    provenances = []
    original_release = executor._release_job

    def spy(spec, provenance):
        if spec.name == "fuse":
            provenances.append(dict(provenance or {}))
        return original_release(spec, provenance)

    executor._release_job = spy
    metrics = executor.run()

    deliveries = metrics.per_task["fast"].completed + metrics.per_task["slow"].completed
    assert metrics.per_task["fuse"].released == deliveries
    assert len(provenances) == deliveries

    # Until the slow source first delivers, firings carry only the fast
    # token; afterwards every firing retains the slow snapshot.
    seen_slow = False
    last_slow = None
    for prov in provenances:
        assert prov, "newest-only firing with no input token"
        if "slow" in prov:
            seen_slow = True
            if last_slow is not None:
                assert prov["slow"] >= last_slow  # snapshots only move forward
            last_slow = prov["slow"]
        else:
            assert not seen_slow, "slow snapshot vanished between firings"
    assert seen_slow, "slow source never contributed a retained token"


#: Each platform with its unit types, for typed addressing.
_PLATFORMS = {"4xCPU": {"CPU": 4}, "2xCPU+1xGPU@3": {"CPU": 2, "GPU": 1}}


@st.composite
def availability_flips(draw):
    """A platform and a timed sequence of ``set_processor_available`` calls.

    Each call addresses a unit absolutely or as ``(type, ordinal)``, and
    the drawn flag often equals the unit's current one (a no-op flip).
    """
    profile = draw(st.sampled_from(sorted(_PLATFORMS)))
    types = _PLATFORMS[profile]
    n_units = sum(types.values())
    target = st.one_of(
        st.tuples(st.none(), st.integers(0, n_units - 1)),
        st.sampled_from(sorted(types)).flatmap(
            lambda t: st.tuples(st.just(t), st.integers(0, types[t] - 1))
        ),
    )
    times = st.integers(0, 299).map(lambda k: k * 0.005)
    flips = draw(st.lists(st.tuples(times, target, st.booleans()), max_size=12))
    return profile, sorted(flips, key=lambda f: f[0])


@given(case=availability_flips(), seed=st.integers(min_value=0, max_value=99))
@settings(max_examples=40, deadline=None)
def test_live_unit_count_tracks_every_flip(case, seed):
    """``view.n_processors`` is the live count after every call, busy or idle."""
    profile, flips = case
    executor = RTExecutor(
        build_chain_or_diamond(rate=40.0, exec_scale=3.0, fan_out=True),
        HCPerfScheduler(),
        SimConfig(processor_profile=profile, horizon=1.5, coordination_period=0.25,
                  seed=seed),
    )
    procs = executor.processors
    view = executor.view
    assert view.n_processors == len(procs)

    def flip(unit_type, index, available):
        def call(now):
            absolute = index if unit_type is None else executor.typed_processor_index(
                unit_type, index
            )
            before = procs[absolute].available
            victim = executor.set_processor_available(index, available, unit_type=unit_type)
            assert view.n_processors == sum(p.available for p in procs)
            if before == available:
                assert victim is None  # a no-op flip changes nothing
        return call

    for time, (unit_type, index), available in flips:
        executor.at(time, "flip", flip(unit_type, index, available))
    executor.run()
    assert view.n_processors == sum(p.available for p in procs)


class _IdleCheckingExecutor(RTExecutor):
    """Checks the idle-unit count against a recount around every dispatch."""

    dispatches = 0

    def _dispatch(self):
        job_free = sum(p.job is None for p in self.processors)
        assert self._idle == job_free
        super()._dispatch()
        assert self._idle == sum(p.job is None for p in self.processors)
        self.dispatches += 1


@given(
    case=availability_flips(),
    seed=st.integers(min_value=0, max_value=99),
    scheduler=st.sampled_from([HCPerfScheduler, EDFScheduler]),
)
@settings(max_examples=40, deadline=None)
def test_idle_count_is_the_job_free_units_at_every_dispatch(case, seed, scheduler):
    """The count that lets a dispatch skip its free-unit scan stays exact
    through dispatches, finishes, kills of busy units and no-op flips."""
    profile, flips = case
    executor = _IdleCheckingExecutor(
        build_chain_or_diamond(rate=40.0, exec_scale=3.0, fan_out=True),
        scheduler(),
        SimConfig(processor_profile=profile, horizon=1.5, coordination_period=0.25,
                  seed=seed),
    )
    for time, (unit_type, index), available in flips:
        executor.at(
            time,
            "flip",
            lambda now, i=index, t=unit_type, a=available: executor.set_processor_available(
                i, a, unit_type=t
            ),
        )
    executor.run()
    assert executor.dispatches > 0
    assert executor._idle == sum(p.job is None for p in executor.processors)
