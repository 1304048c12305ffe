"""Discrete-event multiprocessor executor.

This is the reproduction's substitute for the paper's Apollo-based
"Auto-Driving Simulator" (Fig. 9): a distributed real-time system that
simulates the execution of DAG tasks with dependencies, communication and
resource allocation on a platform of processors — ``M`` identical ones by
default, or a typed :class:`~repro.rt.resources.ProcessorProfile`
(CPU/GPU/accelerator units with per-task affinities and speedups).

Semantics (paper §III-A, resolved per DESIGN.md §2):

* Source tasks release periodically at their current rate; rates can be
  retuned at runtime by the external coordinator via :meth:`RTExecutor.set_rate`.
* A non-source task on the default ``all-inputs`` activation releases a job
  once **every** immediate predecessor has delivered a fresh output since
  the task's last release (AND-activation); ``newest-only`` tasks release
  on *any* fresh input, merging the latest retained value per other edge
  (fusion-pattern activation; see docs/heterogeneous.md).
* Dispatch is non-preemptive; at every opportunity the active scheduler
  ranks the ready queue once (:meth:`Scheduler.order`) and each free
  processor runs the lowest-rank job it is eligible for.  On typed
  platforms a job is only eligible for units inside its task's affinity
  set, and its sampled execution time is divided by the unit's effective
  speedup.  The identity profile (all-CPU, speedup 1.0) reproduces the
  scalar model byte-for-byte (pinned by ``tests/differential``).
* A job finishing after ``release + D_i`` counts as a **miss** and delivers
  nothing downstream; queued jobs whose deadline passes are dropped (also
  misses) when the scheduler's ``drop_expired`` flag is set.
* Completion of a sink (control) task in time produces a control command,
  reported through the ``on_control`` hook to the vehicle plant.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from .events import EventHeap, EventKind
from .view import ProcessorState, SystemView

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from ..obs.recorder import Recorder
    from ..schedulers.base import Scheduler
from .exectime import ExecContext, ExecTimeObserver
from .metrics import MetricsRecorder
from .queue import ReadyQueue
from .resources import MAX_UNITS, ProcessorProfile, ProfileLike
from .task import Job, JobState, TaskKind, TaskSpec
from .taskgraph import TaskGraph

__all__ = ["ProcessorState", "SimConfig", "RTExecutor"]

#: Scene-complexity provider: simulated time → obstacle count (or scalar).
ComplexityFn = Callable[[float], float]

#: Control hook: called with the completing sink job and the current time.
ControlHook = Callable[[Job, float], None]


@dataclass
class SimConfig:
    """Platform and run configuration.

    Attributes
    ----------
    n_processors:
        Number of identical processors ``M``.  Ignored (and overwritten)
        when ``processor_profile`` is set.
    processor_profile:
        Typed platform description — a
        :class:`~repro.rt.resources.ProcessorProfile`, its compact string
        form (``"2xCPU+1xGPU@3"``), or ``None`` (the default) for
        ``n_processors`` identical CPUs.  When set, ``n_processors`` is
        derived from the profile's unit count.
    horizon:
        Simulated run length in seconds.
    coordination_period:
        Width of one coordination window (``T_s`` of the coordinators and the
        sampling period of the deadline-miss-ratio series).
    seed:
        Seed for the executor's private RNG (execution-time sampling).
    observer_alpha:
        EWMA weight of the execution-time observer (1.0 = last run).
    max_pending_per_task:
        Bounded channel depth: when a task already has this many jobs in the
        ready queue, a new release evicts the *oldest* queued job of that
        task (counted as a miss).  Models Cyber RT's bounded message
        channels — a stale sensor frame is superseded by a fresh one — and
        keeps the backlog finite when a baseline policy is overloaded.
    drift_alpha:
        EWMA weight of the observer's *drift* estimate — the slow series
        regime-change detection compares against its stable reference.  Much
        smaller than ``observer_alpha`` so that per-job sampling noise is
        averaged out and only genuine execution-time regime shifts (the §V
        "unusual change") cross the reset threshold.
    """

    n_processors: int = 4
    horizon: float = 60.0
    coordination_period: float = 0.5
    seed: int = 0
    observer_alpha: float = 0.5
    max_pending_per_task: int = 4
    drift_alpha: float = 0.1
    processor_profile: Optional[ProfileLike] = None

    def __post_init__(self) -> None:
        if self.processor_profile is not None:
            self.processor_profile = ProcessorProfile.coerce(self.processor_profile)
            self.n_processors = self.processor_profile.n_units
        if not (1 <= self.n_processors <= MAX_UNITS):
            raise ValueError(
                f"n_processors must be in [1, {MAX_UNITS}], got {self.n_processors!r}"
            )
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon!r}")
        if not (math.isfinite(self.coordination_period) and self.coordination_period > 0):
            raise ValueError(
                f"coordination_period must be positive and finite, got {self.coordination_period!r}"
            )
        if self.max_pending_per_task < 1:
            raise ValueError("max_pending_per_task must be >= 1")
        if not (0.0 < self.drift_alpha <= 1.0):
            raise ValueError("drift_alpha must be in (0, 1]")

    def resolved_profile(self) -> ProcessorProfile:
        """The platform profile, synthesized for scalar configurations.

        A scalar ``n_processors`` configuration resolves to the identity
        profile (``n`` CPUs at speedup 1.0), so the executor has exactly
        one processor-construction path.
        """
        if self.processor_profile is not None:
            return ProcessorProfile.coerce(self.processor_profile)
        return ProcessorProfile.homogeneous(self.n_processors)


@dataclass
class _PeriodicHook:
    name: str
    period: float
    fn: Callable[[float], None]


class RTExecutor:
    """Simulates the task graph under a scheduling policy.

    Parameters
    ----------
    graph:
        Validated task graph.
    scheduler:
        Scheduling policy (see :mod:`repro.schedulers`).
    config:
        Platform/run configuration.
    complexity:
        Scene-complexity timeline ``n(t)`` feeding scene-coupled execution
        time models; defaults to 0 everywhere.
    on_control:
        Called whenever a sink job completes within its deadline — the
        experiment applies the resulting control command to the vehicle
        plant here.
    """

    def __init__(
        self,
        graph: TaskGraph,
        scheduler: "Scheduler",
        config: Optional[SimConfig] = None,
        complexity: Optional[ComplexityFn] = None,
        on_control: Optional[ControlHook] = None,
    ) -> None:
        graph.validate()
        self.graph = graph
        self.scheduler = scheduler
        self.config = config or SimConfig()
        self.complexity = complexity or (lambda t: 0.0)
        self.on_control = on_control

        self.now = 0.0
        self.rng = random.Random(self.config.seed)
        self.ready = ReadyQueue()
        self.metrics = MetricsRecorder()
        self.observer = ExecTimeObserver(
            alpha=self.config.observer_alpha, drift_alpha=self.config.drift_alpha
        )
        #: The typed platform description (identity for scalar configs).
        self.profile = self.config.resolved_profile()
        self.processors = [
            ProcessorState(i, unit_type=u.type, speedup=u.speedup)
            for i, u in enumerate(self.profile.units)
        ]
        # Identity platforms must stay byte-identical to the pre-typed
        # model, so unit tags only enter recordings when the profile is
        # genuinely typed (gate on is_identity, not on profile presence).
        self._typed_platform = not self.profile.is_identity

        self._events = EventHeap()
        self._rates: Dict[str, float] = {}
        self._cycles: Dict[str, int] = {}
        # Fresh outputs awaiting AND-activation: task -> {pred_name: provenance}
        self._pending_inputs: Dict[str, Dict[str, Dict[str, float]]] = {
            t.name: {} for t in graph
        }
        # Static adjacency, built once for the completion path.
        self._successors = {t.name: graph.isucc(t.name) for t in graph}
        self._predecessors = {t.name: {p.name for p in graph.ipred(t.name)} for t in graph}
        self._sinks = {t.name for t in graph if graph.kind(t.name) is TaskKind.SINK}
        self._periodic: List[_PeriodicHook] = []
        self._oneshots: List[Tuple[float, _PeriodicHook]] = []
        self._started = False
        self._stopped = False
        self._stop_reason: Optional[str] = None
        self._last_busy_integral = 0.0
        self._last_window_time = 0.0
        #: Optional structured recorder (see :mod:`repro.obs`); assign a
        #: Recorder before run() to capture the full typed event stream.
        #: ``None`` (the default) keeps the pre-instrumentation code path —
        #: a recorder-free run is byte-identical to one before the
        #: observability layer existed.
        self.recorder: Optional["Recorder"] = None
        #: Optional release filter: ``gate(task_name, now) -> bool``.  A
        #: ``False`` verdict suppresses that source release (the sensor
        #: produced no frame) while the release clock keeps ticking — the
        #: seam fault injection uses for sensor dropouts.
        self.release_gate: Optional[Callable[[str, float], bool]] = None

        for src in graph.sources():
            assert src.rate is not None  # guaranteed by graph.validate()
            self._rates[src.name] = src.rate

        self.view = SystemView(
            graph=self.graph,
            ready=self.ready,
            processors=self.processors,
            observer=self.observer,
            rates=self._rates,
        )

    # ------------------------------------------------------------------
    # Public control surface
    # ------------------------------------------------------------------
    def set_rate(self, task_name: str, rate: float) -> float:
        """Retune a source task's rate, clamped to its allowable range.

        Returns the applied (clamped) rate.  Takes effect at the task's next
        release — in-flight inter-release gaps are not rescheduled, matching
        a rate change message that a running sensor driver picks up on its
        next cycle.
        """
        spec = self.graph.task(task_name)
        if spec.rate is None:
            raise ValueError(f"task {task_name!r} is not a source task")
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if spec.rate_range is not None:
            lo, hi = spec.rate_range
            rate = min(hi, max(lo, rate))
        self._rates[task_name] = rate
        return rate

    def get_rate(self, task_name: str) -> float:
        """Current rate of a source task."""
        return self._rates[task_name]

    def rates(self) -> Dict[str, float]:
        """Snapshot of all source rates."""
        return dict(self._rates)

    def add_periodic(self, name: str, period: float, fn: Callable[[float], None]) -> None:
        """Register a callback invoked every ``period`` seconds of sim time.

        Used by experiments for the vehicle-plant step and by tests for
        probes.  Must be called before :meth:`run`.
        """
        if period <= 0:
            raise ValueError("period must be positive")
        self._periodic.append(_PeriodicHook(name, period, fn))

    def at(self, time: float, name: str, fn: Callable[[float], None]) -> None:
        """Schedule a one-shot callback at an absolute simulated time.

        Callbacks registered before :meth:`run` are queued at start; during a
        run they enter the event heap directly (``time`` must not precede the
        current instant).  Fault injection drives processor failure/recovery
        and other point events through this seam.
        """
        if time < 0:
            raise ValueError("time must be >= 0")
        hook = _PeriodicHook(name, 0.0, fn)
        if self._started:
            if time < self.now:
                raise ValueError(f"one-shot {name!r} at {time} is in the past")
            self._events.push(time, EventKind.PERIODIC, (name, hook))
        else:
            self._oneshots.append((time, hook))

    def typed_processor_index(self, unit_type: str, ordinal: int) -> int:
        """Absolute index of the ``ordinal``-th unit of ``unit_type``.

        Typed addressing for fault injection and tests: ``("GPU", 0)`` is
        the first GPU wherever it sits in the profile's unit order.
        """
        return self.profile.typed_index(unit_type, ordinal)

    def set_processor_available(
        self, index: int, available: bool, unit_type: Optional[str] = None
    ) -> Optional[Job]:
        """Hot-unplug (or re-add) one processor.

        With ``unit_type`` given, ``index`` is the ordinal *within that
        type* (``("GPU", 0)`` addressing); otherwise it is the absolute
        processor index.  Failing a busy processor kills its in-flight job:
        the job counts as a dropped miss, delivers nothing downstream, and
        is returned so callers (the fault-injection harness) can log it.
        Re-adding flips the flag back; queued work reaches the processor at
        the next dispatch round.
        """
        if unit_type is not None:
            index = self.typed_processor_index(unit_type, index)
        proc = self.processors[index]
        if proc.available == available:
            return None
        proc.available = available
        if available or proc.job is None:
            return None
        victim = proc.job
        # The stale JOB_FINISH event in the heap is ignored by the
        # `proc.job is job` guard in _handle_finish.
        proc.job = None
        proc.busy_time_total += max(0.0, self.now - (victim.start_time or self.now))
        proc.busy_until = self.now
        victim.state = JobState.MISSED
        victim.finish_time = self.now
        self._record_interval(victim, index, outcome="kill")
        self.metrics.on_miss(victim, dropped=True)
        self.scheduler.on_job_miss(victim, self.now, self.view)
        return victim

    def stop(self, reason: str = "") -> None:
        """Abort the run at the current event (e.g. on a collision)."""
        self._stopped = True
        self._stop_reason = reason or None

    @property
    def stop_reason(self) -> Optional[str]:
        return self._stop_reason

    def _record_interval(self, job: Job, proc_index: int, outcome: str) -> None:
        """Report one executed interval to the attached recorder.

        The single emission point for execution spans: the Gantt view and
        the chain analysis read them back from the recording.
        """
        if self.recorder is not None:
            # Unit tags appear only on typed platforms so identity-profile
            # recordings stay byte-identical to the scalar model's.
            unit = self.processors[proc_index].unit_type if self._typed_platform else None
            self.recorder.span(job, proc_index, outcome, self.now, unit=unit)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> MetricsRecorder:
        """Execute the simulation until the horizon and return the metrics."""
        self.scheduler.prepare(self.graph, self.config.n_processors)
        if self.recorder is not None:
            self.recorder.bind_run(self)
            # Hand the recorder to the policy so HCPerf can report γ
            # resolutions and coordinator steps through the same stream.
            self.scheduler.recorder = self.recorder
        self._started = True
        for src in self.graph.sources():
            self._events.push(0.0, EventKind.SOURCE_RELEASE, src.name)
        self._events.push(
            self.config.coordination_period, EventKind.PERIODIC, ("__coordination__", None)
        )
        for hook in self._periodic:
            self._events.push(hook.period, EventKind.PERIODIC, (hook.name, hook))
        for time, hook in self._oneshots:
            self._events.push(time, EventKind.PERIODIC, (hook.name, hook))

        horizon = self.config.horizon
        # The finally pairs finalize_run with bind_run by construction: a
        # run that raises part-way still leaves a closed recording (t_end
        # plus an ``unresolved`` event per leftover job).
        try:
            while self._events and not self._stopped:
                time, kind, payload = self._events.pop()
                if time > horizon:
                    break
                self.now = time
                if kind is EventKind.SOURCE_RELEASE:
                    self._handle_source_release(payload)
                elif kind is EventKind.JOB_FINISH:
                    self._handle_finish(payload)
                else:
                    self._handle_periodic(payload)
                self._dispatch()
        finally:
            self.now = min(self.now, horizon)
            if self.recorder is not None:
                self.recorder.finalize_run(self)
        return self.metrics

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _handle_source_release(self, task_name: str) -> None:
        spec = self.graph.task(task_name)
        if self.release_gate is None or self.release_gate(task_name, self.now):
            self._release_job(spec, provenance=None)
        period = 1.0 / self._rates[task_name]
        next_time = self.now + period
        if next_time <= self.config.horizon:
            self._events.push(next_time, EventKind.SOURCE_RELEASE, task_name)

    def _release_job(
        self, spec: TaskSpec, provenance: Optional[Dict[str, float]]
    ) -> Job:
        ctx = ExecContext(now=self.now, scene_complexity=self.complexity(self.now))
        exec_time = spec.exec_model.sample(ctx, self.rng)
        cycle = self._cycles.get(spec.name, 0)
        self._cycles[spec.name] = cycle + 1
        job = Job(
            task=spec,
            release_time=self.now,
            exec_time=exec_time,
            provenance=provenance or {},
            cycle=cycle,
        )
        self.metrics.on_release(job)
        if self.recorder is not None:
            self.recorder.release(job)
        # Bounded channel: evict the oldest queued job of the same task.
        victim = self.ready.evict(spec.name, self.config.max_pending_per_task)
        if victim is not None:
            victim.state = JobState.MISSED
            victim.finish_time = self.now
            if self.recorder is not None:
                self.recorder.drop(victim, self.now, reason="evicted")
            self.metrics.on_miss(victim, dropped=True)
            self.scheduler.on_job_miss(victim, self.now, self.view)
        self.ready.push(job)
        return job

    def _handle_finish(self, payload: Tuple[int, Job]) -> None:
        proc_index, job = payload
        proc = self.processors[proc_index]
        if proc.job is not job:
            # Stale finish for a job killed by a processor failure: already
            # accounted as a dropped miss when the processor was unplugged.
            return
        proc.job = None
        # Busy time and the execution-time observer account the *wall*
        # duration on the dispatched unit (speedup-scaled); identical to
        # exec_time on the homogeneous platform.
        proc.busy_time_total += job.wall_exec_time
        job.finish_time = self.now
        self.observer.observe(job.task.name, job.wall_exec_time)
        on_time = self.now <= job.absolute_deadline
        self._record_interval(job, proc_index, outcome="complete" if on_time else "miss")

        if on_time:
            job.state = JobState.COMPLETED
            self.metrics.on_complete(job)
            self.scheduler.on_job_complete(job, self.now, self.view)
            self._deliver(job)
        else:
            job.state = JobState.MISSED
            self.metrics.on_miss(job, dropped=False)
            self.scheduler.on_job_miss(job, self.now, self.view)

    def _deliver(self, job: Job) -> None:
        """Propagate a completed job's output to its successors."""
        spec = job.task
        if spec.name in self._sinks:
            response = job.response_time or 0.0
            if self.recorder is not None:
                self.recorder.control(self.now, response)
            self.metrics.on_control_command(self.now, response)
            if self.on_control is not None:
                self.on_control(job, self.now)
            return
        for succ in self._successors[spec.name]:
            pending = self._pending_inputs[succ.name]
            pending[spec.name] = dict(job.provenance)
            if succ.activation == "newest-only":
                # Fusion-pattern activation: any fresh input fires the
                # successor immediately.  The triggering token is consumed;
                # the other edges contribute their latest *retained* value
                # (a snapshot, kept for the next firing), so each firing
                # consumes at most one token per edge and an edge that has
                # never delivered simply contributes nothing yet.
                self._release_job(succ, provenance=self._merge_pending(pending))
                continue
            if self._predecessors[succ.name].issubset(pending.keys()):
                merged = self._merge_pending(pending)
                pending.clear()
                self._release_job(succ, provenance=merged)

    @staticmethod
    def _merge_pending(pending: Dict[str, Dict[str, float]]) -> Dict[str, float]:
        """Merge per-edge provenance into one released job's provenance."""
        merged: Dict[str, float] = {}
        for prov in pending.values():
            for source, ts in prov.items():
                # Keep the *oldest* sample per source: a command is
                # only as fresh as the stalest data it consumed.
                if source not in merged or ts < merged[source]:
                    merged[source] = ts
        return merged

    def _handle_periodic(self, payload: Tuple[str, Optional[_PeriodicHook]]) -> None:
        name, hook = payload
        if name == "__coordination__":
            self._coordination_step()
            next_time = self.now + self.config.coordination_period
            if next_time <= self.config.horizon:
                self._events.push(next_time, EventKind.PERIODIC, ("__coordination__", None))
            return
        assert hook is not None
        hook.fn(self.now)
        if hook.period <= 0:
            return  # one-shot (see at())
        next_time = self.now + hook.period
        if next_time <= self.config.horizon:
            self._events.push(next_time, EventKind.PERIODIC, (name, hook))

    def _busy_integral(self) -> float:
        """Total processor-busy time so far, including in-flight jobs."""
        total = sum(p.busy_time_total for p in self.processors)
        for p in self.processors:
            if p.job is not None and p.job.start_time is not None:
                total += self.now - p.job.start_time
        return total

    def _coordination_step(self) -> None:
        busy = self._busy_integral()
        span = (self.now - self._last_window_time) * len(self.processors)
        util = (busy - self._last_busy_integral) / span if span > 0 else 0.0
        self._last_busy_integral = busy
        self._last_window_time = self.now
        window = self.metrics.close_window(self.now, utilization=util)
        if self.recorder is not None:
            self.recorder.window(window)
        self.scheduler.on_window(self.now, self.view, window)
        desired = self.scheduler.desired_rates()
        if desired:
            for name, rate in desired.items():
                applied = self.set_rate(name, rate)
                if self.recorder is not None:
                    self.recorder.rate(self.now, name, applied)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        now = self.now
        ready = self.ready
        scheduler = self.scheduler
        if scheduler.drop_expired:
            for job in ready.drop_expired(now):
                job.state = JobState.MISSED
                job.finish_time = now
                if self.recorder is not None:
                    self.recorder.drop(job, now, reason="expired")
                self.metrics.on_miss(job, dropped=True)
                scheduler.on_job_miss(job, now, self.view)
        if not ready:
            return
        free = [p for p in self.processors if p.job is None and p.available]
        if not free:
            return
        # γ, ``now`` and every estimate are fixed until the next event: one
        # ranking serves every free processor of the round.
        scheduler.on_dispatch_round(now, self.view)
        ranked = ready.ranked(scheduler.order(ready.jobs(), now, self.view))
        for proc in free:
            if not ready:
                break
            job = ready.pop_best(ranked, lambda j: scheduler.eligible(j, proc))
            if job is None:
                continue  # nothing eligible for this (bound/typed) processor
            job.state = JobState.RUNNING
            job.start_time = now
            job.processor = proc.index
            job.unit = proc.unit_type
            # Wall duration on this unit: the sampled execution time divided
            # by the unit's effective speedup (float-exact at speedup 1.0,
            # keeping identity platforms byte-identical to the scalar model).
            job.unit_exec_time = job.exec_time / proc.effective_speedup(job.task)
            proc.job = job
            proc.busy_until = now + job.unit_exec_time
            self._events.push(proc.busy_until, EventKind.JOB_FINISH, (proc.index, job))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def utilization(self) -> float:
        """Mean fraction of processor time spent busy so far."""
        if self.now <= 0:
            return 0.0
        total = sum(p.busy_time_total for p in self.processors)
        return total / (self.now * len(self.processors))
