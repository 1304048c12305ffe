"""The span/event recorder attached to an executor run.

A :class:`Recorder` is passed to the run seams (``executor.recorder``,
``run_scenario(recorder=...)``); the instrumented components emit typed
events through the one-line helpers below.  Disabled means *absent*: every
instrumentation site guards on ``recorder is not None``, so a run without
a recorder executes exactly the pre-instrumentation code path.

The recorder itself is passive — it never reads clocks, never draws
randomness and never feeds anything back into the run, so attaching one
cannot change simulation output (pinned by test).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Mapping, Optional

from .events import (
    ControlEvent,
    ControllerEvent,
    DropEvent,
    FaultMarkEvent,
    GammaEvent,
    RateAdapterEvent,
    RateEvent,
    ReleaseEvent,
    SpanEvent,
    TraceEvent,
    UnresolvedEvent,
    WindowEvent,
    event_from_dict,
)

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids import cycles)
    from ..rt.executor import RTExecutor
    from ..rt.metrics import WindowSample
    from ..rt.task import Job

__all__ = ["SCHEMA", "Recorder"]

#: Recording schema identifier (bump on incompatible event-model changes).
SCHEMA = "hcperf-trace/1"


class Recorder:
    """Accumulates typed trace events plus run metadata.

    Parameters
    ----------
    capacity:
        Maximum number of retained events (``None`` = unbounded).  Once
        full, further events are counted in :attr:`dropped` instead of
        stored; count-sensitive invariants are skipped for truncated
        recordings.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 (or None for unbounded)")
        self.capacity = capacity
        self.events: List[TraceEvent] = []
        self.dropped = 0
        self.meta: Dict[str, Any] = {"schema": SCHEMA}

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def emit(self, event: TraceEvent) -> None:
        if self.capacity is not None and len(self.events) >= self.capacity:
            self.dropped += 1
            return
        self.events.append(event)

    def release(self, job: "Job") -> None:
        self.emit(
            ReleaseEvent(
                t=job.release_time,
                task=job.task.name,
                cycle=job.cycle,
                deadline=job.absolute_deadline,
            )
        )

    def span(
        self,
        job: "Job",
        processor: int,
        outcome: str,
        finish: float,
        unit: Optional[str] = None,
    ) -> None:
        start = job.start_time if job.start_time is not None else finish
        self.emit(
            SpanEvent(
                t=finish,
                task=job.task.name,
                cycle=job.cycle,
                processor=processor,
                start=start,
                finish=finish,
                release=job.release_time,
                deadline=job.absolute_deadline,
                outcome=outcome,
                unit=unit,
            )
        )

    def drop(self, job: "Job", now: float, reason: str) -> None:
        self.emit(
            DropEvent(
                t=now,
                task=job.task.name,
                cycle=job.cycle,
                release=job.release_time,
                deadline=job.absolute_deadline,
                reason=reason,
            )
        )

    def unresolved(self, job: "Job", now: float, state: str) -> None:
        self.emit(UnresolvedEvent(t=now, task=job.task.name, cycle=job.cycle, state=state))

    def gamma(
        self, now: float, gamma: float, gamma_max: Optional[float], overloaded: bool
    ) -> None:
        self.emit(GammaEvent(t=now, gamma=gamma, gamma_max=gamma_max, overloaded=overloaded))

    def controller(self, now: float, u: float, f_hat: float) -> None:
        self.emit(ControllerEvent(t=now, u=u, f_hat=f_hat))

    def rate_adapter(self, now: float, miss_ratio: float, kp: float, reset: bool) -> None:
        self.emit(RateAdapterEvent(t=now, miss_ratio=miss_ratio, kp=kp, reset=reset))

    def rate(self, now: float, task: str, rate: float) -> None:
        self.emit(RateEvent(t=now, task=task, rate=rate))

    def window(self, sample: "WindowSample") -> None:
        self.emit(
            WindowEvent(
                t=sample.t_end,
                t_start=sample.t_start,
                completed=sample.completed,
                missed=sample.missed,
                control_commands=sample.control_commands,
                utilization=sample.utilization,
            )
        )

    def control(self, now: float, response: float) -> None:
        self.emit(ControlEvent(t=now, response=response))

    def fault(self, now: float, fault: str, detail: str) -> None:
        self.emit(FaultMarkEvent(t=now, fault=fault, detail=detail))

    # ------------------------------------------------------------------
    # Run binding
    # ------------------------------------------------------------------
    def annotate(self, **fields: Any) -> None:
        """Merge free-form metadata (scenario/scheduler/seed labels)."""
        self.meta.update(fields)

    def bind_run(self, executor: "RTExecutor") -> None:
        """Capture platform metadata from the executor at run start.

        Typed-platform fields (``processor_profile`` in the run meta,
        ``affinity``/``speedup``/``activation`` per task) appear only when
        they deviate from the homogeneous defaults: an identity-profile
        run's metadata is byte-identical to a pre-typed-model recording.
        """
        cfg = executor.config
        tasks: List[Dict[str, Any]] = []
        for spec in executor.graph:
            entry: Dict[str, Any] = {
                "name": spec.name,
                "priority": spec.priority,
                "relative_deadline": spec.relative_deadline,
                "rate": spec.rate,
                "rate_range": (
                    list(spec.rate_range) if spec.rate_range is not None else None
                ),
            }
            if spec.affinity is not None:
                entry["affinity"] = sorted(spec.affinity)
            if spec.speedup:
                entry["speedup"] = dict(spec.speedup)
            if spec.activation != "all-inputs":
                entry["activation"] = spec.activation
            tasks.append(entry)
        self.meta.update(
            {
                "n_processors": cfg.n_processors,
                "horizon": cfg.horizon,
                "coordination_period": cfg.coordination_period,
                "seed": cfg.seed,
                "tasks": tasks,
            }
        )
        if not executor.profile.is_identity:
            self.meta["processor_profile"] = executor.profile.describe()

    def finalize_run(self, executor: "RTExecutor") -> None:
        """Mark leftover jobs unresolved and stamp the recording end time."""
        now = executor.now
        for job in executor.ready:
            self.unresolved(job, now, "ready")
        for proc in executor.processors:
            if proc.job is not None:
                self.unresolved(proc.job, now, "running")
        self.meta["t_end"] = now

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def by_kind(self, kind: str) -> List[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def spans(self) -> Iterator[SpanEvent]:
        for e in self.events:
            if isinstance(e, SpanEvent):
                yield e

    @property
    def t_end(self) -> float:
        """Recording end time (falls back to the last event's timestamp)."""
        t_end = self.meta.get("t_end")
        if t_end is not None:
            return float(t_end)
        return max((e.t for e in self.events), default=0.0)

    @property
    def truncated(self) -> bool:
        return self.dropped > 0

    def task_meta(self) -> Dict[str, Dict[str, Any]]:
        """Per-task static metadata keyed by task name (empty if unbound)."""
        tasks = self.meta.get("tasks") or []
        return {str(entry["name"]): dict(entry) for entry in tasks}

    def stats(self) -> Dict[str, int]:
        """Event counts by kind (plus drop bookkeeping), for quick summaries."""
        counts: Dict[str, int] = {}
        for e in self.events:
            counts[e.kind] = counts.get(e.kind, 0) + 1
        counts["_total"] = len(self.events)
        counts["_dropped"] = self.dropped
        return counts

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON form: ``{"schema", "meta", "events"}``."""
        meta = {k: v for k, v in self.meta.items() if k != "schema"}
        return {
            "schema": SCHEMA,
            "meta": meta,
            "events": [e.to_dict() for e in self.events],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Recorder":
        schema = data.get("schema")
        if schema != SCHEMA:
            raise ValueError(f"unsupported recording schema {schema!r} (want {SCHEMA})")
        rec = cls()
        meta = data.get("meta") or {}
        if not isinstance(meta, Mapping):
            raise ValueError("recording meta must be an object")
        rec.meta.update(meta)
        events = data.get("events")
        if not isinstance(events, list):
            raise ValueError("recording events must be a list")
        for entry in events:
            rec.emit(event_from_dict(entry))
        return rec
