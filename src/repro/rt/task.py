"""Task and job model for the real-time substrate.

The unit of specification is a :class:`TaskSpec` — a periodic (source) or
event-activated (non-source) node in the autonomous-driving task graph.  The
unit of execution is a :class:`Job` — one release of a task, carrying its
sampled execution time, absolute deadline and data provenance.

Terminology follows the paper (Table I):

* ``priority`` — the statically configured priority ``p_i`` (smaller value
  means higher priority),
* ``relative_deadline`` — ``D_i``, the time budget from release to completion,
* ``exec_time`` (on a job) — the sampled execution time ``c_i`` for that
  release.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Tuple, Union

__all__ = [
    "ACTIVATION_MODES",
    "Criticality",
    "TaskKind",
    "TaskSpec",
    "Job",
    "JobState",
]

#: Activation semantics of a non-source task (how fresh predecessor outputs
#: trigger a release):
#:
#: * ``all-inputs`` — the original AND-join: release once *every* immediate
#:   predecessor has delivered since the last release, then clear the
#:   pending set (each input token is consumed by exactly one firing).
#: * ``newest-only`` — fusion-pattern activation: release on *any* fresh
#:   input, merging the triggering token with the latest retained value per
#:   other edge (retained values are snapshots, not consumed tokens).
ACTIVATION_MODES = ("all-inputs", "newest-only")


class Criticality(enum.Enum):
    """Criticality level of a task (used by mixed-criticality schedulers).

    The paper's EDF-VD baseline shortens the deadlines of high-criticality
    tasks with a scaling factor; everything else treats the two levels the
    same.
    """

    LOW = "low"
    HIGH = "high"


class TaskKind(enum.Enum):
    """Structural role of a task in the DAG.

    Source tasks (no incoming edges) are sensing tasks released periodically
    at a configurable rate.  Sink tasks (no outgoing edges) are control tasks
    whose completion produces a control command.  Everything else is
    intermediate.
    """

    SOURCE = "source"
    INTERMEDIATE = "intermediate"
    SINK = "sink"


@dataclass
class TaskSpec:
    """Static description of one autonomous-driving task.

    Parameters
    ----------
    name:
        Unique identifier, e.g. ``"sensor_fusion"``.
    priority:
        Configured priority ``p_i``; smaller means higher priority, matching
        Apollo Cyber RT's convention and the bracketed numbers in the paper's
        Fig. 2 / Fig. 11.
    relative_deadline:
        ``D_i`` in seconds.  A job released at ``t`` must complete by
        ``t + D_i`` or its output is discarded.
    exec_model:
        An execution-time model (see :mod:`repro.rt.exectime`).  Sampled once
        per job at release time.
    rate:
        Release rate in Hz.  Only meaningful for source tasks; ``None`` for
        tasks activated by their predecessors.
    rate_range:
        Allowable ``[r_min, r_max]`` range (Hz) within which the external
        coordinator may tune the rate.  ``None`` means the rate is fixed.
    criticality:
        Mixed-criticality level, consumed by EDF-VD.
    affinity:
        Unit types the task may execute on (e.g. ``{"GPU"}``), for typed
        :class:`~repro.rt.resources.ProcessorProfile` platforms.  ``None``
        means any unit — the homogeneous default.
    speedup:
        Per-unit-type execution-rate overrides, e.g. ``{"GPU": 3.0}`` —
        this task runs 3x faster on a GPU.  Types absent from the mapping
        fall back to the unit's own default speedup.
    activation:
        One of :data:`ACTIVATION_MODES` (non-source tasks only; sources
        are clock-activated).  Default ``all-inputs`` is the paper's
        AND-join.
    """

    name: str
    priority: int
    relative_deadline: float
    exec_model: "object" = None  # repro.rt.exectime.ExecutionTimeModel
    rate: Optional[float] = None
    rate_range: Optional[Tuple[float, float]] = None
    criticality: Criticality = Criticality.LOW
    affinity: Optional[Union[FrozenSet[str], Iterable[str]]] = None
    speedup: Optional[Mapping[str, float]] = None
    activation: str = "all-inputs"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("task name must be non-empty")
        if self.affinity is not None:
            self.affinity = frozenset(str(t) for t in self.affinity)
            if not self.affinity:
                raise ValueError(
                    f"task {self.name!r}: affinity must be a non-empty set of "
                    "unit types (or None for any unit)"
                )
        if self.speedup is not None:
            self.speedup = {str(t): float(v) for t, v in dict(self.speedup).items()}
            for t, v in self.speedup.items():
                if not v > 0:  # NaN fails it too
                    raise ValueError(
                        f"task {self.name!r}: speedup for unit type {t!r} "
                        f"must be positive, got {v}"
                    )
        if self.activation not in ACTIVATION_MODES:
            raise ValueError(
                f"task {self.name!r}: unknown activation {self.activation!r} "
                f"(supported: {ACTIVATION_MODES})"
            )
        if not self.relative_deadline > 0:  # NaN fails it too
            raise ValueError(
                f"task {self.name!r}: relative_deadline must be positive, "
                f"got {self.relative_deadline}"
            )
        # NaN fails it too; an infinite rate would release forever at one instant.
        if self.rate is not None and not 0 < self.rate < math.inf:
            raise ValueError(
                f"task {self.name!r}: rate must be positive and finite, got {self.rate}"
            )
        if self.rate_range is not None:
            lo, hi = self.rate_range
            if not (lo > 0 and hi >= lo):
                raise ValueError(
                    f"task {self.name!r}: invalid rate_range {self.rate_range}"
                )
            if self.rate is not None and not (lo <= self.rate <= hi):
                raise ValueError(
                    f"task {self.name!r}: rate {self.rate} outside range {self.rate_range}"
                )

    @property
    def period(self) -> Optional[float]:
        """Release period in seconds, or ``None`` for non-source tasks."""
        if self.rate is None:
            return None
        return 1.0 / self.rate

    def speedup_on(self, unit_type: str, default: float = 1.0) -> float:
        """Effective execution-rate multiplier on a unit of ``unit_type``.

        The task's per-type override wins; otherwise the unit's own
        ``default`` applies.
        """
        if self.speedup is not None and unit_type in self.speedup:
            return self.speedup[unit_type]
        return default

    def __hash__(self) -> int:
        return hash(self.name)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TaskSpec):
            return NotImplemented
        return self.name == other.name


class JobState(enum.Enum):
    """Lifecycle of a job inside the executor."""

    READY = "ready"  # in the ready queue, waiting for a processor
    RUNNING = "running"  # dispatched, occupying a processor
    COMPLETED = "completed"  # finished before its absolute deadline
    MISSED = "missed"  # finished late, or dropped while queued past deadline


_job_counter = itertools.count()


@dataclass(eq=False, slots=True)
class Job:
    """One release of a task.

    ``provenance`` maps source-task names to the timestamps of the sensor
    samples that flowed into this job.  ``sense_time`` (the oldest of those
    timestamps) is the moment the data this job operates on was captured —
    control commands computed from it act on a vehicle-state snapshot of that
    age, which is how scheduling latency degrades driving performance.  It is
    never mutated after release, so successors may share it.

    Every job has a unique ``job_id``, so jobs compare by identity and hash
    by ``job_id`` (deterministic set and dict order across processes).
    """

    task: TaskSpec
    release_time: float
    exec_time: float
    provenance: Dict[str, float] = field(default_factory=dict)
    cycle: int = 0
    state: JobState = JobState.READY
    start_time: Optional[float] = None
    finish_time: Optional[float] = None
    processor: Optional[int] = None
    #: Unit type the job was dispatched to (set at dispatch; ``None`` before).
    unit: Optional[str] = None
    #: Wall-clock duration on the dispatched unit: ``exec_time`` divided by
    #: the unit's effective speedup.  Equals ``exec_time`` exactly on
    #: speedup-1.0 units (``x / 1.0`` is float-exact).
    unit_exec_time: Optional[float] = None
    job_id: int = field(default_factory=_job_counter.__next__)
    #: ``release_time + D_i``, set once at construction.
    absolute_deadline: float = field(init=False)

    def __post_init__(self) -> None:
        if not self.exec_time >= 0:  # NaN fails it too
            raise ValueError(f"job of {self.task.name!r}: negative or NaN exec_time")
        if not self.provenance:
            # A source job senses the world at its own release instant.
            self.provenance = {self.task.name: self.release_time}
        self.absolute_deadline = self.release_time + self.task.relative_deadline

    @property
    def sense_time(self) -> float:
        """Timestamp of the oldest sensor sample feeding this job."""
        return min(self.provenance.values())

    @property
    def response_time(self) -> Optional[float]:
        """Completion latency (finish − release), or ``None`` if unfinished."""
        if self.finish_time is None:
            return None
        return self.finish_time - self.release_time

    def latest_start(self, exec_estimate: Optional[float] = None) -> float:
        """Latest dispatch instant that still permits an on-time finish.

        This is the absolute counterpart of the paper's scheduling deadline
        ``d_i = D_i − c_i`` (Eq. 9).  ``exec_estimate`` defaults to the job's
        own sampled execution time; schedulers that only know the observed
        EWMA pass that instead.
        """
        c = self.exec_time if exec_estimate is None else exec_estimate
        return self.absolute_deadline - c

    def is_expired(self, now: float) -> bool:
        """Whether the absolute deadline has already passed at ``now``."""
        return now >= self.absolute_deadline

    def __hash__(self) -> int:
        return self.job_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Job({self.task.name}#{self.cycle} rel={self.release_time:.3f} "
            f"c={self.exec_time:.4f} dl={self.absolute_deadline:.3f} {self.state.value})"
        )
