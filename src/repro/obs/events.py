"""Typed trace events.

Each event is a slotted dataclass value object with a class-level ``kind``
tag and an explicit, ordered ``to_dict`` — the serialization the JSONL
exporter and the golden-trace regression test rely on being byte-stable.
Events are built once and never mutated or hashed; ``slots=True`` rather
than ``frozen=True`` keeps construction cheap on the recorder's hot path.
``t`` is always *simulated* time (seconds); no event ever carries
wall-clock data.

Job identity is the ``(task, cycle)`` pair: cycles are assigned per task in
release order by the executor, so the pair is unique within a run and the
invariant checker can match every release to its resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any, Callable, Dict, FrozenSet, Mapping, Optional, Tuple, Type

__all__ = [
    "TraceEvent",
    "ReleaseEvent",
    "SpanEvent",
    "DropEvent",
    "UnresolvedEvent",
    "GammaEvent",
    "ControllerEvent",
    "RateAdapterEvent",
    "RateEvent",
    "WindowEvent",
    "ControlEvent",
    "FaultMarkEvent",
    "EVENT_KINDS",
    "event_from_dict",
]

#: Span outcomes: how one executed interval resolved its job.
SPAN_OUTCOMES = ("complete", "miss", "kill")

#: Drop reasons: why a queued job was discarded without running.
DROP_REASONS = ("expired", "evicted")


@dataclass(slots=True)
class TraceEvent:
    """Base event: anything with a simulated timestamp."""

    t: float

    #: Serialization tag; subclasses override.
    kind = "event"

    def to_dict(self) -> Dict[str, Any]:
        raise NotImplementedError


@dataclass(slots=True)
class ReleaseEvent(TraceEvent):
    """A job entered the ready queue (``t`` is its release instant)."""

    task: str = ""
    cycle: int = 0
    deadline: float = 0.0  # absolute deadline (release + D_i)

    kind = "release"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ev": self.kind,
            "t": self.t,
            "task": self.task,
            "cycle": self.cycle,
            "deadline": self.deadline,
        }


@dataclass(slots=True)
class SpanEvent(TraceEvent):
    """One executed interval of a job on a processor (``t`` = finish).

    ``outcome`` is ``complete`` (finished within the deadline), ``miss``
    (finished late) or ``kill`` (cut short by a processor failure).
    ``unit`` is the processor's unit type on typed
    :class:`~repro.rt.resources.ProcessorProfile` platforms; ``None`` —
    and absent from the serialized form — on homogeneous platforms, so
    identity-profile recordings are byte-identical to pre-typed-model
    ones (the differential-suite contract).
    """

    task: str = ""
    cycle: int = 0
    processor: int = 0
    start: float = 0.0
    finish: float = 0.0
    release: float = 0.0
    deadline: float = 0.0
    outcome: str = "complete"
    unit: Optional[str] = None

    kind = "span"

    def __post_init__(self) -> None:
        if self.outcome not in SPAN_OUTCOMES:
            raise ValueError(f"unknown span outcome {self.outcome!r}")

    def to_dict(self) -> Dict[str, Any]:
        out = {
            "ev": self.kind,
            "t": self.t,
            "task": self.task,
            "cycle": self.cycle,
            "processor": self.processor,
            "start": self.start,
            "finish": self.finish,
            "release": self.release,
            "deadline": self.deadline,
            "outcome": self.outcome,
        }
        if self.unit is not None:
            out["unit"] = self.unit
        return out


@dataclass(slots=True)
class DropEvent(TraceEvent):
    """A queued job was discarded without running (counted as a miss)."""

    task: str = ""
    cycle: int = 0
    release: float = 0.0
    deadline: float = 0.0
    reason: str = "expired"

    kind = "drop"

    def __post_init__(self) -> None:
        if self.reason not in DROP_REASONS:
            raise ValueError(f"unknown drop reason {self.reason!r}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ev": self.kind,
            "t": self.t,
            "task": self.task,
            "cycle": self.cycle,
            "release": self.release,
            "deadline": self.deadline,
            "reason": self.reason,
        }


@dataclass(slots=True)
class UnresolvedEvent(TraceEvent):
    """A job still queued or running when the recording ended.

    Emitted once per leftover job at finalization so that *every* release
    resolves to exactly one of {complete, miss, kill, unresolved} — the
    release/resolution bijection the invariant checker enforces.
    """

    task: str = ""
    cycle: int = 0
    state: str = "ready"  # "ready" (queued) or "running" (on a processor)

    kind = "unresolved"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ev": self.kind,
            "t": self.t,
            "task": self.task,
            "cycle": self.cycle,
            "state": self.state,
        }


@dataclass(slots=True)
class GammaEvent(TraceEvent):
    """One γ resolution of HCPerf's Dynamic Priority Scheduler.

    ``gamma_max`` is ``None`` when even γ = 0 fails the Eq. (11)
    schedulability test — the overload condition, in which case Eq. (12)
    forces ``gamma`` to 0 (pure deadline-driven scheduling).
    """

    gamma: float = 0.0
    gamma_max: Optional[float] = None
    overloaded: bool = False

    kind = "gamma"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ev": self.kind,
            "t": self.t,
            "gamma": self.gamma,
            "gamma_max": self.gamma_max,
            "overloaded": self.overloaded,
        }


@dataclass(slots=True)
class ControllerEvent(TraceEvent):
    """One Performance Directed Controller sample (MFC step).

    ``u`` is the nominal priority-adjustment parameter before the Eq. (12)
    clamp; ``f_hat`` the model-free disturbance estimate fed by the ADE
    derivative of the tracking error.
    """

    u: float = 0.0
    f_hat: float = 0.0

    kind = "controller"

    def to_dict(self) -> Dict[str, Any]:
        return {"ev": self.kind, "t": self.t, "u": self.u, "f_hat": self.f_hat}


@dataclass(slots=True)
class RateAdapterEvent(TraceEvent):
    """One Task Rate Adapter step (Eq. 13) at a coordination window."""

    miss_ratio: float = 0.0
    kp: float = 0.0  # the gain after this step
    reset: bool = False  # a §V regime-change gain reset fired in this step

    kind = "rate_adapter"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ev": self.kind,
            "t": self.t,
            "miss_ratio": self.miss_ratio,
            "kp": self.kp,
            "reset": self.reset,
        }


@dataclass(slots=True)
class RateEvent(TraceEvent):
    """A source task's rate was retuned (``rate`` is the applied, clamped value)."""

    task: str = ""
    rate: float = 0.0

    kind = "rate"

    def to_dict(self) -> Dict[str, Any]:
        return {"ev": self.kind, "t": self.t, "task": self.task, "rate": self.rate}


@dataclass(slots=True)
class WindowEvent(TraceEvent):
    """One closed coordination window (``t`` = window end)."""

    t_start: float = 0.0
    completed: int = 0
    missed: int = 0
    control_commands: int = 0
    utilization: float = 0.0

    kind = "window"

    @property
    def miss_ratio(self) -> float:
        finished = self.completed + self.missed
        return self.missed / finished if finished else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ev": self.kind,
            "t": self.t,
            "t_start": self.t_start,
            "completed": self.completed,
            "missed": self.missed,
            "control_commands": self.control_commands,
            "utilization": self.utilization,
        }


@dataclass(slots=True)
class ControlEvent(TraceEvent):
    """A sink (control) job completed in time and produced a command."""

    response: float = 0.0  # release-to-finish latency of the control job

    kind = "control"

    def to_dict(self) -> Dict[str, Any]:
        return {"ev": self.kind, "t": self.t, "response": self.response}


@dataclass(slots=True)
class FaultMarkEvent(TraceEvent):
    """A fault-injection marker (mirrors the harness's event log)."""

    fault: str = ""  # fault model kind, e.g. "exec_spike"
    detail: str = ""

    kind = "fault"

    def to_dict(self) -> Dict[str, Any]:
        return {"ev": self.kind, "t": self.t, "fault": self.fault, "detail": self.detail}


#: Registry: serialization tag -> event class.
EVENT_KINDS: Dict[str, Type[TraceEvent]] = {
    cls.kind: cls
    for cls in (
        ReleaseEvent,
        SpanEvent,
        DropEvent,
        UnresolvedEvent,
        GammaEvent,
        ControllerEvent,
        RateAdapterEvent,
        RateEvent,
        WindowEvent,
        ControlEvent,
        FaultMarkEvent,
    )
}


def is_finite_number(value: object) -> bool:
    """Whether ``value`` is an int or float (not a bool) of finite float value."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond float range
        return False


#: Value check per field annotation (the annotations are strings here).
_FIELD_CHECKS: Dict[str, Callable[[Any], bool]] = {
    "float": is_finite_number,
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "bool": lambda v: isinstance(v, bool),
    "Optional[float]": lambda v: v is None or is_finite_number(v),
    "Optional[str]": lambda v: v is None or isinstance(v, str),
}


def _field_table(cls: Type[TraceEvent]) -> Tuple[Dict[str, str], FrozenSet[str]]:
    """(field -> annotation, keys every serialized event carries) of ``cls``."""
    types = {f.name: str(f.type) for f in fields(cls)}
    unchecked = set(types.values()) - _FIELD_CHECKS.keys()
    if unchecked:
        raise TypeError(f"{cls.__name__}: no value check for {sorted(unchecked)}")
    required = frozenset(cls(t=0.0).to_dict()) - {"ev"}
    return types, required


_FIELDS = {kind: _field_table(cls) for kind, cls in EVENT_KINDS.items()}


def event_from_dict(data: Any) -> TraceEvent:
    """Rebuild a typed event from its ``to_dict`` form (JSONL round-trip).

    Raises :class:`ValueError` for anything ``to_dict`` cannot have
    written: a non-object, an unknown kind, a missing or extra field, a
    value of the wrong type (a bool is not a number) or a non-finite float.
    """
    if not isinstance(data, Mapping):
        raise ValueError(f"an event must be a JSON object, got {type(data).__name__}")
    payload = dict(data)
    tag = payload.pop("ev", None)
    if not isinstance(tag, str) or tag not in EVENT_KINDS:
        raise ValueError(f"unknown event kind {tag!r}")
    types, required = _FIELDS[tag]
    missing = sorted(required - payload.keys())
    if missing:
        raise ValueError(f"{tag} event is missing {', '.join(missing)}")
    extra = sorted(str(k) for k in payload.keys() - types.keys())
    if extra:
        raise ValueError(f"{tag} event has unknown field {', '.join(extra)}")
    for name, value in payload.items():
        if not _FIELD_CHECKS[types[name]](value):
            raise ValueError(
                f"{tag} event field {name!r} must be {types[name]}, got {value!r}"
            )
    return EVENT_KINDS[tag](**payload)
