"""Declarative fault specifications.

A :class:`FaultSpec` names *what goes wrong and when* in a simulated run —
without touching the executor.  Specs are plain data: they round-trip
through JSON (``hcperf faults run ... --spec FILE``), are content-hashable
like fleet jobs (:func:`FaultSpec.spec_hash`), and expand deterministically:
every random choice a fault model makes (Poisson burst scheduling) is drawn
from ``random.Random(spec.seed)`` streams derived at attach time, so the
same spec + seed always injects the same faults at the same instants.

Fault model catalog (see docs/faults.md):

* :class:`ExecTimeSpike` — one task's execution time is inflated
  (``value*factor + add``) during a window;
* :class:`ExecTimeBurst` — Poisson-scheduled short bursts of the same
  inflation, for input-dependent load spikes;
* :class:`SensorDropout` — a source task produces no frames in a window
  (its release clock keeps ticking);
* :class:`ProcessorFailure` — hot-unplug one processor mid-run, optionally
  re-add it later (the in-flight job is killed and counts as a miss);
* :class:`DeadlineStorm` — every task's execution time scales up during a
  window, driving the platform into a deadline-miss storm;
* :class:`ComplexitySurge` — the scene-complexity timeline is amplified in
  a window, feeding :class:`~repro.rt.exectime.SceneCubicExecTime`.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Type, Union

__all__ = [
    "ExecTimeSpike",
    "ExecTimeBurst",
    "SensorDropout",
    "ProcessorFailure",
    "DeadlineStorm",
    "ComplexitySurge",
    "FaultModel",
    "FAULT_KINDS",
    "FaultSpec",
    "load_fault_spec",
    "check_seed",
    "is_finite_number",
]


def check_seed(value: object, where: str) -> int:
    """``value`` as an int seed: ``2`` or ``2.0``, never a truncated ``1.5``."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{where}: a seed must be an integer, got {value!r}")


def is_finite_number(value: object) -> bool:
    """Whether ``value`` is an int or float (not a bool) of finite float value."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond float range
        return False


def _check_window(t_on: float, t_off: float) -> None:
    if t_on < 0:
        raise ValueError(f"t_on must be >= 0, got {t_on}")
    if t_off <= t_on:
        raise ValueError(f"t_off must exceed t_on, got [{t_on}, {t_off})")


@dataclass(frozen=True)
class ExecTimeSpike:
    """Inflate one task's sampled execution time during ``[t_on, t_off)``.

    The sampled value becomes ``value*factor + add`` — multiplicative for
    load amplification, absolute for a fixed stall (e.g. a lock hiccup).
    """

    task: str
    t_on: float
    t_off: float
    factor: float = 1.0
    add: float = 0.0

    kind = "exec_spike"

    def __post_init__(self) -> None:
        _check_window(self.t_on, self.t_off)
        if self.factor < 0 or self.add < 0:
            raise ValueError("factor and add must be >= 0")

    @property
    def onset(self) -> float:
        return self.t_on

    @property
    def clear(self) -> float:
        return self.t_off


@dataclass(frozen=True)
class ExecTimeBurst:
    """Poisson-scheduled execution-time bursts for one task.

    Burst start times are drawn from an exponential inter-arrival process
    (``rate`` bursts/s expected) over ``[t_on, t_off)`` using a stream
    seeded from the owning spec; each burst inflates the task's execution
    time by ``factor`` for ``duration`` seconds.  Models input-dependent
    load spikes (a crowd of obstacles entering the scene).
    """

    task: str
    rate: float
    duration: float
    factor: float
    t_on: float = 0.0
    t_off: float = math.inf

    kind = "exec_burst"

    def __post_init__(self) -> None:
        if self.t_on < 0 or self.t_off <= self.t_on:
            raise ValueError(f"invalid burst window [{self.t_on}, {self.t_off})")
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.factor < 0:
            raise ValueError("factor must be >= 0")

    @property
    def onset(self) -> float:
        return self.t_on

    @property
    def clear(self) -> float:
        return self.t_off


@dataclass(frozen=True)
class SensorDropout:
    """Suppress a source task's releases during ``[t_on, t_off)``.

    The sensor produces no frames; downstream AND-activation starves.  The
    release clock keeps ticking, so the first post-window release lands on
    the task's normal grid.
    """

    task: str
    t_on: float
    t_off: float

    kind = "sensor_dropout"

    def __post_init__(self) -> None:
        _check_window(self.t_on, self.t_off)

    @property
    def onset(self) -> float:
        return self.t_on

    @property
    def clear(self) -> float:
        return self.t_off


@dataclass(frozen=True)
class ProcessorFailure:
    """Hot-unplug processor ``processor`` at ``t_fail``.

    The in-flight job (if any) is killed and counted as a dropped miss.
    ``t_recover=None`` means the processor never comes back.

    ``unit=None`` addresses the platform by absolute processor index (the
    homogeneous convention).  With ``unit`` set (e.g. ``"GPU"``),
    ``processor`` is instead the *within-type ordinal* on a typed
    :class:`~repro.rt.resources.ProcessorProfile` platform — ``unit="GPU",
    processor=0`` kills the first GPU wherever it sits in the profile, so
    specs stay valid when the CPU/GPU mix changes.
    """

    processor: int
    t_fail: float
    t_recover: Optional[float] = None
    unit: Optional[str] = None

    kind = "processor_failure"

    def __post_init__(self) -> None:
        if self.processor < 0:
            raise ValueError("processor index must be >= 0")
        if self.t_fail < 0:
            raise ValueError("t_fail must be >= 0")
        if self.t_recover is not None and self.t_recover <= self.t_fail:
            raise ValueError("t_recover must exceed t_fail")

    @property
    def onset(self) -> float:
        return self.t_fail

    @property
    def clear(self) -> float:
        return math.inf if self.t_recover is None else self.t_recover


@dataclass(frozen=True)
class DeadlineStorm:
    """Scale *every* task's execution time by ``factor`` in ``[t_on, t_off)``.

    A platform-wide slowdown (thermal throttling, a noisy neighbor) that
    drives the whole graph into a deadline-miss storm.
    """

    t_on: float
    t_off: float
    factor: float = 3.0

    kind = "deadline_storm"

    def __post_init__(self) -> None:
        _check_window(self.t_on, self.t_off)
        if self.factor < 1.0:
            raise ValueError("a storm must slow tasks down (factor >= 1)")

    @property
    def onset(self) -> float:
        return self.t_on

    @property
    def clear(self) -> float:
        return self.t_off


@dataclass(frozen=True)
class ComplexitySurge:
    """Amplify the scene-complexity timeline during ``[t_on, t_off)``.

    The executor's ``n(t)`` becomes ``n(t)*scale + add`` inside the window,
    feeding :class:`~repro.rt.exectime.SceneCubicExecTime` — the §II
    "number of obstacles" pathway to execution-time inflation.
    """

    t_on: float
    t_off: float
    scale: float = 1.0
    add: float = 0.0

    kind = "complexity_surge"

    def __post_init__(self) -> None:
        _check_window(self.t_on, self.t_off)
        if self.scale < 0 or self.add < 0:
            raise ValueError("scale and add must be >= 0")

    @property
    def onset(self) -> float:
        return self.t_on

    @property
    def clear(self) -> float:
        return self.t_off


FaultModel = Union[
    ExecTimeSpike,
    ExecTimeBurst,
    SensorDropout,
    ProcessorFailure,
    DeadlineStorm,
    ComplexitySurge,
]

#: Kind tag -> model class, for dict/JSON round-trips.
FAULT_KINDS: Dict[str, Type[FaultModel]] = {
    cls.kind: cls  # type: ignore[misc]
    for cls in (
        ExecTimeSpike,
        ExecTimeBurst,
        SensorDropout,
        ProcessorFailure,
        DeadlineStorm,
        ComplexitySurge,
    )
}


def _model_to_dict(model: FaultModel) -> Dict[str, object]:
    out: Dict[str, object] = {"kind": model.kind}
    for f in fields(model):
        value = getattr(model, f.name)
        if isinstance(value, float) and math.isinf(value):
            value = None  # JSON has no inf; None means "unbounded"
        out[f.name] = value
    return out


#: Kind tag -> field name -> resolved annotation, for checking JSON values.
_FIELD_TYPES = {kind: typing.get_type_hints(cls) for kind, cls in FAULT_KINDS.items()}


def _fits(hint: object, value: object) -> bool:
    """Whether a JSON value fits a field annotated ``hint`` (``None`` only if Optional)."""
    args = typing.get_args(hint)
    if args:  # Optional[X]
        if value is None:
            return True
        hint = args[0]
    if hint is str:
        return isinstance(value, str)
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    return is_finite_number(value)


def _model_from_dict(data: object, i: int) -> FaultModel:
    if not isinstance(data, Mapping):
        raise ValueError(f"faults[{i}] must be an object, got {type(data).__name__}")
    payload = dict(data)
    kind = payload.pop("kind", None)
    if kind not in FAULT_KINDS:
        raise ValueError(
            f"unknown fault kind {kind!r}; supported: {sorted(FAULT_KINDS)}"
        )
    cls = FAULT_KINDS[kind]
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ValueError(
            f"fault kind {kind!r}: unknown fields {unknown}; "
            f"supported: {sorted(known)}"
        )
    for f in fields(cls):
        if f.name not in payload:
            continue
        value = payload[f.name]
        if value is None and f.default == math.inf:
            payload[f.name] = math.inf  # JSON's "unbounded" (see _model_to_dict)
        elif not _fits(_FIELD_TYPES[kind][f.name], value):
            raise ValueError(
                f"faults[{i}] ({kind!r}): field {f.name!r} does not take {value!r}"
            )
    try:
        return cls(**payload)  # type: ignore[arg-type]
    except TypeError as exc:
        raise ValueError(f"faults[{i}] ({kind!r}): {exc}") from None


@dataclass
class FaultSpec:
    """A named, seeded composition of fault models.

    Attributes
    ----------
    name:
        Human-readable identifier (shows up in reports and event logs).
    seed:
        Seed of every random choice the spec's fault models make (burst
        scheduling); independent of the run seed so the same fault
        timeline can be replayed across run seeds.
    faults:
        The fault models, applied independently.
    """

    name: str = ""
    seed: int = 0
    faults: List[FaultModel] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.seed = check_seed(self.seed, "fault spec")
        for i, f in enumerate(self.faults):
            if not isinstance(f, tuple(FAULT_KINDS.values())):
                raise TypeError(f"faults[{i}] is not a fault model: {f!r}")

    @property
    def is_empty(self) -> bool:
        return not self.faults

    def first_onset(self) -> Optional[float]:
        """Earliest instant any fault takes effect (``None`` if empty)."""
        if self.is_empty:
            return None
        return min(f.onset for f in self.faults)

    def last_clear(self) -> Optional[float]:
        """Latest instant any fault clears; ``inf`` for permanent faults."""
        if self.is_empty:
            return None
        return max(f.clear for f in self.faults)

    # ------------------------------------------------------------------
    # (De)serialization and identity
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "seed": self.seed,
            "faults": [_model_to_dict(f) for f in self.faults],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FaultSpec":
        """Build a spec from its JSON form; ``ValueError`` if malformed."""
        if not isinstance(data, Mapping):
            raise ValueError(f"a fault spec must be an object, got {type(data).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown fault-spec fields {unknown}; supported: {sorted(known)}"
            )
        raw = data.get("faults", [])
        if not isinstance(raw, (list, tuple)):
            raise ValueError(f"fault-spec 'faults' must be a list, got {type(raw).__name__}")
        faults = [_model_from_dict(f, i) for i, f in enumerate(raw)]
        return cls(
            name=str(data.get("name", "")),
            seed=data.get("seed", 0),  # type: ignore[arg-type]
            faults=faults,
        )

    def spec_hash(self) -> str:
        """Stable 16-hex-digit content hash (fleet-manifest convention)."""
        payload = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")


def load_fault_spec(path: Union[str, Path]) -> FaultSpec:
    """Load a JSON fault spec from ``path``."""
    return FaultSpec.from_dict(json.loads(Path(path).read_text()))
