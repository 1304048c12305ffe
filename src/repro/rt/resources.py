"""Typed processor resources: unit specifications and platform profiles.

HCPerf schedules on ``M`` identical processors, but real AV stacks run on
*typed* resources — CPU clusters, GPUs, accelerators — with per-task
affinities and per-type speedups (Sobhani & Kim's fusion-pattern analysis,
HetSched's QoM-aware SoC scheduling; see PAPERS.md).  A
:class:`ProcessorProfile` names the platform as an ordered tuple of
:class:`UnitSpec` entries; the executor instantiates one
:class:`~repro.rt.view.ProcessorState` per unit, dispatch only binds a
job to a unit inside its task's affinity set, and the sampled execution
time is divided by the unit's effective speedup.

The *identity* profile — every unit a ``CPU`` at speedup 1.0 — collapses
bit-for-bit to the original scalar ``n_processors`` platform: affinity-free
tasks see the same eligible set, ``x / 1.0`` is float-exact, and no unit
metadata is emitted into recordings.  The differential suite under
``tests/differential/`` pins that equivalence against pre-refactor goldens.

Profiles have a compact string form for CLIs and fleet campaign axes::

    2xCPU + 1xGPU@3        # two CPUs, one GPU at 3x speedup
    CPU                    # one CPU (identity for a 1-core platform)

Each ``+``-separated segment is ``[N x] TYPE [@speedup]``; unit-type names
are case-normalized to upper case.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Sequence, Tuple, Union

__all__ = ["UnitSpec", "ProcessorProfile", "ProfileLike"]

#: Canonical unit type of the homogeneous (identity) platform.
DEFAULT_UNIT_TYPE = "CPU"

#: Most units a profile may name.  The executor keeps per-unit state, so
#: ``parse`` refuses a count like ``10**12xCPU`` before building the tuple.
MAX_UNITS = 1024

_SEGMENT_RE = re.compile(
    r"^\s*(?:(?P<count>\d+)\s*[xX]\s*)?(?P<type>[A-Za-z_][A-Za-z0-9_]*)"
    r"\s*(?:@\s*(?P<speedup>[0-9]*\.?[0-9]+(?:[eE]-?[0-9]+)?))?\s*$"
)


def _speedup_text(speedup: float) -> str:
    """The shortest text that parses back to ``speedup`` exactly.

    ``repr`` is the shortest round-tripping form; a trailing ``.0`` goes
    (``3.0`` -> ``3``) and the exponent loses its ``+`` (``1e+20`` ->
    ``1e20``), because ``+`` separates profile segments.
    """
    text = repr(speedup).replace("e+", "e")
    return text[:-2] if text.endswith(".0") else text


@dataclass(frozen=True)
class UnitSpec:
    """One processing unit of a typed platform.

    ``speedup`` is the unit's default execution-rate multiplier: a job's
    sampled execution time is divided by it (a GPU at speedup 3 runs a
    30 ms job in 10 ms of simulated time).  A task may override the factor
    per type via ``TaskSpec.speedup``.
    """

    type: str = DEFAULT_UNIT_TYPE
    speedup: float = 1.0

    def __post_init__(self) -> None:
        if not self.type or not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", self.type):
            raise ValueError(f"invalid unit type {self.type!r}")
        if not math.isfinite(self.speedup) or self.speedup <= 0:
            raise ValueError(
                f"unit {self.type!r}: speedup must be positive and finite, got {self.speedup}"
            )

    @property
    def is_identity(self) -> bool:
        """Whether this unit is indistinguishable from a scalar processor."""
        return self.type == DEFAULT_UNIT_TYPE and self.speedup == 1.0


#: Anything :meth:`ProcessorProfile.coerce` accepts.
ProfileLike = Union["ProcessorProfile", str, Sequence[UnitSpec]]


@dataclass(frozen=True)
class ProcessorProfile:
    """An ordered tuple of typed processing units — the platform.

    Unit order is load-bearing: unit ``i`` becomes processor index ``i``
    in the executor, so ``2xCPU+1xGPU`` puts the GPU at index 2.  Static
    ``processor_binding`` values and fault-spec indices refer to these
    absolute indices; :meth:`typed_index` maps a (type, ordinal) pair to
    the absolute index for typed targeting.
    """

    units: Tuple[UnitSpec, ...]

    def __post_init__(self) -> None:
        if not self.units:
            raise ValueError("a profile needs at least one unit")
        if len(self.units) > MAX_UNITS:
            raise ValueError(f"a profile has at most {MAX_UNITS} units, got {len(self.units)}")
        for u in self.units:
            if not isinstance(u, UnitSpec):
                raise TypeError(f"profile units must be UnitSpec, got {u!r}")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def homogeneous(
        cls, n: int, unit_type: str = DEFAULT_UNIT_TYPE, speedup: float = 1.0
    ) -> "ProcessorProfile":
        """``n`` identical units; the all-CPU speedup-1.0 case is identity."""
        if not (1 <= n <= MAX_UNITS):
            raise ValueError(f"a profile has 1 to {MAX_UNITS} units, got {n}")
        return cls(units=tuple(UnitSpec(unit_type, speedup) for _ in range(n)))

    @classmethod
    def parse(cls, text: str) -> "ProcessorProfile":
        """Parse the compact ``2xCPU+1xGPU@3`` form (see module docstring)."""
        if not isinstance(text, str):
            raise ValueError(f"a profile must be a string, got {type(text).__name__}")
        units: List[UnitSpec] = []
        for segment in text.split("+"):
            m = _SEGMENT_RE.match(segment)
            if m is None:
                raise ValueError(
                    f"cannot parse profile segment {segment.strip()!r} "
                    "(expected '[N x] TYPE [@speedup]', e.g. '2xCPU+1xGPU@3')"
                )
            count = int(m.group("count") or 1)
            if count < 1:
                raise ValueError(f"profile segment {segment.strip()!r}: count must be >= 1")
            if len(units) + count > MAX_UNITS:
                raise ValueError(f"a profile has at most {MAX_UNITS} units")
            speedup = float(m.group("speedup") or 1.0)
            spec = UnitSpec(type=m.group("type").upper(), speedup=speedup)
            units.extend([spec] * count)
        return cls(units=tuple(units))

    @classmethod
    def coerce(cls, value: ProfileLike) -> "ProcessorProfile":
        """Normalize a profile, its string form, or a unit sequence."""
        if isinstance(value, ProcessorProfile):
            return value
        if isinstance(value, str):
            return cls.parse(value)
        return cls(units=tuple(value))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def n_units(self) -> int:
        return len(self.units)

    @property
    def is_identity(self) -> bool:
        """Whether the profile collapses to the scalar ``n_processors`` model.

        Identity means every unit is a ``CPU`` at speedup 1.0 — the case
        the differential-equivalence suite proves byte-identical to the
        pre-typed-model executor.  Gate typed-only behavior (unit tags on
        span events, profile metadata in recordings) on this, *not* on
        whether a profile object was supplied.
        """
        return all(u.is_identity for u in self.units)

    def unit_types(self) -> List[str]:
        """Distinct unit types, in first-appearance order."""
        seen: List[str] = []
        for u in self.units:
            if u.type not in seen:
                seen.append(u.type)
        return seen

    def indices_of(self, unit_type: str) -> List[int]:
        """Absolute processor indices of every unit of ``unit_type``."""
        return [i for i, u in enumerate(self.units) if u.type == unit_type]

    def typed_index(self, unit_type: str, ordinal: int) -> int:
        """Absolute index of the ``ordinal``-th unit of ``unit_type``.

        The typed addressing used by fault injection: ``("GPU", 0)`` is
        the first GPU regardless of how many CPUs precede it.
        """
        indices = self.indices_of(unit_type)
        if not indices:
            raise ValueError(
                f"profile {self.describe()!r} has no {unit_type!r} unit "
                f"(types: {self.unit_types()})"
            )
        if not (0 <= ordinal < len(indices)):
            raise ValueError(
                f"profile {self.describe()!r} has {len(indices)} {unit_type!r} "
                f"unit(s); ordinal {ordinal} is out of range"
            )
        return indices[ordinal]

    def count(self, unit_type: str) -> int:
        """Number of units of ``unit_type``."""
        return len(self.indices_of(unit_type))

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Canonical compact string (parse/describe round-trips)."""
        groups: List[Tuple[UnitSpec, int]] = []
        for u in self.units:
            if groups and groups[-1][0] == u:
                groups[-1] = (u, groups[-1][1] + 1)
            else:
                groups.append((u, 1))
        parts = []
        for spec, n in groups:
            part = f"{n}x{spec.type}"
            if spec.speedup != 1.0:
                part += f"@{_speedup_text(spec.speedup)}"
            parts.append(part)
        return "+".join(parts)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "units": [{"type": u.type, "speedup": u.speedup} for u in self.units]
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ProcessorProfile":
        """Build a profile from its JSON form; ``ValueError`` if malformed."""
        raw = data.get("units") if isinstance(data, Mapping) else None
        if not isinstance(raw, (list, tuple)):
            raise ValueError("profile dict needs a 'units' list")
        units = []
        for i, u in enumerate(raw):
            if not isinstance(u, Mapping) or "type" not in u:
                raise ValueError(f"profile unit #{i} must be an object with a 'type', got {u!r}")
            try:
                units.append(UnitSpec(type=str(u["type"]), speedup=float(u.get("speedup", 1.0))))
            except (TypeError, OverflowError) as exc:
                raise ValueError(f"profile unit #{i}: {exc}") from None
        return cls(units=tuple(units))

    def __str__(self) -> str:
        return self.describe()
