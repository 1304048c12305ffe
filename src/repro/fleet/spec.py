"""Declarative campaign specifications.

A :class:`CampaignSpec` names the grid a campaign covers — scenarios ×
schedulers × seeds × config-override variants — without running anything.
Specs are plain data: they round-trip through JSON (``hcperf fleet run
--spec campaign.json``) and expand deterministically into a job manifest
(:mod:`repro.fleet.manifest`), so the same spec always produces the same
job set and the same job hashes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence, Union

from ..faults.spec import FaultSpec, check_seed, is_finite_number
from ..rt.resources import ProcessorProfile

__all__ = ["OVERRIDE_KEYS", "CampaignSpec", "load_spec"]

#: Config-override keys a job may carry, and what they retune.
OVERRIDE_KEYS = {
    "horizon": "simulated horizon (s)",
    "n_processors": "processor count",
    "processor_profile": 'typed platform, e.g. "2xCPU+1xGPU@3"',
    "coordination_period": "coordination period (s)",
    "fusion_normal_ms": "fusion cost outside the elevated window (ms)",
    "fusion_elevated_ms": "fusion cost inside the elevated window (ms)",
    "fusion_t_on": "elevated-window start (s)",
    "fusion_t_off": "elevated-window end (s)",
}


def _check_overrides(overrides: Mapping[str, object], where: str) -> Dict[str, object]:
    if not isinstance(overrides, Mapping):
        raise ValueError(f"{where}: expected an override mapping, got {type(overrides).__name__}")
    unknown = sorted(set(overrides) - set(OVERRIDE_KEYS))
    if unknown:
        raise ValueError(
            f"{where}: unknown override keys {unknown}; "
            f"supported: {sorted(OVERRIDE_KEYS)}"
        )
    for key, value in overrides.items():
        if key == "processor_profile":
            ProcessorProfile.parse(value)  # type: ignore[arg-type]
        elif key == "n_processors":
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(f"{where}: n_processors must be a positive integer, got {value!r}")
        elif not is_finite_number(value):
            raise ValueError(f"{where}: {key} must be a finite number, got {value!r}")
    return dict(overrides)


@dataclass
class CampaignSpec:
    """One campaign grid: every scenario × variant × scheduler × seed cell.

    Attributes
    ----------
    name:
        Campaign identifier; names the default store file.
    scenarios:
        Scenario registry keys (``repro.workloads.SCENARIOS``).
    schedulers:
        Scheduler registry keys (``repro.schedulers.SCHEDULERS``).
    seeds:
        Run seeds; every cell is repeated per seed.
    variants:
        Config-override axis — one mapping per variant (see
        :data:`OVERRIDE_KEYS`).  ``[{}]`` (the default) means a single
        unmodified variant.
    faults:
        Fault-injection axis — one entry per fault condition.  ``None``
        means fault-free; a string names a suite entry
        (:data:`repro.faults.suite.NAMED_SPECS`); a mapping is an inline
        :class:`~repro.faults.spec.FaultSpec` dict.  ``[None]`` (the
        default) keeps the campaign fault-free and the job ids identical
        to pre-faults stores.
    metric:
        Default summary key the aggregation/report layer ranks schemes by
        (``None`` → auto-pick from the stored summaries).
    """

    name: str = "campaign"
    scenarios: Sequence[str] = ("fig13",)
    schedulers: Sequence[str] = ("HPF", "EDF", "EDF-VD", "Apollo", "HCPerf")
    seeds: Sequence[int] = (0,)
    variants: Sequence[Mapping[str, object]] = field(default_factory=lambda: [{}])
    faults: Sequence[Optional[Union[str, Mapping[str, object]]]] = field(
        default_factory=lambda: [None]
    )
    metric: Optional[str] = None

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise ValueError(f"spec name must be a string, got {self.name!r}")
        if self.metric is not None and not isinstance(self.metric, str):
            raise ValueError(f"spec metric must be a string or null, got {self.metric!r}")
        self.scenarios = [str(s) for s in self.scenarios]
        self.schedulers = [str(s) for s in self.schedulers]
        self.seeds = [check_seed(s, f"seeds #{i}") for i, s in enumerate(self.seeds)]
        self.variants = [
            _check_overrides(v, f"variant #{i}") for i, v in enumerate(self.variants)
        ]
        self.faults = list(self.faults)
        for i, f in enumerate(self.faults):
            if isinstance(f, Mapping):
                FaultSpec.from_dict(f)  # raises on malformed inline specs
            elif f is not None and not isinstance(f, str):
                raise ValueError(
                    f"faults #{i}: expected None, a named spec, or a "
                    f"fault-spec mapping, got {type(f).__name__}"
                )
        if not self.scenarios:
            raise ValueError("spec needs at least one scenario")
        if not self.schedulers:
            raise ValueError("spec needs at least one scheduler")
        if not self.seeds:
            raise ValueError("spec needs at least one seed")
        if not self.variants:
            raise ValueError("spec needs at least one variant ([{}] for none)")
        if not self.faults:
            raise ValueError("spec needs at least one faults entry ([null] for none)")

    # ------------------------------------------------------------------
    # Registry validation (deferred import: specs are data-only otherwise)
    # ------------------------------------------------------------------
    def validate(self) -> "CampaignSpec":
        """Check scenario/scheduler/fault names against the registries."""
        from ..faults.suite import NAMED_SPECS
        from ..schedulers import SCHEDULERS
        from ..workloads import SCENARIOS

        bad = sorted(set(self.scenarios) - set(SCENARIOS))
        if bad:
            raise ValueError(
                f"unknown scenarios {bad}; available: {sorted(SCENARIOS)}"
            )
        bad = sorted(set(self.schedulers) - set(SCHEDULERS))
        if bad:
            raise ValueError(
                f"unknown schedulers {bad}; available: {sorted(SCHEDULERS)}"
            )
        for i, f in enumerate(self.faults):
            if isinstance(f, str) and f not in NAMED_SPECS:
                raise ValueError(
                    f"faults #{i}: unknown named spec {f!r}; "
                    f"available: {sorted(NAMED_SPECS)}"
                )
        return self

    @property
    def n_jobs(self) -> int:
        return (
            len(self.scenarios)
            * len(self.variants)
            * len(self.faults)
            * len(self.schedulers)
            * len(self.seeds)
        )

    # ------------------------------------------------------------------
    # (De)serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "scenarios": list(self.scenarios),
            "schedulers": list(self.schedulers),
            "seeds": list(self.seeds),
            "variants": [dict(v) for v in self.variants],
            "faults": [dict(f) if isinstance(f, Mapping) else f for f in self.faults],
            "metric": self.metric,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CampaignSpec":
        """Build a spec from its JSON form; ``ValueError`` if malformed."""
        if not isinstance(data, Mapping):
            raise ValueError(f"a campaign spec must be an object, got {type(data).__name__}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown spec fields {unknown}; supported: {sorted(known)}")
        for key in ("scenarios", "schedulers", "seeds", "variants", "faults"):
            if key in data and not isinstance(data[key], (list, tuple)):
                raise ValueError(
                    f"spec field {key!r} must be a list, got {type(data[key]).__name__}"
                )
        try:
            return cls(**data)  # type: ignore[arg-type]
        except TypeError as exc:
            raise ValueError(f"malformed campaign spec: {exc}") from None

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")


def load_spec(path: Union[str, Path]) -> CampaignSpec:
    """Load a JSON campaign spec from ``path``."""
    return CampaignSpec.from_dict(json.loads(Path(path).read_text()))
