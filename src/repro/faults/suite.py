"""Named fault specs: the catalog behind ``hcperf faults list``.

Each entry is a factory so callers always get a fresh spec.  The
``canonical`` suite is the fault sequence the resilience experiment
(:mod:`repro.experiments.resilience`) drives: a fusion overload spike, a
camera dropout and a processor failure, all clearing well before the
horizon so the recovery tail is measurable.

Fault windows reference the fig13 car-following timeline (90 s horizon,
2 processors, fusion elevated during t ∈ [10, 80) s).
"""

from __future__ import annotations

from typing import Callable, Dict, List

from .spec import (
    ComplexitySurge,
    DeadlineStorm,
    ExecTimeBurst,
    ExecTimeSpike,
    FaultSpec,
    ProcessorFailure,
    SensorDropout,
)

__all__ = ["NAMED_SPECS", "get_spec", "canonical_suite", "list_specs"]


def fusion_spike() -> FaultSpec:
    """Double the sensor-fusion cost for 15 s (a dense intersection)."""
    return FaultSpec(
        name="fusion_spike",
        faults=[ExecTimeSpike(task="sensor_fusion", t_on=20.0, t_off=35.0, factor=2.0)],
    )


def fusion_bursts() -> FaultSpec:
    """Poisson bursts of 3x fusion cost, ~1 burst/10 s, 2 s each."""
    return FaultSpec(
        name="fusion_bursts",
        seed=0,
        faults=[
            ExecTimeBurst(
                task="sensor_fusion", rate=0.1, duration=2.0, factor=3.0,
                t_on=5.0, t_off=75.0,
            )
        ],
    )


def camera_dropout() -> FaultSpec:
    """The front camera produces no frames for 1.5 s."""
    return FaultSpec(
        name="camera_dropout",
        faults=[SensorDropout(task="camera_front", t_on=45.0, t_off=46.5)],
    )


def cpu_failure() -> FaultSpec:
    """One of the two processors is gone for 10 s (half the platform)."""
    return FaultSpec(
        name="cpu_failure",
        faults=[ProcessorFailure(processor=1, t_fail=55.0, t_recover=65.0)],
    )


def deadline_storm() -> FaultSpec:
    """Platform-wide 2x slowdown for 8 s (thermal throttling)."""
    return FaultSpec(
        name="deadline_storm",
        faults=[DeadlineStorm(t_on=30.0, t_off=38.0, factor=2.0)],
    )


def complexity_surge() -> FaultSpec:
    """+12 obstacles in the scene for 10 s (feeds SceneCubicExecTime)."""
    return FaultSpec(
        name="complexity_surge",
        faults=[ComplexitySurge(t_on=25.0, t_off=35.0, add=12.0)],
    )


def canonical_suite() -> FaultSpec:
    """The canonical resilience workout: spike + dropout + CPU failure.

    Three disjoint disturbances exercising the three recovery paths —
    rate adaptation under overload (spike), AND-activation starvation
    (dropout) and capacity loss (processor failure) — clearing by t = 65 s
    so the last 25 s of the fig13 horizon measure the recovery tail.
    """
    return FaultSpec(
        name="canonical",
        faults=[
            ExecTimeSpike(task="sensor_fusion", t_on=20.0, t_off=32.0, factor=2.0),
            SensorDropout(task="camera_front", t_on=42.0, t_off=43.5),
            ProcessorFailure(processor=1, t_fail=55.0, t_recover=65.0),
        ],
    )


#: Name -> spec factory; the registry ``hcperf faults`` resolves against.
NAMED_SPECS: Dict[str, Callable[[], FaultSpec]] = {
    "fusion_spike": fusion_spike,
    "fusion_bursts": fusion_bursts,
    "camera_dropout": camera_dropout,
    "cpu_failure": cpu_failure,
    "deadline_storm": deadline_storm,
    "complexity_surge": complexity_surge,
    "canonical": canonical_suite,
}


def get_spec(name: str) -> FaultSpec:
    """Resolve a named spec (raises ``ValueError`` with the catalog)."""
    try:
        return NAMED_SPECS[name]()
    except KeyError:
        raise ValueError(
            f"unknown fault spec {name!r}; available: {sorted(NAMED_SPECS)}"
        ) from None


def list_specs() -> List[str]:
    return sorted(NAMED_SPECS)
