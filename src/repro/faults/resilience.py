"""Recovery metrics: how a (scenario, scheduler) pair rides out a fault.

:func:`run_resilience` executes a *twin pair* of runs with the same seed —
one fault-free, one with the spec injected — and reduces them to a
:class:`ResilienceReport`:

* **time_to_recover** — how long after the last fault clears the windowed
  deadline-miss ratio returns to (and stays at) the pre-fault level;
* **peak / steady-state miss ratio** — worst window during the fault and
  the settled level at the end of the run;
* **tracking-error degradation** — RMS tracking error of the faulty run
  minus the fault-free twin (the driving-performance cost of the fault);
* **overload-flag duty cycle / rate-adapter resets** — how hard HCPerf's
  Eq. (11) overload detection and §V gain reset worked during the run.

Every aggregate comes from the faulty run itself: the miss-ratio curve
from its executor's window series, the overload duty cycle and §V resets
from its coordinator, and the fault-event log from the injection harness.
A report is therefore a pure function of (scenario, scheduler, seed,
spec).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

from ..analysis.stats import rms_series
from ..experiments.runner import RunResult, run_scenario
from ..vehicle.car_following import CarFollowingPlant
from ..workloads.scenarios import Scenario
from .harness import InjectionHarness
from .spec import FaultSpec

__all__ = ["ResilienceReport", "run_resilience"]

#: Consecutive calm windows required to declare recovery.
RECOVERY_WINDOWS = 3

#: Absolute slack over the pre-fault miss-ratio level that still counts
#: as recovered (one stray miss in a small window must not reset the clock).
RECOVERY_TOLERANCE = 0.05


@dataclass
class ResilienceReport:
    """Everything one resilience evaluation produced."""

    scenario: str
    scheduler: str
    seed: int
    spec_name: str
    spec_hash: str
    horizon: float
    fault_onset: Optional[float]
    fault_clear: Optional[float]  # None = empty spec; horizon-clamped else
    recovered: bool
    time_to_recover: Optional[float]  # seconds after fault_clear; None = never
    baseline_miss_ratio: float
    peak_miss_ratio: float
    steady_state_miss_ratio: float
    tracking_error_rms: float
    tracking_error_rms_clean: float
    overload_duty_cycle: float
    rate_adapter_resets: int
    fault_events: List[Dict[str, object]] = field(default_factory=list)
    #: The recovery curve: (window end, deadline-miss ratio) of the faulty run.
    miss_ratio_series: List[List[float]] = field(default_factory=list)

    @property
    def tracking_error_degradation(self) -> float:
        """RMS tracking-error cost of the fault vs. the fault-free twin."""
        return self.tracking_error_rms - self.tracking_error_rms_clean

    def to_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "scheduler": self.scheduler,
            "seed": self.seed,
            "spec_name": self.spec_name,
            "spec_hash": self.spec_hash,
            "horizon": self.horizon,
            "fault_onset": self.fault_onset,
            "fault_clear": self.fault_clear,
            "recovered": self.recovered,
            "time_to_recover": self.time_to_recover,
            "baseline_miss_ratio": self.baseline_miss_ratio,
            "peak_miss_ratio": self.peak_miss_ratio,
            "steady_state_miss_ratio": self.steady_state_miss_ratio,
            "tracking_error_rms": self.tracking_error_rms,
            "tracking_error_rms_clean": self.tracking_error_rms_clean,
            "tracking_error_degradation": self.tracking_error_degradation,
            "overload_duty_cycle": self.overload_duty_cycle,
            "rate_adapter_resets": self.rate_adapter_resets,
            "fault_events": list(self.fault_events),
            "miss_ratio_series": [list(p) for p in self.miss_ratio_series],
        }


def _tracking_rms(result: RunResult) -> float:
    if isinstance(result.plant, CarFollowingPlant):
        return rms_series(result.plant.speed_error_series())
    return rms_series(result.plant.offset_series())


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def run_resilience(
    scenario: Union[str, Callable[[], Scenario]],
    scheduler: str,
    spec: FaultSpec,
    seed: int = 0,
    recovery_windows: int = RECOVERY_WINDOWS,
    tolerance: float = RECOVERY_TOLERANCE,
) -> ResilienceReport:
    """Run the fault-free twin and the faulty run; reduce to a report.

    ``scenario`` is a registry key or a zero-argument scenario factory (two
    fresh instances are built — graphs are mutated by the harness and
    plants carry state).
    """
    if isinstance(scenario, str):
        from ..workloads import SCENARIOS

        factory: Callable[[], Scenario] = SCENARIOS[scenario]
    else:
        factory = scenario

    clean = run_scenario(factory(), scheduler, seed=seed)
    harness = InjectionHarness(spec)
    faulty = run_scenario(factory(), scheduler, seed=seed, before_run=harness.attach)

    series = faulty.miss_ratio_series()
    onset = spec.first_onset()
    clear = spec.last_clear()
    if clear is not None:
        clear = min(clear, faulty.horizon)

    # Pre-fault level: faulty-run windows strictly before the onset; the
    # clean twin's overall level when the fault starts at (or before) t=0.
    if onset is None:
        baseline = faulty.overall_miss_ratio()
    else:
        pre = [ratio for t, ratio in series if t <= onset]
        baseline = _mean(pre) if pre else clean.overall_miss_ratio()

    peak = max(
        (ratio for t, ratio in series if onset is None or t >= onset),
        default=0.0,
    )
    steady = _mean([ratio for _, ratio in series[-recovery_windows:]])

    recovered = onset is None
    time_to_recover: Optional[float] = None if not recovered else 0.0
    if onset is not None and clear is not None and math.isfinite(clear):
        threshold = baseline + tolerance
        post = [(t, ratio) for t, ratio in series if t >= clear]
        for i, (t, _) in enumerate(post):
            tail = post[i : i + recovery_windows]
            if len(tail) < recovery_windows:
                break
            if all(ratio <= threshold for _, ratio in tail):
                recovered = True
                time_to_recover = max(0.0, t - clear)
                break

    return ResilienceReport(
        scenario=faulty.scenario,
        scheduler=faulty.scheduler,
        seed=seed,
        spec_name=spec.name,
        spec_hash=spec.spec_hash(),
        horizon=faulty.horizon,
        fault_onset=onset,
        fault_clear=(clear if clear is None or math.isfinite(clear) else None),
        recovered=recovered,
        time_to_recover=time_to_recover,
        baseline_miss_ratio=baseline,
        peak_miss_ratio=peak,
        steady_state_miss_ratio=steady,
        tracking_error_rms=_tracking_rms(faulty),
        tracking_error_rms_clean=_tracking_rms(clean),
        overload_duty_cycle=faulty.overload_duty_cycle,
        rate_adapter_resets=faulty.rate_adapter_resets,
        fault_events=harness.events_dict(),
        miss_ratio_series=[[t, ratio] for t, ratio in series],
    )
