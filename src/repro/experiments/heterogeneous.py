"""E12 — homogeneous vs heterogeneous platforms (§VII extension).

The paper evaluates on a fixed symmetric platform; this experiment asks
what changes when the same compute budget is reorganized into typed units.
Two platforms with three units each run the Fig. 13 car-following setup:

* ``homogeneous`` — ``3xCPU`` running the untyped Fig. 11 graph: any task
  may run anywhere.
* ``heterogeneous`` — ``2xCPU+1xGPU@3`` running
  :func:`~repro.workloads.profiles.heterogeneous_task_graph`: the two
  object detectors are GPU-affine (and 3× faster there), everything else
  is pinned to the CPU pair.

The interesting comparison is *across schedulers*: a dedicated accelerator
removes detector contention but narrows the CPU pool, so policies that
already protect the critical path (HCPerf) react differently from policies
that don't (HPF).  The claims ledger (``benchmarks/test_claims.py``, section
``heterogeneous``) publishes the seeded outcome in EXPERIMENTS.md (E12).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List

from ..analysis.report import format_table, sparkline
from ..workloads.profiles import full_task_graph, heterogeneous_task_graph
from ..workloads.scenarios import Scenario, fig13_car_following
from .runner import RunResult, run_scenario

__all__ = [
    "EXPERIMENT_ID",
    "PROFILES",
    "SCHEMES",
    "HeterogeneousResult",
    "build_scenario",
    "run",
    "render",
    "main",
]

EXPERIMENT_ID = "heterogeneous"

#: Platform axis: label -> processor-profile string (both are 3 units).
PROFILES = {
    "homogeneous": "3xCPU",
    "heterogeneous": "2xCPU+1xGPU@3",
}

#: Scheduler axis (the differential-suite trio).
SCHEMES = ("EDF", "HPF", "HCPerf")


@dataclass
class HeterogeneousResult:
    """Results keyed ``[profile label][scheduler]``."""

    results: Dict[str, Dict[str, RunResult]]

    def miss_ratio(self) -> Dict[str, Dict[str, float]]:
        return {
            profile: {s: r.overall_miss_ratio() for s, r in by_scheme.items()}
            for profile, by_scheme in self.results.items()
        }

    def speed_rms(self) -> Dict[str, Dict[str, float]]:
        return {
            profile: {s: r.speed_error_rms() for s, r in by_scheme.items()}
            for profile, by_scheme in self.results.items()
        }

    def platform_matters(self) -> bool:
        """Whether any scheduler's miss ratio moves with the platform."""
        miss = self.miss_ratio()
        return any(
            miss["homogeneous"][s] != miss["heterogeneous"][s] for s in SCHEMES
        )


def build_scenario(profile: str, horizon: float = 30.0) -> Scenario:
    """The Fig. 13 setup retargeted onto one of the two platforms."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; choose from {sorted(PROFILES)}")
    scenario = fig13_car_following(horizon=horizon)
    base_fusion = scenario.graph_factory().task("sensor_fusion").exec_model
    if profile == "heterogeneous":
        scenario.graph_factory = lambda: heterogeneous_task_graph(
            fusion_model=base_fusion
        )
    else:
        scenario.graph_factory = lambda: full_task_graph(fusion_model=base_fusion)
    scenario.sim = dataclasses.replace(
        scenario.sim, processor_profile=PROFILES[profile]
    )
    scenario.name = f"fig13[{PROFILES[profile]}]"
    return scenario


def run(seed: int = 0, horizon: float = 30.0) -> HeterogeneousResult:
    results: Dict[str, Dict[str, RunResult]] = {}
    for profile in PROFILES:
        scenario = build_scenario(profile, horizon=horizon)
        results[profile] = {
            scheme: run_scenario(scenario, scheme, seed=seed) for scheme in SCHEMES
        }
    return HeterogeneousResult(results=results)


def render(result: HeterogeneousResult) -> str:
    miss = result.miss_ratio()
    speed = result.speed_rms()
    rows: List[List[object]] = []
    for profile, platform in PROFILES.items():
        for scheme in SCHEMES:
            rows.append(
                [profile, platform, scheme, miss[profile][scheme], speed[profile][scheme]]
            )
    table = format_table(
        "Homogeneous vs heterogeneous platform (Fig. 13 workload)",
        ["profile", "platform", "scheduler", "miss ratio", "speed RMS (m/s)"],
        rows,
    )
    lines = ["", "Miss-ratio timelines:"]
    for profile, by_scheme in result.results.items():
        for scheme, r in by_scheme.items():
            label = f"{profile}/{scheme}"
            lines.append(
                f"  {label:24s} {sparkline([m for _, m in r.miss_ratio_series()])}"
            )
    verdict = (
        "platform reorganization shifts miss ratios"
        if result.platform_matters()
        else "platforms are indistinguishable on this workload"
    )
    return table + "\n" + "\n".join(lines) + f"\n\nVerdict: {verdict}\n"


def main(seed: int = 0) -> str:  # pragma: no cover - CLI glue
    out = render(run(seed=seed))
    print(out)
    return out
