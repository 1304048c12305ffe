"""E8 — Fig. 18: ablation of the External Coordinator.

Full HCPerf vs the Internal-Coordinator-only variant (Task Rate Adapter
disabled), on the Fig. 13 car-following setup.  The paper finds the
internal-only version keeps "a low deadline miss ratio throughout the
simulation that cannot be reduced to 0", slightly larger speed-tracking
fluctuation and ~0.5 m worse distance error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..analysis.report import format_table, sparkline
from ..analysis.stats import mean
from ..schedulers.hcperf import HCPerfConfig, HCPerfScheduler
from ..workloads.scenarios import fig13_car_following
from .runner import RunResult, run_scenario

__all__ = ["EXPERIMENT_ID", "Fig18Result", "run", "render", "main"]

EXPERIMENT_ID = "fig18_ablation"

VARIANTS = ("HCPerf (full)", "Internal only")


@dataclass
class Fig18Result:
    results: Dict[str, RunResult]

    def speed_rms(self) -> Dict[str, float]:
        return {v: r.speed_error_rms() for v, r in self.results.items()}

    def distance_rms(self) -> Dict[str, float]:
        return {v: r.distance_error_rms() for v, r in self.results.items()}

    def steady_miss_ratio(self) -> Dict[str, float]:
        """Mean miss ratio during the elevated-load window."""
        out = {}
        for v, r in self.results.items():
            window = [m for t, m in r.miss_ratio_series() if 15.0 <= t < 80.0]
            out[v] = mean(window)
        return out

    def external_helps(self) -> bool:
        """The paper's conclusion: the full version regulates misses to ~0
        while internal-only cannot."""
        miss = self.steady_miss_ratio()
        return miss["HCPerf (full)"] < miss["Internal only"]


def run(seed: int = 0, horizon: float = 90.0) -> Fig18Result:
    results: Dict[str, RunResult] = {}
    for variant in VARIANTS:
        scenario = fig13_car_following(horizon=horizon)
        config = HCPerfConfig(enable_external=(variant == "HCPerf (full)"))
        results[variant] = run_scenario(scenario, HCPerfScheduler(config), seed=seed)
    return Fig18Result(results=results)


def render(result: Fig18Result) -> str:
    rows = [
        [
            v,
            result.speed_rms()[v],
            result.distance_rms()[v],
            result.steady_miss_ratio()[v],
        ]
        for v in VARIANTS
    ]
    table = format_table(
        "Fig. 18 — HCPerf with vs without the External Coordinator",
        ["variant", "speed RMS (m/s)", "distance RMS (m)", "miss ratio (window)"],
        rows,
    )
    lines = ["", "Miss-ratio timelines:"]
    for v, r in result.results.items():
        lines.append(f"  {v:16s} {sparkline([m for _, m in r.miss_ratio_series()])}")
    return table + "\n" + "\n".join(lines)


def main(seed: int = 0) -> str:  # pragma: no cover - CLI glue
    out = render(run(seed=seed))
    print(out)
    return out
