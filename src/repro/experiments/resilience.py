"""E11 — resilience: EDF vs HCPerf recovery under the canonical fault suite.

Drives the fig13 car-following setup through the canonical fault sequence
(fusion overload spike, camera dropout, processor failure — see
:func:`repro.faults.suite.canonical_suite`) under both schedulers and
compares their recovery behavior: time-to-recover after the last fault
clears, peak and steady-state deadline-miss ratio, and the tracking-error
cost versus each scheduler's fault-free twin run.

The headline expectation mirrors the paper's robustness story: HCPerf's
hierarchical coordination (overload-flagged γ search + rate adaptation
with §V gain reset) recovers *no slower* than EDF while degrading far
less at the fault's peak.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..analysis.report import format_table, sparkline
from ..faults.resilience import ResilienceReport, run_resilience
from ..faults.suite import canonical_suite
from ..workloads.scenarios import fig13_car_following

__all__ = ["EXPERIMENT_ID", "ResilienceResult", "run", "render", "main"]

EXPERIMENT_ID = "resilience"

SCHEMES = ("EDF", "HCPerf")


@dataclass
class ResilienceResult:
    reports: Dict[str, ResilienceReport]

    def hcperf_no_slower(self) -> bool:
        """HCPerf recovers no slower than EDF (the acceptance claim)."""
        edf, hc = self.reports["EDF"], self.reports["HCPerf"]
        if not hc.recovered:
            return False
        if not edf.recovered:
            return True
        assert edf.time_to_recover is not None and hc.time_to_recover is not None
        return hc.time_to_recover <= edf.time_to_recover

    def hcperf_degrades_less(self) -> bool:
        """HCPerf's fault-window damage is smaller on both axes."""
        edf, hc = self.reports["EDF"], self.reports["HCPerf"]
        return (
            hc.peak_miss_ratio <= edf.peak_miss_ratio
            and hc.tracking_error_degradation <= edf.tracking_error_degradation
        )


def run(seed: int = 0, horizon: float = 90.0) -> ResilienceResult:
    spec = canonical_suite()
    reports = {
        scheme: run_resilience(
            lambda: fig13_car_following(horizon=horizon), scheme, spec, seed=seed
        )
        for scheme in SCHEMES
    }
    return ResilienceResult(reports=reports)


def render(result: ResilienceResult) -> str:
    rows = []
    for scheme in SCHEMES:
        r = result.reports[scheme]
        rows.append(
            [
                scheme,
                "yes" if r.recovered else "NO",
                r.time_to_recover if r.time_to_recover is not None else float("nan"),
                r.peak_miss_ratio,
                r.steady_state_miss_ratio,
                r.tracking_error_degradation,
            ]
        )
    table = format_table(
        "Resilience — canonical fault suite on fig13 (spike + dropout + CPU loss)",
        [
            "scheme",
            "recovered",
            "t-recover (s)",
            "peak miss",
            "steady miss",
            "tracking cost",
        ],
        rows,
    )
    lines = ["", "Recovery claims:"]
    lines.append(
        "  HCPerf recovers no slower than EDF : "
        + ("yes" if result.hcperf_no_slower() else "NO")
    )
    lines.append(
        "  HCPerf degrades less under fault   : "
        + ("yes" if result.hcperf_degrades_less() else "NO")
    )
    lines.append("")
    lines.append("Recovery curves (windowed miss ratio; faults hit 20..65 s):")
    for scheme in SCHEMES:
        r = result.reports[scheme]
        curve = sparkline([ratio for _, ratio in r.miss_ratio_series])
        lines.append(f"  {scheme:8s} {curve}")
        lines.append(
            f"  {'':8s} overload-duty={r.overload_duty_cycle:.3f} "
            f"gain-resets={r.rate_adapter_resets} "
            f"fault-events={len(r.fault_events)}"
        )
    return table + "\n" + "\n".join(lines)


def main(seed: int = 0) -> str:  # pragma: no cover - CLI glue
    out = render(run(seed=seed))
    print(out)
    return out
