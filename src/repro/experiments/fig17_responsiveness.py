"""E7 — Figs. 16/17: how HCPerf prioritizes responsiveness vs throughput.

Both cars cruise at 20 m/s; at t = 10 s the lead decelerates into a traffic
jam and the obstacle count spikes, inflating fusion cost.  The paper's
Fig. 17 tracks three HCPerf-internal quantities through the three phases
(before / during / after the jam):

* the tracking error spikes when the jam hits and is then mitigated;
* the control-command response time *drops* during the jam (resources are
  reallocated to control — responsiveness), at the price of throughput;
* passenger discomfort rises during the jam and falls after it clears,
  when HCPerf reverts to throughput-priority.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..analysis.discomfort import discomfort
from ..analysis.report import format_table
from ..analysis.stats import clip_series, mean, rms_series
from ..workloads.scenarios import traffic_jam_responsiveness
from .runner import RunResult, run_scenario

__all__ = ["EXPERIMENT_ID", "PHASES", "PhaseStats", "Fig17Result", "run", "render", "main"]

EXPERIMENT_ID = "fig17_responsiveness"

#: (label, t_start, t_end) — the three phases of the §VII-C narrative.
PHASES: Tuple[Tuple[str, float, float], ...] = (
    ("before (cruise)", 0.0, 10.0),
    ("during (jam)", 10.0, 20.0),
    ("after (clear)", 20.0, 40.0),
)


@dataclass
class PhaseStats:
    """HCPerf behaviour within one phase."""

    label: str
    tracking_rms: float
    peak_error: float
    response_time_ms: float
    throughput: float
    discomfort: float
    mean_gamma: float


@dataclass
class Fig17Result:
    result: RunResult
    phases: List[PhaseStats]

    def phase(self, label_prefix: str) -> PhaseStats:
        for p in self.phases:
            if p.label.startswith(label_prefix):
                return p
        raise KeyError(label_prefix)

    def responsive_during_jam(self) -> bool:
        """Fig. 17(b): control stays responsive through the jam.

        Even with the fusion load spiking, the γ-prioritized control task's
        response time must stay within a few milliseconds — the load crisis
        is not allowed to reach the control path.
        """
        return self.phase("during").response_time_ms < 5.0

    def gamma_raised_during_jam(self) -> bool:
        """The internal coordinator visibly tilts toward priority mode."""
        return self.phase("during").mean_gamma > self.phase("before").mean_gamma

    def error_mitigated(self) -> bool:
        """Fig. 17(a): the error spike is mitigated after the jam clears."""
        return self.phase("after").tracking_rms < self.phase("during").peak_error


def _phase_stats(result: RunResult, label: str, t0: float, t1: float) -> PhaseStats:
    plant = result.plant
    err = clip_series(plant.speed_error_series(), t0, t1)
    accel = clip_series(plant.accel_series(), t0, t1)
    responses = [r for (t, r) in result.metrics.control_events if t0 <= t < t1]
    n_cmds = len(responses)
    gammas = [g for (t, g) in result.gamma_history if t0 <= t < t1]
    return PhaseStats(
        label=label,
        tracking_rms=rms_series(err),
        peak_error=max((abs(v) for _, v in err), default=0.0),
        response_time_ms=mean(responses) * 1000.0,
        throughput=n_cmds / (t1 - t0),
        discomfort=discomfort(accel).score,
        mean_gamma=mean(gammas),
    )


def run(seed: int = 0, horizon: float = 40.0) -> Fig17Result:
    """Run HCPerf through the jam and summarize each of :data:`PHASES`.

    Raises ``ValueError`` if ``horizon`` ends before the last phase does: a
    phase with no samples would read as 0 ms response and 0 commands/s.
    """
    if not horizon >= PHASES[-1][2]:
        raise ValueError(f"horizon must cover every phase (>= {PHASES[-1][2]} s), got {horizon}")
    scenario = traffic_jam_responsiveness(horizon=horizon)
    result = run_scenario(scenario, "HCPerf", seed=seed)
    phases = [_phase_stats(result, *phase) for phase in PHASES]
    return Fig17Result(result=result, phases=phases)


def render(result: Fig17Result) -> str:
    rows = [
        [
            p.label,
            p.tracking_rms,
            p.peak_error,
            p.response_time_ms,
            p.throughput,
            p.discomfort,
            p.mean_gamma,
        ]
        for p in result.phases
    ]
    return format_table(
        "Fig. 17 — HCPerf responsiveness/throughput trade through the jam",
        [
            "phase",
            "err RMS (m/s)",
            "peak err",
            "ctl response (ms)",
            "cmds/s",
            "discomfort",
            "mean γ",
        ],
        rows,
    )


def main(seed: int = 0) -> str:  # pragma: no cover - CLI glue
    out = render(run(seed=seed))
    print(out)
    return out
