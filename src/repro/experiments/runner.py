"""Generic experiment runner: co-simulates a scenario under one scheduler.

Wiring (paper Fig. 9): the executor simulates the task system; a periodic
hook steps the vehicle plant at ``plant_dt`` (and feeds the tracking error to
HCPerf's Performance Directed Controller); completion of the sink control
task triggers the control hook, which evaluates the plant's control law on
the state snapshot of the job's *sense time* and latches the command.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..analysis.discomfort import DiscomfortReport, discomfort
from ..analysis.stats import rms, rms_series
from ..rt.executor import RTExecutor
from ..rt.metrics import MetricsRecorder
from ..schedulers import Scheduler, make_scheduler
from ..schedulers.hcperf import HCPerfScheduler
from ..vehicle.car_following import CarFollowingPlant
from ..vehicle.lane_keeping import LaneKeepingPlant
from ..workloads.scenarios import Scenario

__all__ = ["RunResult", "run_scenario", "compare_schedulers", "DEFAULT_SCHEMES"]

#: The five schemes of the paper's evaluation tables, in table order.
DEFAULT_SCHEMES = ("HPF", "EDF", "EDF-VD", "Apollo", "HCPerf")


@dataclass
class RunResult:
    """Everything one (scenario, scheduler, seed) run produced."""

    scenario: str
    scheduler: str
    seed: int
    metrics: MetricsRecorder
    plant: Union[CarFollowingPlant, LaneKeepingPlant]
    utilization: float
    final_rates: Dict[str, float]
    horizon: float
    gamma_history: List[Tuple[float, float]] = field(default_factory=list)
    #: Fraction of γ-resolutions where Eq. (11) was infeasible (HCPerf only).
    overload_duty_cycle: float = 0.0
    #: §V gain resets the Task Rate Adapter performed (HCPerf only).
    rate_adapter_resets: int = 0

    # ------------------------------------------------------------------
    # Derived paper metrics
    # ------------------------------------------------------------------
    def speed_error_rms(self) -> float:
        """RMS speed tracking error (Tables II and V)."""
        if not isinstance(self.plant, CarFollowingPlant):
            raise TypeError("speed error is a car-following metric")
        return rms_series(self.plant.speed_error_series())

    def distance_error_rms(self) -> float:
        """RMS distance tracking error (Tables III and VI)."""
        if not isinstance(self.plant, CarFollowingPlant):
            raise TypeError("distance error is a car-following metric")
        return rms_series(self.plant.distance_error_series())

    def lateral_offset_rms(self) -> float:
        """RMS lateral offset (Table IV)."""
        if not isinstance(self.plant, LaneKeepingPlant):
            raise TypeError("lateral offset is a lane-keeping metric")
        return rms_series(self.plant.offset_series())

    def miss_ratio_series(self) -> List[Tuple[float, float]]:
        """Per-window deadline miss ratio (Figs. 13(d), 15(d), 18(b))."""
        return self.metrics.miss_ratio_series()

    def overall_miss_ratio(self) -> float:
        return self.metrics.overall_miss_ratio

    def control_response_mean(self) -> float:
        """Mean control-command response time (Fig. 17(b))."""
        return self.metrics.mean_control_response()

    def control_throughput(self) -> float:
        """Control commands per second over the run."""
        return self.metrics.control_throughput(self.horizon)

    def discomfort_report(self) -> DiscomfortReport:
        """Jerk-based passenger discomfort (Fig. 17(b))."""
        if not isinstance(self.plant, CarFollowingPlant):
            raise TypeError("discomfort is computed from the longitudinal plant")
        return discomfort(self.plant.accel_series())

    def collided(self) -> bool:
        """Whether the follower hit the lead vehicle (motivation, Fig. 4(b))."""
        return isinstance(self.plant, CarFollowingPlant) and self.plant.collided

    def latency_report(self, t_min=None, t_max=None):
        """Sensing→actuation latency distribution of the applied commands."""
        from ..analysis.latency import latency_report

        return latency_report(self.plant.commands, t_min=t_min, t_max=t_max)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable summary of the run (for export/regression)."""
        summary: Dict[str, object] = {
            "scenario": self.scenario,
            "scheduler": self.scheduler,
            "seed": self.seed,
            "horizon": self.horizon,
            "utilization": self.utilization,
            "final_rates": dict(self.final_rates),
            "overall_miss_ratio": self.overall_miss_ratio(),
            "control_throughput": self.control_throughput(),
            "control_response_mean": self.control_response_mean(),
            "miss_ratio_series": self.miss_ratio_series(),
        }
        if isinstance(self.plant, CarFollowingPlant):
            summary["speed_error_rms"] = self.speed_error_rms()
            summary["distance_error_rms"] = self.distance_error_rms()
            summary["collided"] = self.collided()
        else:
            summary["lateral_offset_rms"] = self.lateral_offset_rms()
            summary["departed"] = bool(self.plant.departed)
        if self.gamma_history:
            summary["mean_gamma"] = sum(g for _, g in self.gamma_history) / len(
                self.gamma_history
            )
            summary["overload_duty_cycle"] = self.overload_duty_cycle
            summary["rate_adapter_resets"] = self.rate_adapter_resets
        return summary

    def save(self, path) -> None:
        """Write :meth:`to_dict` as JSON to ``path``."""
        import json
        from pathlib import Path

        Path(path).write_text(json.dumps(self.to_dict(), indent=2))


def _resolve(scheduler: Union[str, Scheduler]) -> Scheduler:
    if isinstance(scheduler, Scheduler):
        return scheduler
    return make_scheduler(scheduler)


def run_scenario(
    scenario: Scenario,
    scheduler: Union[str, Scheduler],
    seed: int = 0,
    stop_on_collision: bool = False,
    recorder=None,
    before_run: Optional[Callable[[RTExecutor], None]] = None,
) -> RunResult:
    """Run ``scenario`` under ``scheduler`` and collect all paper metrics.

    ``stop_on_collision`` ends the simulation at the collision instant (the
    motivation experiment does; the evaluation experiments run to horizon).
    ``recorder`` (a :class:`~repro.obs.recorder.Recorder`) captures the full
    structured event stream of the run (spans, γ resolutions, windows, …)
    for export and trace-invariant checking; ``None`` keeps the
    uninstrumented code path.
    ``before_run`` receives the fully wired executor just before the run
    starts — the seam the fault-injection harness attaches through.
    """
    sched = _resolve(scheduler)
    graph = scenario.graph_factory()
    config = dataclasses.replace(scenario.sim, seed=seed)
    plant = scenario.plant_factory(seed)

    # The control law sees the world through the pipeline: the lead-vehicle
    # measurements carry the control job's *sense time* (the oldest sensor
    # sample that flowed into this cycle), while the ego state is current.
    # Pipeline latency and missed fusion cycles therefore surface as stale
    # perception — "the vehicle cannot update its speed in a timely manner"
    # (§II) — and the control task's queue wait adds on top, which is the
    # paper's responsiveness metric.
    executor = RTExecutor(
        graph,
        sched,
        config,
        complexity=scenario.complexity,
        on_control=lambda job, now: plant.apply_command(
            plant.compute_command(job.sense_time, now)
        ),
    )

    is_hcperf = isinstance(sched, HCPerfScheduler)

    if recorder is not None:
        executor.recorder = recorder
        recorder.annotate(scenario=scenario.name, scheduler=sched.name, seed=seed)
        if is_hcperf:
            # Lets OBS005 check γ against the configured cap, not just the
            # per-resolution γ_max.
            recorder.annotate(gamma_cap=sched.coordinator.config.priority.gamma_cap)

    def plant_tick(t: float) -> None:
        plant.step(t)
        if is_hcperf:
            # The coordinated quantity is the *magnitude* of the performance
            # deviation (Eq. 1a minimizes |R(k) − P(k)|): a large error of
            # either sign calls for responsive control.
            sched.report_performance(t, abs(plant.tracking_error()))
        if (
            stop_on_collision
            and isinstance(plant, CarFollowingPlant)
            and plant.collided
        ):
            executor.stop("collision")

    executor.add_periodic("plant", scenario.plant_dt, plant_tick)
    if before_run is not None:
        before_run(executor)
    metrics = executor.run()
    # Bring the plant trace up to the simulation end (the last plant tick
    # may precede the horizon by up to one dt).
    if plant.now < executor.now:
        plant.step(executor.now)

    return RunResult(
        scenario=scenario.name,
        scheduler=sched.name,
        seed=seed,
        metrics=metrics,
        plant=plant,
        utilization=executor.utilization(),
        final_rates=executor.rates(),
        horizon=executor.now,
        gamma_history=sched.coordinator.gamma_history if is_hcperf else [],
        overload_duty_cycle=(
            sched.coordinator.overload_windows
            / max(1, len(sched.coordinator.gamma_history))
            if is_hcperf
            else 0.0
        ),
        rate_adapter_resets=(
            sched.coordinator.rate_adapter.resets if is_hcperf else 0
        ),
    )


def compare_schedulers(
    scenario_factory,
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    seed: int = 0,
    **run_kwargs,
) -> Dict[str, RunResult]:
    """Run one scenario under several schemes with identical seeds.

    ``scenario_factory`` is called once per scheme so every run gets fresh
    graph/plant state; the shared seed keeps execution-time draws and noise
    streams identical across schemes — the comparison the paper's tables
    make.
    """
    results: Dict[str, RunResult] = {}
    for scheme in schemes:
        scenario = scenario_factory()
        results[scheme] = run_scenario(scenario, scheme, seed=seed, **run_kwargs)
    return results
