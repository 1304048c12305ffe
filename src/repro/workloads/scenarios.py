"""Scenario scripts — one per paper experiment.

A :class:`Scenario` bundles everything a run needs: the task graph (with the
scenario's fusion execution-time model plugged in), the scene-complexity
timeline, the vehicle plant factory and the platform configuration.  The
experiment runner is generic over scenarios; each paper experiment is one of
the factory functions below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from ..rt.exectime import StepExecTime, UniformExecTime
from ..rt.executor import SimConfig
from ..rt.taskgraph import TaskGraph
from ..vehicle.car_following import CarFollowingPlant
from ..vehicle.lane_keeping import LaneKeepingPlant
from ..vehicle.lateral import BicycleDynamics
from ..vehicle.longitudinal import ACCController, LongitudinalDynamics
from ..vehicle.noise import GaussianNoise
from ..vehicle.profiles import (
    SineSpeed,
    hardware_routine,
    red_light_routine,
    traffic_jam_routine,
)
from ..vehicle.track import OvalTrack
from .profiles import (
    default_fusion_model,
    full_task_graph,
    motivation_graph,
    scene_coupled_fusion_model,
)

__all__ = [
    "Scenario",
    "fig13_car_following",
    "motivation_red_light",
    "hardware_car_following",
    "traffic_jam_responsiveness",
    "lane_keeping_loop",
    "ramp_timeline",
    "spike_timeline",
    "SCENARIOS",
]


@dataclass
class Scenario:
    """A complete experiment setup.

    Attributes
    ----------
    name:
        Scenario identifier.
    kind:
        ``"car_following"`` or ``"lane_keeping"`` — selects the runner's
        plant wiring.
    graph_factory:
        Builds the task graph for a run.  Schedulers never write to it
        (placement is their own state), but fault injection wraps execution
        models on the run's graph, so each run gets a fresh one.
    plant_factory:
        Builds a fresh vehicle plant per run; takes the run seed so noisy
        plants differ across seeds but not across schedulers.
    complexity:
        Scene-complexity timeline ``n(t)`` driving scene-coupled execution
        times.
    sim:
        Platform configuration template (the runner copies it per run).
    plant_dt:
        Plant integration step (s).
    description:
        Human-readable summary used in reports.
    """

    name: str
    kind: str
    graph_factory: Callable[[], TaskGraph]
    plant_factory: Callable[[int], object]
    complexity: Callable[[float], float] = lambda t: 0.0
    sim: SimConfig = field(default_factory=SimConfig)
    plant_dt: float = 0.01
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("car_following", "lane_keeping"):
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if self.plant_dt <= 0:
            raise ValueError("plant_dt must be positive")


# ---------------------------------------------------------------------------
# Fig. 13 / Tables II–III — simulated car following
# ---------------------------------------------------------------------------

def fig13_car_following(horizon: float = 90.0) -> Scenario:
    """Car following with the sine lead and the 20→40 ms fusion step.

    Paper setup (§VII-B1): lead speed is a sine with period 7 s bounded in
    [10, 20] m/s; at t = 10 s the configurable sensor fusion's execution
    time rises from 20 ms to 40 ms (complex scene) and recovers at t = 80 s.
    """
    fusion = StepExecTime(
        normal=default_fusion_model(0.020),
        elevated=default_fusion_model(0.040),
        t_on=10.0,
        t_off=80.0,
    )

    def plant(seed: int) -> CarFollowingPlant:
        # The sine lead needs ~4.5 m/s² peak acceleration (amplitude 5 m/s,
        # period 7 s); the follower must have headroom above that or no
        # scheduler can track.
        return CarFollowingPlant(
            lead_profile=SineSpeed(lo=10.0, hi=20.0, period=7.0),
            controller=ACCController(k_speed=10.0, k_gap=0.5),
            dynamics=LongitudinalDynamics(max_accel=6.0, max_brake=8.0),
            initial_gap=30.0,
        )

    return Scenario(
        name="fig13_car_following",
        kind="car_following",
        graph_factory=lambda: full_task_graph(fusion_model=StepExecTime(
            normal=default_fusion_model(0.020),
            elevated=default_fusion_model(0.040),
            t_on=10.0,
            t_off=80.0,
        )),
        plant_factory=plant,
        sim=SimConfig(n_processors=2, horizon=horizon, coordination_period=0.5),
        description=(
            "Sine lead [10,20] m/s period 7 s; fusion 20→40 ms during "
            "t ∈ [10, 80) s (Fig. 13, Tables II & III)."
        ),
    )


# ---------------------------------------------------------------------------
# Scene-complexity timelines n(t): the obstacle count that drives fusion cost
# ---------------------------------------------------------------------------

def _require_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def ramp_timeline(
    n_base: float, n_peak: float, t_start: float, t_ramp: float
) -> Callable[[float], float]:
    """Complexity ramp: ``n_base`` until ``t_start``, linear rise to
    ``n_peak`` over ``t_ramp`` seconds, then hold — the §II red-light queue
    building up."""
    _require_finite(n_base=n_base, n_peak=n_peak, t_start=t_start)
    if not (math.isfinite(t_ramp) and t_ramp > 0):
        raise ValueError(f"t_ramp must be positive and finite, got {t_ramp!r}")

    def fn(t: float) -> float:
        if t <= t_start:
            return n_base
        frac = min(1.0, (t - t_start) / t_ramp)
        return n_base + frac * (n_peak - n_base)

    return fn


def spike_timeline(
    n_base: float, n_peak: float, t_on: float, t_off: float
) -> Callable[[float], float]:
    """Rectangular complexity spike during ``[t_on, t_off)`` — the §VII-C
    traffic jam window."""
    _require_finite(n_base=n_base, n_peak=n_peak, t_on=t_on, t_off=t_off)
    if t_off < t_on:
        raise ValueError("t_off must be >= t_on")

    def fn(t: float) -> float:
        return n_peak if t_on <= t < t_off else n_base

    return fn


# ---------------------------------------------------------------------------
# §II — motivation: red-light deceleration with a growing obstacle queue
# ---------------------------------------------------------------------------

def motivation_red_light(horizon: float = 30.0) -> Scenario:
    """Both cars at 10 m/s; lead brakes for a red light at t = 5 s while the
    obstacle count ramps up (queue at the intersection), blowing up the
    fusion time (§II, Fig. 4)."""
    timeline = ramp_timeline(n_base=8.0, n_peak=34.0, t_start=5.0, t_ramp=8.0)

    def plant(seed: int) -> CarFollowingPlant:
        return CarFollowingPlant(
            lead_profile=red_light_routine(v0=10.0, t_brake=5.0, t_stop=25.0),
            controller=ACCController(k_speed=2.0, k_gap=0.4),
            dynamics=LongitudinalDynamics(),
            initial_gap=20.0,
            # No watchdog rescue in the motivation study: the paper's Fig. 4
            # shows the un-updated vehicle ploughing into the braking lead.
            command_timeout=10.0,
        )

    # The motivation runs the small Fig. 2 graph on a single processor —
    # the §II simulation of "the basic functions of an autonomous vehicle".
    # At the peak obstacle count the cubic fusion alone nearly saturates it.
    return Scenario(
        name="motivation_red_light",
        kind="car_following",
        graph_factory=lambda: motivation_graph(
            fusion_model=scene_coupled_fusion_model()
        ),
        plant_factory=plant,
        complexity=timeline,
        sim=SimConfig(n_processors=1, horizon=horizon, coordination_period=0.5),
        description=(
            "Motivation §II: lead brakes for a red light at t = 5 s; obstacle "
            "queue ramps 8→34, fusion cost grows cubically (Fig. 4)."
        ),
    )


# ---------------------------------------------------------------------------
# Fig. 15 / Tables V–VI — hardware-testbed emulation
# ---------------------------------------------------------------------------

def hardware_car_following(horizon: float = 20.0) -> Scenario:
    """1:10 scaled-car profile: accelerate 5 s, cruise 10 s, decelerate 5 s,
    with sensor noise and throttle lag (§VII-B3).

    Scale: cruise 1 m/s, cm-level gaps — producing the centimetre-RMS
    magnitudes of Tables V/VI.
    """

    def plant(seed: int) -> CarFollowingPlant:
        return CarFollowingPlant(
            lead_profile=hardware_routine(v_cruise=1.0),
            controller=ACCController(
                k_speed=3.0, k_gap=0.8, headway=0.6, standstill_gap=0.5
            ),
            dynamics=LongitudinalDynamics(
                max_accel=0.8, max_brake=1.2, actuator_lag=0.1
            ),
            initial_gap=1.5,
            speed_noise=GaussianNoise(sigma=0.01, seed=seed * 7 + 1),
            gap_noise=GaussianNoise(sigma=0.005, seed=seed * 7 + 2),
        )

    # The scaled car's Core-i3 host is slower relative to the workload than
    # the TX2: keep the full graph but run fusion mildly over capacity so
    # the baselines shed 2–6% of deadlines throughout (Fig. 15(d)).
    return Scenario(
        name="hardware_car_following",
        kind="car_following",
        graph_factory=lambda: full_task_graph(
            fusion_model=UniformExecTime(0.028, 0.040)
        ),
        plant_factory=plant,
        sim=SimConfig(n_processors=2, horizon=horizon, coordination_period=0.5),
        description=(
            "1:10 scaled-car routine (accel 5 s / cruise 10 s / decel 5 s) "
            "with sensor noise and throttle lag (Fig. 15, Tables V & VI)."
        ),
    )


# ---------------------------------------------------------------------------
# §VII-C — responsiveness vs throughput under a traffic jam
# ---------------------------------------------------------------------------

def traffic_jam_responsiveness(horizon: float = 40.0) -> Scenario:
    """Cruise at 20 m/s; lead decelerates into a jam at t = 10 s while the
    obstacle count spikes, then clears after t = 20 s (Figs. 16/17)."""
    timeline = spike_timeline(n_base=8.0, n_peak=26.0, t_on=10.0, t_off=20.0)

    def plant(seed: int) -> CarFollowingPlant:
        return CarFollowingPlant(
            lead_profile=traffic_jam_routine(),
            controller=ACCController(),
            dynamics=LongitudinalDynamics(),
            initial_gap=35.0,
        )

    return Scenario(
        name="traffic_jam_responsiveness",
        kind="car_following",
        graph_factory=lambda: full_task_graph(
            fusion_model=scene_coupled_fusion_model()
        ),
        plant_factory=plant,
        complexity=timeline,
        sim=SimConfig(n_processors=2, horizon=horizon, coordination_period=0.5),
        description=(
            "Traffic jam at t ∈ [10, 20) s: obstacle spike 8→26; report "
            "tracking error, control response time and discomfort (Fig. 17)."
        ),
    )


# ---------------------------------------------------------------------------
# Fig. 14 / Table IV — lane keeping on the oval loop
# ---------------------------------------------------------------------------

def lane_keeping_loop(horizon: float = 70.0) -> Scenario:
    """Loop driving at a fixed 5 m/s; performance = lateral offset (§VII-B2).

    The load stress comes from the same Fig. 13 fusion step placed so that
    the elevated window covers most of the lap, exposing the schemes'
    steering latency during the four turns.
    """
    track = OvalTrack(straight_length=60.0, radius=15.0)

    def plant(seed: int) -> LaneKeepingPlant:
        return LaneKeepingPlant(
            track=OvalTrack(straight_length=60.0, radius=15.0),
            speed=5.0,
            dynamics=BicycleDynamics(wheelbase=2.7, max_steering=0.6),
        )

    return Scenario(
        name="lane_keeping_loop",
        kind="lane_keeping",
        graph_factory=lambda: full_task_graph(
            fusion_model=StepExecTime(
                normal=default_fusion_model(0.020),
                elevated=default_fusion_model(0.040),
                t_on=5.0,
                t_off=65.0,
            )
        ),
        plant_factory=plant,
        sim=SimConfig(n_processors=2, horizon=horizon, coordination_period=0.5),
        description=(
            "Oval loop at 5 m/s; lateral offset is the performance metric "
            "(Fig. 14, Table IV)."
        ),
    )


#: Scenario registry for the CLI.
SCENARIOS = {
    "fig13": fig13_car_following,
    "motivation": motivation_red_light,
    "hardware": hardware_car_following,
    "traffic_jam": traffic_jam_responsiveness,
    "lane_keeping": lane_keeping_loop,
}
