"""Workloads: the paper's task-graph profiles (Figs. 2 and 11) and the
scenario scripts behind each experiment, with their scene-complexity
timelines."""

from .profiles import (
    CONTROL_TASK,
    FUSION_TASK,
    default_fusion_model,
    effective_rates,
    estimated_utilization,
    full_task_graph,
    heterogeneous_task_graph,
    motivation_graph,
    scene_coupled_fusion_model,
)
from .validation import PlatformReport, TaskCheck, render_report, validate_platform
from .scenarios import (
    SCENARIOS,
    Scenario,
    fig13_car_following,
    hardware_car_following,
    lane_keeping_loop,
    motivation_red_light,
    ramp_timeline,
    spike_timeline,
    traffic_jam_responsiveness,
)

__all__ = [
    "PlatformReport",
    "TaskCheck",
    "render_report",
    "validate_platform",
    "effective_rates",
    "estimated_utilization",
    "CONTROL_TASK",
    "FUSION_TASK",
    "default_fusion_model",
    "full_task_graph",
    "heterogeneous_task_graph",
    "motivation_graph",
    "scene_coupled_fusion_model",
    "SCENARIOS",
    "Scenario",
    "fig13_car_following",
    "hardware_car_following",
    "lane_keeping_loop",
    "motivation_red_light",
    "ramp_timeline",
    "spike_timeline",
    "traffic_jam_responsiveness",
]
