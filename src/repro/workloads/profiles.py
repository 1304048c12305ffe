"""Task-graph profiles — the paper's Fig. 2 and Fig. 11 workloads.

Fig. 11 is a 23-task sensing→perception→prediction→planning→control graph
with a ``[priority, execution-time]`` pair per task, measured by running
Apollo on an Nvidia Jetson TX2.  The exact per-task numbers are read off the
figure only approximately, so this module encodes a faithful *shape*: an
Apollo-style 23-task pipeline whose priorities follow the paper's convention
(control = highest priority = smallest number, sensing = lowest) and whose
execution-time ranges are calibrated to TX2-class measurements from the
paper's references [24], [26].

The configurable sensor fusion task takes a pluggable execution-time model:
experiments substitute the Fig. 13 step model (20 ms → 40 ms) or the
scene-coupled cubic model as their scenario requires.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..rt.exectime import (
    ExecutionTimeModel,
    SceneCubicExecTime,
    UniformExecTime,
)
from ..rt.task import Criticality, TaskSpec
from ..rt.taskgraph import TaskGraph

__all__ = [
    "FUSION_TASK",
    "CONTROL_TASK",
    "motivation_graph",
    "full_task_graph",
    "heterogeneous_task_graph",
    "default_fusion_model",
    "scene_coupled_fusion_model",
    "effective_rates",
    "estimated_utilization",
]

#: Canonical name of the configurable sensor fusion task in both graphs.
FUSION_TASK = "sensor_fusion"

#: Canonical name of the sink control task in both graphs.
CONTROL_TASK = "control_command"


def default_fusion_model(nominal: float = 0.020) -> ExecutionTimeModel:
    """Fusion at its normal-scene cost (paper: 20 ms)."""
    return UniformExecTime(0.9 * nominal, 1.1 * nominal)


def scene_coupled_fusion_model(
    base: float = 0.008, coeff: float = 2.0e-6, jitter: float = 0.05
) -> SceneCubicExecTime:
    """Fusion cost coupled to the obstacle count: ``base + coeff·n³``.

    With the defaults, 10 obstacles cost ~10 ms, 20 cost ~24 ms, 30 cost
    ~62 ms — matching the §II observation that fusion time grows from
    comfortable to deadline-breaking as the scene gets complex.
    """
    return SceneCubicExecTime(base=base, coeff=coeff, jitter=jitter, max_value=0.25)


# ---------------------------------------------------------------------------
# Fig. 2 — motivation graph
# ---------------------------------------------------------------------------

def motivation_graph(
    fusion_model: Optional[ExecutionTimeModel] = None,
    source_rate: float = 10.0,
    rate_range: Tuple[float, float] = (5.0, 20.0),
) -> TaskGraph:
    """The small §II task set: pre-processing, traffic-light detection,
    configurable sensor fusion, tracking, prediction, planning, control.

    Priorities follow the paper's Fig. 2 convention: Control has the highest
    priority (smallest number); sensing the lowest.
    """
    fusion = fusion_model or scene_coupled_fusion_model()
    g = TaskGraph()
    # name, priority, D (s), model, is_source
    rows = [
        ("image_preprocessing", 7, 0.080, UniformExecTime(0.006, 0.010), True),
        ("traffic_light_detection", 6, 0.100, UniformExecTime(0.010, 0.016), False),
        ("object_detection", 5, 0.100, UniformExecTime(0.014, 0.022), False),
        (FUSION_TASK, 4, 0.150, fusion, False),
        ("object_tracking", 3, 0.080, UniformExecTime(0.006, 0.010), False),
        ("prediction", 2, 0.080, UniformExecTime(0.008, 0.012), False),
        (CONTROL_TASK, 1, 0.060, UniformExecTime(0.003, 0.005), False),
    ]
    for name, priority, deadline, model, is_source in rows:
        g.add_task(
            TaskSpec(
                name=name,
                priority=priority,
                relative_deadline=deadline,
                exec_model=model,
                rate=source_rate if is_source else None,
                rate_range=rate_range if is_source else None,
                criticality=(
                    Criticality.HIGH if priority <= 2 else Criticality.LOW
                ),
            )
        )
    g.add_edge("image_preprocessing", "traffic_light_detection")
    g.add_edge("image_preprocessing", "object_detection")
    g.add_edge("object_detection", FUSION_TASK)
    g.add_edge(FUSION_TASK, "object_tracking")
    g.add_edge("object_tracking", "prediction")
    g.add_edge("traffic_light_detection", "prediction")
    g.add_edge("prediction", CONTROL_TASK)
    g.validate()
    return g


# ---------------------------------------------------------------------------
# Fig. 11 — the 23-task evaluation graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Row:
    name: str
    priority: int
    deadline: float
    lo: float  # exec-time range (s)
    hi: float
    rate: Optional[float] = None
    rate_range: Optional[Tuple[float, float]] = None
    criticality: Criticality = Criticality.LOW
    uses_gpu: bool = False


#: The 23 tasks.  Sources carry the paper's configurable rates — the GPS/IMU
#: allowable range [10, 100] Hz is quoted verbatim in §III-A.
#:
#: The profile is calibrated so that configurable sensor fusion dominates
#: the CPU demand (it fires at the 40 Hz fused-sensor rate): on the default
#: 2-processor platform the graph sits near 0.85 utilization at fusion's
#: normal 20 ms cost and reaches ~1.25 when the Fig. 13 window doubles it to
#: 40 ms — "at first all the schemes can meet the task deadlines due to the
#: very low system load; at t = 10 s the baseline schemes start to generate
#: deadline misses" (§VII-B1).  The non-fusion stages are light (0.5–2.5 ms)
#: because the heavy lifting of detection happens on the GPU; only the CPU
#: data-fetching side is scheduled here (the paper's §VI note).
_FIG11_ROWS: List[_Row] = [
    # -- sensing sources ----------------------------------------------------
    # Sensor drivers run at high priority (interrupt-driven acquisition must
    # not lose frames), as in production Apollo deployments.
    _Row("camera_front", 2, 0.050, 0.00075, 0.00125, rate=40.0, rate_range=(20.0, 60.0)),
    _Row("camera_traffic", 2, 0.050, 0.00075, 0.00125, rate=40.0, rate_range=(20.0, 60.0)),
    _Row("lidar_pointcloud", 2, 0.050, 0.00075, 0.00125, rate=40.0, rate_range=(20.0, 60.0)),
    _Row("radar_front", 2, 0.050, 0.0005, 0.001, rate=40.0, rate_range=(20.0, 60.0)),
    _Row("gps_imu", 2, 0.050, 0.0005, 0.001, rate=50.0, rate_range=(10.0, 100.0)),
    _Row("chassis_feedback", 2, 0.050, 0.0005, 0.001, rate=50.0, rate_range=(10.0, 100.0)),
    # -- perception ---------------------------------------------------------
    # Priorities reflect an Apollo-style static config: control, planning
    # and localization are "important" (small p); the perception pipeline —
    # including the heavy configurable fusion — sits at the bottom with the
    # sensor drivers.  Under HPF this is exactly the paper's failure mode:
    # "HPF allocates more computing resources to the pre-defined important
    # tasks; thus the other tasks usually miss their deadlines and the
    # control commands cannot be effectively generated."  HCPerf's
    # scheduling-deadline term rescues the starved-but-urgent fusion.
    _Row("image_preprocessing", 4, 0.050, 0.00075, 0.00125),
    _Row("traffic_image_preproc", 4, 0.050, 0.0005, 0.001),
    _Row("pointcloud_preprocessing", 4, 0.050, 0.00075, 0.00125),
    _Row("lane_detection", 5, 0.060, 0.0005, 0.001),
    _Row("traffic_light_detection", 3, 0.060, 0.0005, 0.001),
    _Row("camera_object_detection", 6, 0.060, 0.00075, 0.00125, uses_gpu=True),
    _Row("lidar_object_detection", 6, 0.060, 0.00075, 0.00125, uses_gpu=True),
    _Row("radar_processing", 6, 0.050, 0.0005, 0.001),
    _Row("localization", 2, 0.050, 0.0005, 0.001, criticality=Criticality.HIGH),
    # Fusion's deadline leaves ~60 ms of queueing slack at its normal 20 ms
    # cost but only ~40 ms at the elevated 40 ms cost — once a backlog of
    # two or three 40 ms jobs forms, cycles start dying, exactly the §II
    # mechanism ("if the computation of the configurable sensor fusion
    # cannot be completed within the deadline, the fusion results of this
    # control cycle are discarded").
    _Row(FUSION_TASK, 8, 0.080, 0.018, 0.022),  # model replaced by scenarios
    _Row("object_tracking", 4, 0.050, 0.0005, 0.001),
    # -- prediction / planning ---------------------------------------------
    _Row("prediction", 3, 0.050, 0.0005, 0.001, criticality=Criticality.HIGH),
    _Row("behavior_decision", 3, 0.060, 0.0005, 0.001, criticality=Criticality.HIGH),
    _Row("motion_planning", 2, 0.060, 0.001, 0.002, criticality=Criticality.HIGH),
    # -- control ------------------------------------------------------------
    _Row("lateral_control", 1, 0.050, 0.0005, 0.001, criticality=Criticality.HIGH),
    _Row("longitudinal_control", 1, 0.050, 0.0005, 0.001, criticality=Criticality.HIGH),
    _Row(CONTROL_TASK, 1, 0.050, 0.0005, 0.001, criticality=Criticality.HIGH),
]

_FIG11_EDGES: List[Tuple[str, str]] = [
    ("camera_front", "image_preprocessing"),
    ("camera_traffic", "traffic_image_preproc"),
    ("lidar_pointcloud", "pointcloud_preprocessing"),
    ("image_preprocessing", "lane_detection"),
    ("image_preprocessing", "camera_object_detection"),
    ("traffic_image_preproc", "traffic_light_detection"),
    ("pointcloud_preprocessing", "lidar_object_detection"),
    ("pointcloud_preprocessing", "localization"),
    ("gps_imu", "localization"),
    ("radar_front", "radar_processing"),
    ("camera_object_detection", FUSION_TASK),
    ("lidar_object_detection", FUSION_TASK),
    ("radar_processing", FUSION_TASK),
    (FUSION_TASK, "object_tracking"),
    ("object_tracking", "prediction"),
    ("localization", "prediction"),
    ("prediction", "behavior_decision"),
    ("traffic_light_detection", "behavior_decision"),
    ("lane_detection", "behavior_decision"),
    ("behavior_decision", "motion_planning"),
    ("localization", "motion_planning"),
    ("motion_planning", "lateral_control"),
    ("motion_planning", "longitudinal_control"),
    ("chassis_feedback", "lateral_control"),
    ("chassis_feedback", "longitudinal_control"),
    ("lateral_control", CONTROL_TASK),
    ("longitudinal_control", CONTROL_TASK),
]


def effective_rates(
    graph: TaskGraph, rates: Optional[Dict[str, float]] = None
) -> Dict[str, float]:
    """Steady-state firing rate of every task under AND-activation.

    A non-source task fires once every immediate predecessor has delivered a
    fresh output, so its rate is the minimum over its predecessors' rates —
    i.e. the minimum over the rates of its source ancestors.  ``rates``
    overrides the graph's configured source rates (e.g. after adaptation).
    """
    out: Dict[str, float] = {}
    for spec in graph.topological_order():
        if spec.rate is not None:
            out[spec.name] = rates.get(spec.name, spec.rate) if rates else spec.rate
        else:
            preds = graph.ipred(spec.name)
            out[spec.name] = min(out[p.name] for p in preds)
    return out


def estimated_utilization(
    graph: TaskGraph,
    n_processors: int,
    rates: Optional[Dict[str, float]] = None,
    scene_complexity: float = 0.0,
    at_time: float = 0.0,
) -> float:
    """Mean CPU demand of the graph divided by platform capacity.

    Uses each task's mean execution time under the given context and the
    AND-activation effective rates.  This is the planning-level estimate
    behind the profile calibration and Apollo's binding heuristic — actual
    utilization differs through miss-induced cycle loss.
    """
    from ..rt.exectime import ExecContext

    if n_processors < 1:
        raise ValueError("n_processors must be >= 1")
    ctx = ExecContext(now=at_time, scene_complexity=scene_complexity)
    eff = effective_rates(graph, rates)
    demand = sum(spec.exec_model.mean(ctx) * eff[spec.name] for spec in graph)
    return demand / n_processors


def full_task_graph(
    fusion_model: Optional[ExecutionTimeModel] = None,
) -> TaskGraph:
    """The 23-task Fig. 11 evaluation graph.

    ``fusion_model`` overrides the configurable sensor fusion's
    execution-time model (scenarios plug in the Fig. 13 step model or the
    scene-coupled cubic).
    """
    g = TaskGraph()
    for row in _FIG11_ROWS:
        if row.name == FUSION_TASK and fusion_model is not None:
            model: ExecutionTimeModel = fusion_model
        else:
            model = UniformExecTime(row.lo, row.hi)
        g.add_task(
            TaskSpec(
                name=row.name,
                priority=row.priority,
                relative_deadline=row.deadline,
                exec_model=model,
                rate=row.rate,
                rate_range=row.rate_range,
                criticality=row.criticality,
                uses_gpu=row.uses_gpu,
            )
        )
    for src, dst in _FIG11_EDGES:
        g.add_edge(src, dst)
    g.validate()
    assert len(g) == 23, f"Fig. 11 graph must have 23 tasks, got {len(g)}"
    return g


def heterogeneous_task_graph(
    fusion_model: Optional[ExecutionTimeModel] = None,
    gpu_speedup: float = 3.0,
) -> TaskGraph:
    """The Fig. 11 graph with its GPU stages typed for a CPU+GPU platform.

    The two ``uses_gpu`` detectors (camera/lidar object detection) become
    GPU-affine — they may only run on ``GPU`` units, where they execute
    ``gpu_speedup``× faster than their calibrated CPU-side cost.  Every
    other task is pinned to the ``CPU`` class, modelling the §VI platform
    note: the accelerator runs inference kernels, the CPU cluster runs the
    rest of the pipeline.  Pair with a typed
    :class:`~repro.rt.resources.ProcessorProfile` such as ``"2xCPU+1xGPU"``;
    on a homogeneous all-CPU profile the GPU-affine tasks would starve
    (``TaskGraph.validate`` does not check platform compatibility — the
    executor simply never dispatches them).
    """
    if gpu_speedup <= 0:
        raise ValueError("gpu_speedup must be positive")
    g = full_task_graph(fusion_model=fusion_model)
    for spec in g:
        if spec.uses_gpu:
            spec.affinity = frozenset({"GPU"})
            spec.speedup = {"GPU": float(gpu_speedup)}
        else:
            spec.affinity = frozenset({"CPU"})
    return g
