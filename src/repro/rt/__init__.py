"""Real-time substrate: task model, DAG graph, execution-time models and the
discrete-event multiprocessor executor.

This package is the reproduction's stand-in for the paper's Apollo-based
Auto-Driving Simulator (Fig. 9).
"""

from .events import EventHeap, EventKind
from .exectime import (
    ConstantExecTime,
    ExecContext,
    ExecTimeObserver,
    ExecutionTimeModel,
    ScaledExecTime,
    SceneCubicExecTime,
    StepExecTime,
    TraceExecTime,
    TruncatedNormalExecTime,
    UniformExecTime,
)
from .executor import RTExecutor, SimConfig
from .resources import ProcessorProfile, UnitSpec
from .view import ProcessorState
from .metrics import MetricsRecorder, TaskStats, WindowSample
from .queue import ReadyQueue
from .task import ACTIVATION_MODES, Criticality, Job, JobState, TaskKind, TaskSpec
from .taskgraph import GraphError, TaskGraph
from .timeutil import TIME_EPS, is_zero_time, times_close

__all__ = [
    "EventHeap",
    "EventKind",
    "ExecContext",
    "ExecutionTimeModel",
    "ConstantExecTime",
    "UniformExecTime",
    "TruncatedNormalExecTime",
    "SceneCubicExecTime",
    "StepExecTime",
    "ScaledExecTime",
    "TraceExecTime",
    "ExecTimeObserver",
    "ProcessorState",
    "ProcessorProfile",
    "UnitSpec",
    "ACTIVATION_MODES",
    "RTExecutor",
    "SimConfig",
    "MetricsRecorder",
    "TaskStats",
    "WindowSample",
    "ReadyQueue",
    "Criticality",
    "Job",
    "JobState",
    "TaskKind",
    "TaskSpec",
    "GraphError",
    "TaskGraph",
    "TIME_EPS",
    "times_close",
    "is_zero_time",
]
