"""Perception substrate — a runnable synthetic AD pipeline.

Detection → Hungarian-based configurable sensor fusion → Kalman tracking →
constant-velocity prediction → corridor planning → PID speed control.
These are the real algorithms; the simulator's execution-time models are
calibrated against them (``benchmarks/bench_fusion_profile.py``).
"""

from .control import PIDConfig, PIDController, SpeedController
from .detection import CameraDetector, Detection, LidarDetector, SensorDetector
from .fusion import ConfigurableSensorFusion, FusedObstacle, FusionConfig
from .hungarian import assignment_cost, hungarian
from .metrics import FrameMatch, TrackingEvaluator, TrackingQuality
from .pipeline import FrameResult, PerceptionPipeline
from .planning import LongitudinalPlanner, PlanningConfig, SpeedPlan
from .prediction import ConstantVelocityPredictor, PredictedTrajectory
from .scene import Obstacle, Scene, SceneGenerator, ramp_timeline, spike_timeline
from .tracking import KalmanTrack, MultiObjectTracker, TrackerConfig

__all__ = [
    "PIDConfig",
    "PIDController",
    "SpeedController",
    "CameraDetector",
    "Detection",
    "LidarDetector",
    "SensorDetector",
    "ConfigurableSensorFusion",
    "FusedObstacle",
    "FusionConfig",
    "assignment_cost",
    "hungarian",
    "FrameMatch",
    "TrackingEvaluator",
    "TrackingQuality",
    "FrameResult",
    "PerceptionPipeline",
    "LongitudinalPlanner",
    "PlanningConfig",
    "SpeedPlan",
    "ConstantVelocityPredictor",
    "PredictedTrajectory",
    "Obstacle",
    "Scene",
    "SceneGenerator",
    "ramp_timeline",
    "spike_timeline",
    "KalmanTrack",
    "MultiObjectTracker",
    "TrackerConfig",
]
