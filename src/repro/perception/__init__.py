"""Perception substrate — synthetic scenes and the real fusion algorithm.

Synthetic scenes and obstacle-count timelines (``scene``) drive the
scenario scripts. Camera/LiDAR detection and Hungarian-based configurable
sensor fusion are the real algorithms that E10 profiles to calibrate the
simulator's fusion execution-time model
(``benchmarks/bench_fusion_profile.py``). Simulations sample execution
times from those models and never call these kernels.
"""

from .detection import CameraDetector, Detection, LidarDetector, SensorDetector
from .fusion import ConfigurableSensorFusion, FusedObstacle, FusionConfig
from .hungarian import assignment_cost, hungarian
from .scene import Obstacle, Scene, SceneGenerator, ramp_timeline, spike_timeline

__all__ = [
    "CameraDetector",
    "Detection",
    "LidarDetector",
    "SensorDetector",
    "ConfigurableSensorFusion",
    "FusedObstacle",
    "FusionConfig",
    "assignment_cost",
    "hungarian",
    "Obstacle",
    "Scene",
    "SceneGenerator",
    "ramp_timeline",
    "spike_timeline",
]
