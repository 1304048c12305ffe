"""The real perception kernels that E10 profiles.

Camera/LiDAR detection over synthetic scenes and Hungarian-based
configurable sensor fusion.  ``bench_fusion_profile.py`` measures their work
to calibrate the simulator's fusion execution-time model; simulations
sample execution times from that model and never call these kernels, so
they live beside the bench rather than in ``src/repro``.
"""

from .detection import CameraDetector, Detection, LidarDetector, SensorDetector
from .fusion import ConfigurableSensorFusion, FusedObstacle, FusionConfig
from .hungarian import assignment_cost, hungarian
from .scene import Obstacle, Scene

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
]
