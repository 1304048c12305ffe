"""Configurable sensor fusion — camera/LiDAR data association.

The task whose execution-time behaviour motivates the whole paper: it
matches camera detections against LiDAR detections with the Hungarian
algorithm (O(n³) in the obstacle count) and merges matched pairs into fused
obstacle estimates.

"Configurable" follows [10]/[16]: the gating distance and the sensor weights
are runtime configuration, which is how Apollo lets the fusion trade accuracy
against cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from .detection import Detection
from .hungarian import hungarian

__all__ = ["FusedObstacle", "FusionConfig", "ConfigurableSensorFusion"]


@dataclass(frozen=True)
class FusedObstacle:
    """A fused obstacle estimate."""

    x: float
    y: float
    t: float
    n_sensors: int
    truth_id: Optional[int] = None


@dataclass
class FusionConfig:
    """Runtime configuration of the fusion stage.

    Attributes
    ----------
    gate_distance:
        Maximum camera↔LiDAR distance for a pair to be considered a match
        (m); matched pairs beyond the gate are split back into singletons.
    lidar_weight:
        Blend weight of the LiDAR position in a fused estimate (LiDAR is the
        more precise sensor, so the default leans on it).
    """

    gate_distance: float = 2.5
    lidar_weight: float = 0.8

    def __post_init__(self) -> None:
        if self.gate_distance <= 0:
            raise ValueError("gate_distance must be positive")
        if not (0.0 <= self.lidar_weight <= 1.0):
            raise ValueError("lidar_weight must be in [0, 1]")


class ConfigurableSensorFusion:
    """Hungarian-based camera/LiDAR fusion."""

    def __init__(self, config: Optional[FusionConfig] = None) -> None:
        self.config = config or FusionConfig()

    @staticmethod
    def _distance(a: Detection, b: Detection) -> float:
        return math.hypot(a.x - b.x, a.y - b.y)

    def cost_matrix(
        self, camera: Sequence[Detection], lidar: Sequence[Detection]
    ) -> List[List[float]]:
        """Pairwise distance matrix (rows = camera, cols = LiDAR)."""
        return [[self._distance(c, l) for l in lidar] for c in camera]

    def fuse(
        self, camera: Sequence[Detection], lidar: Sequence[Detection]
    ) -> List[FusedObstacle]:
        """Associate and merge one camera frame with one LiDAR frame.

        Unmatched detections from either sensor pass through as
        single-sensor obstacles, so a sensor dropout degrades rather than
        blinds the pipeline.
        """
        if camera and lidar:
            pairs = hungarian(self.cost_matrix(camera, lidar))
        else:
            pairs = []
        cfg = self.config
        fused: List[FusedObstacle] = []
        matched_cam = set()
        matched_lid = set()
        for i, j in pairs:
            c, l = camera[i], lidar[j]
            if self._distance(c, l) > cfg.gate_distance:
                continue  # beyond the gate: treat both as singletons
            matched_cam.add(i)
            matched_lid.add(j)
            w = cfg.lidar_weight
            fused.append(
                FusedObstacle(
                    x=w * l.x + (1.0 - w) * c.x,
                    y=w * l.y + (1.0 - w) * c.y,
                    t=max(c.t, l.t),
                    n_sensors=2,
                    truth_id=l.truth_id if l.truth_id is not None else c.truth_id,
                )
            )
        for i, c in enumerate(camera):
            if i not in matched_cam:
                fused.append(
                    FusedObstacle(x=c.x, y=c.y, t=c.t, n_sensors=1, truth_id=c.truth_id)
                )
        for j, l in enumerate(lidar):
            if j not in matched_lid:
                fused.append(
                    FusedObstacle(x=l.x, y=l.y, t=l.t, n_sensors=1, truth_id=l.truth_id)
                )
        return fused
