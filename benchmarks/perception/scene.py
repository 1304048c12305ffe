"""Synthetic driving scenes.

Substitute for CARLA / recorded sensor data (DESIGN.md §3): the fusion only
needs obstacle positions, so a 2-D synthetic world exercises the identical
code path.  The simulator itself sees only the obstacle *count*, through
the scenario timelines in :mod:`repro.workloads.scenarios`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

__all__ = ["Obstacle", "Scene"]


@dataclass
class Obstacle:
    """One dynamic object in the world (vehicle, pedestrian, …)."""

    obstacle_id: int
    x: float
    y: float


@dataclass
class Scene:
    """The world at one instant."""

    t: float
    obstacles: List[Obstacle] = field(default_factory=list)
