"""Synthetic driving scenes.

Substitute for CARLA / recorded sensor data (DESIGN.md §3): the scheduler
only ever sees the *obstacle count* (which drives fusion cost) and the
fusion only needs obstacle positions, so a 2-D synthetic world exercises
the identical code paths.

Scenarios give the obstacle count as a timeline ``n(t)`` — e.g. the queue
of vehicles and pedestrians building up at a red light (§II,
:func:`ramp_timeline`) or the traffic jam of §VII-C (:func:`spike_timeline`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List

__all__ = ["Obstacle", "Scene", "ramp_timeline", "spike_timeline"]


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

    @property
    def complexity(self) -> int:
        """The quantity that drives fusion cost: the obstacle count."""
        return len(self.obstacles)


def ramp_timeline(
    n_base: float, n_peak: float, t_start: float, t_ramp: float
) -> Callable[[float], float]:
    """Complexity ramp: ``n_base`` until ``t_start``, linear rise to
    ``n_peak`` over ``t_ramp`` seconds, then hold — the §II red-light queue
    building up."""
    if t_ramp <= 0:
        raise ValueError("t_ramp must be positive")

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
    if t_off < t_on:
        raise ValueError("t_off must be >= t_on")

    def fn(t: float) -> float:
        return n_peak if t_on <= t < t_off else n_base

    return fn
