"""Synthetic driving scenes.

Substitute for CARLA / recorded sensor data (DESIGN.md §3): the scheduler
only ever sees the *obstacle count* (which drives fusion cost) and the
fusion only needs obstacle positions, so a 2-D synthetic world exercises
the identical code paths.

A :class:`SceneGenerator` materializes a scene whose obstacle count follows a
scenario-supplied timeline ``n(t)`` — e.g. the queue of vehicles and
pedestrians building up at a red light (§II) or the traffic jam of §VII-C.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, List

__all__ = ["Obstacle", "Scene", "SceneGenerator", "ramp_timeline", "spike_timeline"]


@dataclass
class Obstacle:
    """One dynamic object in the world (vehicle, pedestrian, …)."""

    obstacle_id: int
    x: float
    y: float
    vx: float = 0.0
    vy: float = 0.0

    def advance(self, dt: float) -> None:
        """Constant-velocity motion."""
        self.x += self.vx * dt
        self.y += self.vy * dt

    def position(self) -> "tuple[float, float]":
        return (self.x, self.y)

    def speed(self) -> float:
        return math.hypot(self.vx, self.vy)


@dataclass
class Scene:
    """The world at one instant."""

    t: float
    obstacles: List[Obstacle] = field(default_factory=list)

    @property
    def complexity(self) -> int:
        """The quantity that drives fusion cost: the obstacle count."""
        return len(self.obstacles)


class SceneGenerator:
    """Maintains a scene whose population tracks a complexity timeline.

    Parameters
    ----------
    timeline:
        ``n(t)`` — desired obstacle count (rounded) at time ``t``.
    region:
        Half-extent of the square spawn region around the ego (m).
    speed_scale:
        Obstacle speeds are drawn uniform in ``[-speed_scale, speed_scale]``
        per axis.
    seed:
        Private RNG seed (independent of executor/noise streams).
    """

    def __init__(
        self,
        timeline: Callable[[float], float],
        region: float = 60.0,
        speed_scale: float = 3.0,
        seed: int = 0,
    ) -> None:
        if region <= 0:
            raise ValueError("region must be positive")
        if speed_scale < 0:
            raise ValueError("speed_scale must be >= 0")
        self.timeline = timeline
        self.region = region
        self.speed_scale = speed_scale
        self._rng = random.Random(seed)
        self._next_id = 0
        self._scene = Scene(t=0.0)
        self._sync(0.0)

    def _spawn(self) -> Obstacle:
        rng = self._rng
        obstacle = Obstacle(
            obstacle_id=self._next_id,
            x=rng.uniform(-self.region, self.region),
            y=rng.uniform(-self.region, self.region),
            vx=rng.uniform(-self.speed_scale, self.speed_scale),
            vy=rng.uniform(-self.speed_scale, self.speed_scale),
        )
        self._next_id += 1
        return obstacle

    def _sync(self, t: float) -> None:
        """Add/remove obstacles to match the timeline at ``t``."""
        target = max(0, int(round(self.timeline(t))))
        obstacles = self._scene.obstacles
        while len(obstacles) < target:
            obstacles.append(self._spawn())
        while len(obstacles) > target:
            # Remove the oldest obstacle (front of the list) — vehicles that
            # joined the queue first leave it first.
            obstacles.pop(0)

    def at(self, t: float) -> Scene:
        """The scene advanced to time ``t`` (monotone calls expected)."""
        dt = t - self._scene.t
        if dt > 0:
            for obstacle in self._scene.obstacles:
                obstacle.advance(dt)
            self._scene.t = t
        self._sync(t)
        return self._scene

    def complexity(self, t: float) -> float:
        """Timeline shortcut usable as the executor's complexity function."""
        return float(max(0, int(round(self.timeline(t)))))


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
