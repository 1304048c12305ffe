"""Track geometry for the lane-keeping experiment.

Fig. 14(a) shows "loop driving": the car drives an oval-shaped closed loop
clockwise and performance is the deviation from the lane centerline.  An
:class:`OvalTrack` is two straights joined by two semicircles; it maps arc
length to pose/curvature and projects a world position back to the
centerline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

__all__ = ["OvalTrack"]


@dataclass
class OvalTrack:
    """Stadium-shaped (oval) closed track.

    The centerline starts at the origin heading +x along the bottom
    straight; the loop is traversed counter-clockwise in arc-length ``s``
    (the clockwise driving direction of the paper's figure is a mirror
    image and does not affect offsets).

    Attributes
    ----------
    straight_length:
        Length of each of the two straights (m).
    radius:
        Radius of each of the two semicircular turns (m).
    """

    straight_length: float = 100.0
    radius: float = 20.0

    def __post_init__(self) -> None:
        if not (0 < self.straight_length < math.inf and 0 < self.radius < math.inf):
            raise ValueError("straight_length and radius must be positive and finite")

    @property
    def length(self) -> float:
        """Total centerline length."""
        return 2.0 * self.straight_length + 2.0 * math.pi * self.radius

    def wrap(self, s: float) -> float:
        """Normalize arc length into ``[0, length)``."""
        return s % self.length

    # ------------------------------------------------------------------
    # Centerline parametrization
    # ------------------------------------------------------------------
    def pose(self, s: float) -> Tuple[float, float, float]:
        """Centerline pose ``(x, y, heading)`` at arc length ``s``."""
        s = self.wrap(s)
        L, R = self.straight_length, self.radius
        arc = math.pi * R
        if s < L:  # bottom straight, heading +x
            return (s, 0.0, 0.0)
        s -= L
        if s < arc:  # right turn (counter-clockwise semicircle)
            theta = s / R  # 0..pi
            cx, cy = L, R
            x = cx + R * math.sin(theta)
            y = cy - R * math.cos(theta)
            return (x, y, theta)
        s -= arc
        if s < L:  # top straight, heading -x
            return (L - s, 2.0 * R, math.pi)
        s -= L
        # left turn
        theta = s / R  # 0..pi
        cx, cy = 0.0, R
        x = cx - R * math.sin(theta)
        y = cy + R * math.cos(theta)
        return (x, y, math.pi + theta)

    def curvature(self, s: float) -> float:
        """Signed centerline curvature at arc length ``s`` (1/m).

        Positive on the two turns (left-hand curvature in the
        counter-clockwise traversal), zero on the straights.
        """
        s = self.wrap(s)
        L, R = self.straight_length, self.radius
        arc = math.pi * R
        if s < L:
            return 0.0
        if s < L + arc:
            return 1.0 / R
        if s < L + arc + L:
            return 0.0
        return 1.0 / R

    def on_turn(self, s: float) -> bool:
        """Whether arc length ``s`` lies on one of the two semicircles."""
        return self.curvature(s) != 0.0

    # ------------------------------------------------------------------
    # Projection
    # ------------------------------------------------------------------
    def project(self, x: float, y: float, s_hint: float) -> Tuple[float, float]:
        """Project a world point to ``(s, lateral_offset)``.

        A coarse-to-fine search around ``s_hint`` (the previously known arc
        length) in steps of 1, 0.1 and 0.01 m.  Each candidate is scored with
        the float operations of :meth:`pose`, written out inline for speed.
        The signed offset is positive to the left of the driving direction.

        Only candidates within one step of the closed-form foot point are
        scored: while the offset plus the step is at most R/2, every farther
        one has a larger d2 than the nearest grid point (:meth:`_kept` has
        the bound), so the result is bit for bit the full grid's.  A departed
        car, a window that wraps the loop, or a hint so stale that the foot
        point is outside the window scores the full grid.
        """
        L, R, length = self.straight_length, self.radius, self.length
        arc = math.pi * R
        sin, cos = math.sin, math.cos
        # Foot point s* and e = |p - c(s*)|: on a straight between the turn centres, else on a turn.
        if 0.0 <= x <= L:
            s_star, e = (x, abs(y)) if y < R else (L + arc + (L - x), abs(2.0 * R - y))
        elif x > L:
            s_star, e = L + R * math.atan2(x - L, R - y), abs(R - math.hypot(x - L, y - R))
        else:
            s_star, e = 2.0 * L + arc + R * math.atan2(-x, y - R), abs(R - math.hypot(x, y - R))
        best_s = s_hint % length
        best_d2 = math.inf
        head = [best_s]  # the hint itself is scored before the first grid
        for step, k in ((1.0, 8), (0.1, 15), (0.01, 20)):
            center = best_s
            kept = self._kept(s_star, e, center, step, k, length)
            for s in head + [(center + i * step) % length for i in kept]:
                # pose() wraps again: this is s, or 0.0 if s rounded up to length.
                u = s % length
                if u < L:  # bottom straight
                    cx, cy = u, 0.0
                elif (u := u - L) < arc:  # right turn
                    theta = u / R
                    cx, cy = L + R * sin(theta), R - R * cos(theta)
                elif (u := u - arc) < L:  # top straight
                    cx, cy = L - u, 2.0 * R
                else:  # left turn
                    theta = (u - L) / R
                    cx, cy = 0.0 - R * sin(theta), R + R * cos(theta)
                d2 = (x - cx) ** 2 + (y - cy) ** 2
                if d2 < best_d2:
                    best_d2 = d2
                    best_s = s
            head = []
        cx, cy, heading = self.pose(best_s)
        # Signed lateral offset: cross product of heading direction with the
        # displacement vector.
        dx, dy = x - cx, y - cy
        offset = -math.sin(heading) * dx + math.cos(heading) * dy
        return best_s, offset

    def _kept(
        self, s_star: float, e: float, center: float, step: float, k: int, length: float
    ) -> range:
        """Indices ``i`` of the candidates ``center + i*step`` (``|i| <= k``)
        that can still win, in increasing order."""
        # With D(s) = |p - c(s)|**2, delta = |s - s*| and |c'| = 1, |c''| <= 1/R:
        # D'(s*) = 0 and 2(1 - (e + delta)/R) <= D'' <= 2(1 + (e + delta)/R),
        # so D increases with delta while delta < 2(R - e).  Let that hold over
        # the window, s* lie in it, the window not wrap past s = 0, and
        # t = (e + step)/R <= 1/2.  The grid point nearest s* (delta <= step/2)
        # has D <= e**2 + (1 + t) step**2/4 <= e**2 + 3 step**2/8, and D being
        # increasing, every candidate with delta > step has D >= e**2 +
        # (1 - t) step**2 >= e**2 + step**2/2.  The gap step**2/8 >= 1.25e-5
        # m**2 is over twice the rounding of d2 (under 2**-47 R length for
        # coordinates up to the length) on loops of up to 50 km, so a candidate
        # more than a step (plus 1e-6 steps of slack for rounding in s) from s*
        # has a float d2 strictly above the nearest grid point's.
        span, off, R = k * step, s_star - center, self.radius
        if (e + step <= 0.5 * R and abs(off) <= span and span + abs(off) < 2.0 * (R - e)
                and span <= center and center + span < length <= 5e4):
            q = off / step
            return range(max(-k, math.ceil(q - 1.000001)), min(k, math.floor(q + 1.000001)) + 1)
        return range(-k, k + 1)  # a premise fails: keep every candidate
