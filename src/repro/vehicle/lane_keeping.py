"""Lane-keeping plant — the Vehicle Control Simulator for §VII-B2.

The vehicle drives the oval loop at a fixed longitudinal speed (5 m/s in the
paper).  The performance metric is the **lateral offset** from the lane
centerline; that offset is the tracking error reported to HCPerf's internal
coordinator.  Control commands, as in the car-following plant, are computed
from the state snapshot of the pipeline's sense time, so scheduling latency
appears as stale steering.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .lateral import BicycleDynamics, BicycleState, StanleyController, SteeringCommand
from .noise import GaussianNoise
from .track import OvalTrack

__all__ = ["LKSnapshot", "LaneKeepingPlant"]


@dataclass(frozen=True)
class LKSnapshot:
    """One recorded instant of the lane-keeping system."""

    t: float
    arc_length: float
    lateral_offset: float
    heading_error: float
    curvature: float
    steering: float


class LaneKeepingPlant:
    """Bicycle-on-oval co-simulation.

    Parameters
    ----------
    track:
        Closed-loop track geometry.
    speed:
        Fixed longitudinal speed (m/s).
    controller:
        Stanley steering law evaluated by the control task.
    dynamics:
        Bicycle plant.
    offset_noise:
        Optional lateral-offset measurement noise.
    initial_offset:
        Lateral displacement from the centerline at t = 0 (m).
    command_timeout:
        Steering watchdog: with no fresh command for this long, the chassis
        recentres the wheel (drives straight) instead of holding an
        arbitrary stale angle forever.
    max_offset:
        Lane-departure bound (m).  Once the vehicle strays beyond it, the
        run is flagged ``departed`` and recorded offsets saturate at the
        bound — a car that has left the road entirely reports the failure,
        not hundreds of meters of meaningless projection.
    """

    def __init__(
        self,
        track: Optional[OvalTrack] = None,
        speed: float = 5.0,
        controller: Optional[StanleyController] = None,
        dynamics: Optional[BicycleDynamics] = None,
        offset_noise: Optional[GaussianNoise] = None,
        initial_offset: float = 0.0,
        command_timeout: float = 0.5,
        max_offset: float = 3.0,
    ) -> None:
        if not 0 < speed < math.inf:
            raise ValueError("speed must be positive and finite")
        if not 0 < command_timeout < math.inf:
            raise ValueError("command_timeout must be positive and finite")
        if not 0 < max_offset < math.inf:
            raise ValueError("max_offset must be positive and finite")
        if not math.isfinite(initial_offset):
            raise ValueError("initial_offset must be finite")
        self.command_timeout = command_timeout
        self.max_offset = max_offset
        self.departed = False
        self.departure_time: Optional[float] = None
        self.track = track or OvalTrack()
        self.speed = speed
        self.controller = controller or StanleyController()
        self.dynamics = dynamics or BicycleDynamics()
        self.offset_noise = offset_noise

        x0, y0, h0 = self.track.pose(0.0)
        self.state = BicycleState(
            x=x0 - initial_offset * math.sin(h0),
            y=y0 + initial_offset * math.cos(h0),
            heading=h0,
        )
        self._arc = 0.0
        self._steer_cmd = 0.0
        self._last_cmd_time = 0.0
        self._last_t = 0.0
        self.commands: List[SteeringCommand] = []
        self._times: List[float] = []
        self._history: List[LKSnapshot] = []
        self._record(0.0)

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step(self, now: float) -> None:
        """Advance the plant to ``now``."""
        dt = now - self._last_t
        if dt < 0:
            raise ValueError(f"time moved backwards: {self._last_t} -> {now}")
        if dt == 0:
            return
        steer_cmd = self._steer_cmd
        if now - self._last_cmd_time > self.command_timeout:
            steer_cmd = 0.0
        self.dynamics.step(self.state, steer_cmd, self.speed, dt)
        self._arc, _ = self.track.project(self.state.x, self.state.y, self._arc + self.speed * dt)
        self._last_t = now
        self._record(now)

    def _record(self, t: float) -> None:
        s, offset = self.track.project(self.state.x, self.state.y, self._arc)
        if abs(offset) > self.max_offset:
            if not self.departed:
                self.departed = True
                self.departure_time = t
            offset = self.max_offset if offset > 0 else -self.max_offset
        _, _, lane_heading = self.track.pose(s)
        heading_error = math.atan2(
            math.sin(self.state.heading - lane_heading),
            math.cos(self.state.heading - lane_heading),
        )
        snap = LKSnapshot(
            t=t,
            arc_length=s,
            lateral_offset=offset,
            heading_error=heading_error,
            curvature=self.track.curvature(s),
            steering=self.state.steering,
        )
        self._times.append(t)
        self._history.append(snap)

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._last_t

    def tracking_error(self) -> float:
        """Current lateral offset — the lane-keeping performance metric."""
        return self._history[-1].lateral_offset

    def snapshot_at(self, t: float) -> LKSnapshot:
        """Most recent recorded snapshot at or before ``t``."""
        idx = bisect.bisect_right(self._times, t) - 1
        if idx < 0:
            idx = 0
        return self._history[idx]

    # ------------------------------------------------------------------
    # Control path
    # ------------------------------------------------------------------
    def compute_command(self, sense_time: float, now: float) -> SteeringCommand:
        """Evaluate the Stanley law on the snapshot taken at ``sense_time``."""
        snap = self.snapshot_at(sense_time)
        offset = snap.lateral_offset
        if self.offset_noise is not None:
            offset = self.offset_noise.apply(offset)
        steering = self.controller.steering_command(
            lateral_offset=offset,
            heading_error=snap.heading_error,
            speed=self.speed,
            curvature=snap.curvature,
            wheelbase=self.dynamics.wheelbase,
        )
        return SteeringCommand(steering=steering, computed_at=now, sense_time=sense_time)

    def apply_command(self, cmd: SteeringCommand) -> None:
        """Latch a new steering command (held until the next one)."""
        self._steer_cmd = cmd.steering
        self._last_cmd_time = cmd.computed_at
        self.commands.append(cmd)

    # ------------------------------------------------------------------
    # Series for analysis
    # ------------------------------------------------------------------
    def times(self) -> List[float]:
        return list(self._times)

    def offset_series(self) -> List[Tuple[float, float]]:
        """``(t, lateral_offset)`` — Fig. 14(b)."""
        return [(s.t, s.lateral_offset) for s in self._history]

    def offset_by_arc_series(self) -> List[Tuple[float, float]]:
        """``(arc_length, lateral_offset)`` — offsets located on the loop."""
        return [(s.arc_length, s.lateral_offset) for s in self._history]

    def turn_offsets(self) -> List[float]:
        """Offsets recorded while on the two semicircular turns.

        The paper notes the scheme differences are prominent during the
        turns and zero on the straights.
        """
        return [s.lateral_offset for s in self._history if self.track.on_turn(s.arc_length)]
