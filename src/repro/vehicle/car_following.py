"""Car-following plant — the Vehicle Control Simulator for §VII-B1/B3.

Co-simulation contract with the executor:

* the plant is stepped at a fixed ``dt`` by a periodic executor hook;
* when a control (sink) job completes in time, the experiment calls
  :meth:`CarFollowingPlant.compute_command` with the job's ``sense_time`` —
  the command is computed from the vehicle-state snapshot *of that instant*,
  so scheduling latency directly degrades control freshness — and then
  :meth:`CarFollowingPlant.apply_command`;
* between commands the follower holds its last commanded acceleration
  (stale-command behaviour: "the vehicle cannot update its speed in a timely
  manner … resulting in poor tracking performance", §II).

The **tracking error** is the paper's car-following performance metric:
``E = v_lead − v_follow`` (target ``R`` = lead speed, performance ``P`` =
actual speed, §III-A).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .longitudinal import ACCCommand, ACCController, LongitudinalDynamics, LongitudinalState
from .noise import GaussianNoise
from .profiles import SpeedProfile

__all__ = ["CFSnapshot", "CarFollowingPlant"]


@dataclass(frozen=True)
class CFSnapshot:
    """One recorded instant of the two-vehicle system."""

    t: float
    v_lead: float
    v_follow: float
    gap: float
    accel_follow: float


class CarFollowingPlant:
    """Lead + follower longitudinal co-simulation.

    Parameters
    ----------
    lead_profile:
        Scripted lead-vehicle speed profile.
    controller:
        The ACC law evaluated by the control task.
    dynamics:
        Follower plant (limits + actuator lag).
    initial_gap:
        Bumper-to-bumper distance at t = 0 (m).
    speed_noise / gap_noise:
        Optional sensor noise applied to the snapshot values used for
        command computation (hardware emulation); the *recorded* series stay
        noise-free ground truth.
    command_timeout:
        Actuation failsafe: when no fresh control command has arrived for
        this long, the chassis zeroes the held acceleration (coast) — a
        production drive-by-wire watchdog.  Without it, a scheduler that
        stops producing commands leaves an arbitrary stale acceleration
        latched forever and the trajectory diverges unphysically.
    """

    def __init__(
        self,
        lead_profile: SpeedProfile,
        controller: Optional[ACCController] = None,
        dynamics: Optional[LongitudinalDynamics] = None,
        initial_gap: float = 30.0,
        speed_noise: Optional[GaussianNoise] = None,
        gap_noise: Optional[GaussianNoise] = None,
        command_timeout: float = 0.5,
    ) -> None:
        if initial_gap <= 0:
            raise ValueError("initial_gap must be positive")
        if command_timeout <= 0:
            raise ValueError("command_timeout must be positive")
        self.lead_profile = lead_profile
        self.controller = controller or ACCController()
        self.dynamics = dynamics or LongitudinalDynamics()
        self.speed_noise = speed_noise
        self.gap_noise = gap_noise
        self.command_timeout = command_timeout

        v0 = lead_profile.speed(0.0)
        self.lead_position = initial_gap
        self.follower = LongitudinalState(position=0.0, speed=v0)
        self._accel_cmd = 0.0
        self._last_cmd_time = 0.0
        self._last_t = 0.0
        self.collided = False
        self.collision_time: Optional[float] = None
        self.commands: List[ACCCommand] = []

        self._times: List[float] = []
        self._history: List[CFSnapshot] = []
        self._record(0.0)

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step(self, now: float) -> None:
        """Advance the plant to ``now`` (monotone; no-op when time is equal)."""
        dt = now - self._last_t
        if dt < 0:
            raise ValueError(f"time moved backwards: {self._last_t} -> {now}")
        if dt == 0:
            return
        # Lead: trapezoidal integration of the scripted speed.
        v0 = self.lead_profile.speed(self._last_t)
        v1 = self.lead_profile.speed(now)
        self.lead_position += 0.5 * (v0 + v1) * dt
        # Follower: plant dynamics under the held command (or the watchdog
        # coast when the command stream has gone silent).
        accel_cmd = self._accel_cmd
        if now - self._last_cmd_time > self.command_timeout:
            accel_cmd = 0.0
        if not self.collided:
            self.dynamics.step(self.follower, accel_cmd, dt)
        self._last_t = now
        if self.gap <= 0.0 and not self.collided:
            self.collided = True
            self.collision_time = now
        self._record(now)

    def _record(self, t: float) -> None:
        snap = CFSnapshot(
            t=t,
            v_lead=self.lead_profile.speed(t),
            v_follow=self.follower.speed,
            gap=self.gap,
            accel_follow=self.follower.accel,
        )
        self._times.append(t)
        self._history.append(snap)

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------
    @property
    def gap(self) -> float:
        """Current bumper distance between the two vehicles (m)."""
        return self.lead_position - self.follower.position

    @property
    def now(self) -> float:
        return self._last_t

    def tracking_error(self) -> float:
        """``E = v_lead − v_follow`` at the current instant (signed)."""
        return self.lead_profile.speed(self._last_t) - self.follower.speed

    def mean_gap(self) -> float:
        """Average inter-vehicle distance over the recorded run."""
        return sum(s.gap for s in self._history) / len(self._history)

    def snapshot_at(self, t: float) -> CFSnapshot:
        """Most recent recorded snapshot at or before ``t``.

        This is what a sensor sampled at ``t`` saw; control commands are
        computed from it, so pipeline latency = snapshot staleness.
        """
        idx = bisect.bisect_right(self._times, t) - 1
        if idx < 0:
            idx = 0
        return self._history[idx]

    # ------------------------------------------------------------------
    # Control path
    # ------------------------------------------------------------------
    def compute_command(self, sense_time: float, now: float) -> ACCCommand:
        """Evaluate the ACC law for the control task.

        The *lead-vehicle* measurements (speed and gap) come from the
        perception pipeline and therefore reflect the world at
        ``sense_time`` — the moment the sensor frame feeding this control
        cycle was captured.  The follower's own speed comes from the chassis
        at ``now`` (wheel odometry is always fresh).  Scheduling latency and
        missed fusion cycles thus appear exactly as the paper describes:
        the vehicle acts on an outdated estimate of the car in front.
        """
        perceived = self.snapshot_at(sense_time)
        current = self.snapshot_at(now)
        v_lead = perceived.v_lead
        gap = perceived.gap
        if self.speed_noise is not None:
            v_lead = self.speed_noise.apply(v_lead)
        if self.gap_noise is not None:
            gap = self.gap_noise.apply(gap)
        accel = self.controller.accel_command(v_lead, current.v_follow, gap)
        return ACCCommand(accel=accel, computed_at=now, sense_time=sense_time)

    def apply_command(self, cmd: ACCCommand) -> None:
        """Latch a new acceleration command (held until the next one)."""
        self._accel_cmd = cmd.accel
        self._last_cmd_time = cmd.computed_at
        self.commands.append(cmd)

    # ------------------------------------------------------------------
    # Series for analysis (ground truth, noise-free)
    # ------------------------------------------------------------------
    def times(self) -> List[float]:
        return list(self._times)

    def speed_error_series(self) -> List[Tuple[float, float]]:
        """``(t, v_lead − v_follow)`` over the run — Fig. 13(b)/15(b)."""
        return [(s.t, s.v_lead - s.v_follow) for s in self._history]

    def distance_error_series(self) -> List[Tuple[float, float]]:
        """``(t, gap − mean_gap)`` over the run — Fig. 13(c)/15(c).

        The paper reads the distance error as the oscillation of the
        inter-vehicle distance ("what is important here is the magnitude of
        the oscillation", §VII-B1), so the series is centred on the run's
        mean gap.
        """
        mean = self.mean_gap()
        return [(s.t, s.gap - mean) for s in self._history]

    def gap_series(self) -> List[Tuple[float, float]]:
        return [(s.t, s.gap) for s in self._history]

    def speed_series(self) -> List[Tuple[float, float, float]]:
        """``(t, v_lead, v_follow)`` — Fig. 13(a)/15(a)."""
        return [(s.t, s.v_lead, s.v_follow) for s in self._history]

    def accel_series(self) -> List[Tuple[float, float]]:
        """``(t, follower acceleration)`` — input to the discomfort metric."""
        return [(s.t, s.accel_follow) for s in self._history]
