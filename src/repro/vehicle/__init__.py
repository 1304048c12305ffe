"""Vehicle plant — the reproduction's Vehicle Control Simulator (Fig. 9).

Longitudinal (car following) and lateral (lane keeping) dynamics, scripted
lead-vehicle profiles, and the hardware-emulation noise/lag models.
"""

from .car_following import CarFollowingPlant, CFSnapshot
from .lane_keeping import LaneKeepingPlant, LKSnapshot
from .lateral import BicycleDynamics, BicycleState, StanleyController, SteeringCommand
from .longitudinal import ACCCommand, ACCController, LongitudinalDynamics, LongitudinalState
from .noise import GaussianNoise
from .profiles import (
    ConstantSpeed,
    PiecewiseLinearSpeed,
    SineSpeed,
    SpeedProfile,
    hardware_routine,
    red_light_routine,
    traffic_jam_routine,
)
from .track import OvalTrack

__all__ = [
    "CarFollowingPlant",
    "CFSnapshot",
    "LaneKeepingPlant",
    "LKSnapshot",
    "BicycleDynamics",
    "BicycleState",
    "StanleyController",
    "SteeringCommand",
    "ACCCommand",
    "ACCController",
    "LongitudinalDynamics",
    "LongitudinalState",
    "GaussianNoise",
    "ConstantSpeed",
    "PiecewiseLinearSpeed",
    "SineSpeed",
    "SpeedProfile",
    "hardware_routine",
    "red_light_routine",
    "traffic_jam_routine",
    "OvalTrack",
]
