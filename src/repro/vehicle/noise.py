"""Sensor noise for the hardware-testbed emulation.

"Unlike the simulation, the speed record of the lead car is affected by the
presence of noise … the lag in the throttle control of the scaled car can be
observed" (paper §VII-B3).  The hardware scenario wraps the plant's sensor
readings with :class:`GaussianNoise`; the actuator lag lives in
:class:`~repro.vehicle.longitudinal.LongitudinalDynamics`.
"""

from __future__ import annotations

import random

__all__ = ["GaussianNoise"]


class GaussianNoise:
    """Additive white Gaussian measurement noise with its own RNG stream.

    A dedicated :class:`random.Random` keeps the noise stream independent of
    the executor's execution-time sampling so that changing one does not
    reshuffle the other (experiments stay comparable across schedulers).
    """

    def __init__(self, sigma: float, seed: int = 0) -> None:
        if sigma < 0:
            raise ValueError("sigma must be >= 0")
        self.sigma = sigma
        self._rng = random.Random(seed)

    def apply(self, value: float) -> float:
        """Return ``value`` plus one noise draw."""
        if self.sigma == 0.0:
            return value
        return value + self._rng.gauss(0.0, self.sigma)
