"""Performance Directed Controller — Model-Free Control (paper §IV).

The relationship between the car tracking error ``E(t)`` and the nominal
priority adjustment parameter ``u(t)`` is unknown and time-varying; MFC
(Fliess & Join [17]) approximates it as a first-order ultra-local model

    Ė(t) = F(t) + α·u(t),            α < 0                    (Eq. 2)

with the offset term ``F`` re-estimated continuously:

    F̂(t) = Ė̂(t) − α·u(t − T_s)                               (Eq. 5)

and the command closing the loop on the reference ``E* = 0``:

    u(t) = (−F̂(t) + K·E(t)) / α,     K < 0                    (Eq. 3)

``Ė̂`` comes from :class:`~repro.core.ade.AlgebraicDifferentiator` (Eq. 6).
Behaviour (paper's remark on Eq. 8): when ``E`` grows, ``u`` rises to
prioritize control tasks (responsiveness); when ``E`` is small, ``u`` stays
put and the scheduler favours earliest-deadline tasks (throughput).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .ade import AlgebraicDifferentiator

__all__ = ["MFCConfig", "ModelFreeController"]


@dataclass
class MFCConfig:
    """Gains and timing of the Performance Directed Controller.

    Attributes
    ----------
    alpha:
        Constant control gain ``α`` of the ultra-local model; must be
        negative (raising ``u`` prioritizes control tasks, which *reduces*
        the error derivative).
    feedback_gain:
        Feedback gain ``K``; must be negative (the paper uses ``K = −1``).
    ade_window:
        Sliding-window width ``T_ADE`` of the derivative estimator.
    u_initial:
        Nominal parameter before the first update.
    """

    alpha: float = -1.0
    feedback_gain: float = -1.0
    ade_window: float = 2.0
    u_initial: float = 0.0

    def __post_init__(self) -> None:
        # The chained comparisons fail for NaN too.
        if not -math.inf < self.alpha < 0:
            raise ValueError(f"alpha must be negative and finite, got {self.alpha}")
        if not -math.inf < self.feedback_gain < 0:
            raise ValueError(
                f"feedback_gain must be negative and finite, got {self.feedback_gain}"
            )
        if not 0 < self.ade_window < math.inf:
            raise ValueError(f"ade_window must be positive and finite, got {self.ade_window}")


class ModelFreeController:
    """Maps the tracking-error signal to the nominal parameter ``u(t)``.

    Usage: feed every error measurement through :meth:`observe` (e.g. at the
    plant rate) and call :meth:`update` once per sampling period ``T_s`` (the
    executor's coordination period) to obtain the new ``u``.

    >>> mfc = ModelFreeController(MFCConfig())
    >>> mfc.observe(0.0, 0.0)
    >>> mfc.observe(0.5, 1.0)   # error growing
    >>> u1 = mfc.update(0.5, 1.0)
    >>> u1 > 0.0                # controller pushes u up to regain control
    True
    """

    def __init__(self, config: Optional[MFCConfig] = None) -> None:
        self.config = config or MFCConfig()
        self._ade = AlgebraicDifferentiator(window=self.config.ade_window)
        self._u = self.config.u_initial
        self._f_hat = 0.0

    @property
    def u(self) -> float:
        """Latest nominal priority adjustment parameter."""
        return self._u

    @property
    def f_hat(self) -> float:
        """Latest estimate of the offset term ``F̂``."""
        return self._f_hat

    def observe(self, t: float, error: float) -> None:
        """Record one tracking-error measurement ``E(t)``."""
        self._ade.add_sample(t, error)

    def update(self, t: float, error: float) -> float:
        """One MFC step at time ``t`` with current error ``E(t)``.

        Implements Eqs. (5) and (3) with the previous command ``u(t − T_s)``;
        returns (and stores) the new nominal parameter ``u(t)``.
        """
        cfg = self.config
        e_dot = self._ade.estimate()
        self._f_hat = e_dot - cfg.alpha * self._u  # Eq. (5)
        u_new = (-self._f_hat + cfg.feedback_gain * error) / cfg.alpha  # Eq. (3)
        self._u = u_new
        return u_new
