"""Algebraic Differentiation Estimation (ADE).

Directly differentiating the measured tracking error ``E(t)`` amplifies
measurement noise; the paper (Eq. 6, after Fliess/Join/Sira-Ramírez [19] and
Wang & Wang [20]) instead estimates the first derivative as a time-weighted
integral over a sliding window of width ``T_ADE``:

    Ė̂(t) = (6 / T³) ∫₀ᵀ (T − 2τ) · E(t − τ) dτ

The integral acts as a low-pass filter.  We evaluate it by trapezoidal
quadrature over the recorded (possibly irregularly spaced) samples.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, List, Tuple

__all__ = ["AlgebraicDifferentiator"]


class AlgebraicDifferentiator:
    """Sliding-window algebraic estimator of ``Ė(t)``.

    Parameters
    ----------
    window:
        Window width ``T_ADE`` in seconds.  Larger windows filter noise more
        aggressively at the cost of estimation lag.

    Examples
    --------
    A noiseless ramp ``E(t) = 2t`` has derivative 2 everywhere:

    >>> ade = AlgebraicDifferentiator(window=1.0)
    >>> for k in range(200):
    ...     t = k * 0.01
    ...     ade.add_sample(t, 2.0 * t)
    >>> round(ade.estimate(), 3)
    2.0
    """

    def __init__(self, window: float = 1.0) -> None:
        if not 0 < window < math.inf:  # NaN fails it too
            raise ValueError(f"window must be positive and finite, got {window}")
        self.window = window
        self._samples: Deque[Tuple[float, float]] = deque()

    def add_sample(self, t: float, value: float) -> None:
        """Record a measurement ``E(t) = value``.

        Samples must arrive in non-decreasing time order; out-of-order
        samples raise ``ValueError`` (the coordinator samples on a monotone
        simulated clock, so this indicates a wiring bug).
        """
        if self._samples and t < self._samples[-1][0]:
            raise ValueError(
                f"out-of-order sample at t={t} (last was t={self._samples[-1][0]})"
            )
        self._samples.append((t, value))
        cutoff = t - self.window
        # Keep one sample left of the cutoff so the window integral can
        # interpolate its left edge.
        while len(self._samples) >= 2 and self._samples[1][0] <= cutoff:
            self._samples.popleft()

    def __len__(self) -> int:
        return len(self._samples)

    def estimate(self) -> float:
        """Current estimate of ``Ė(t)`` at the latest sample time.

        Returns 0.0 until at least two samples span a nonzero interval —
        before that, no derivative information exists.
        """
        if len(self._samples) < 2:
            return 0.0
        t_now = self._samples[-1][0]
        t_lo = t_now - self.window
        pts = self._clipped_samples(t_lo)
        if len(pts) < 2:
            return 0.0
        span = pts[-1][0] - pts[0][0]
        if span <= 0:
            return 0.0
        # Effective window: if the buffer does not yet span T_ADE, integrate
        # over what exists and normalize by the effective width (the formula
        # holds for any T).
        T = span

        def weight(t: float) -> float:
            tau = t_now - t
            return T - 2.0 * tau

        total = 0.0
        for (t0, v0), (t1, v1) in zip(pts, pts[1:]):
            f0 = weight(t0) * v0
            f1 = weight(t1) * v1
            total += 0.5 * (f0 + f1) * (t1 - t0)
        return 6.0 / T**3 * total

    def _clipped_samples(self, t_lo: float) -> List[Tuple[float, float]]:
        """Samples inside ``[t_lo, t_now]``, with the left edge interpolated."""
        samples = list(self._samples)
        pts: List[Tuple[float, float]] = []
        for i, (t, v) in enumerate(samples):
            if t >= t_lo:
                if not pts and i > 0 and samples[i - 1][0] < t_lo < t:
                    tp, vp = samples[i - 1]
                    frac = (t_lo - tp) / (t - tp)
                    pts.append((t_lo, vp + frac * (v - vp)))
                pts.append((t, v))
        return pts
