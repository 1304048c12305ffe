"""Task Rate Adapter — the external coordinator (paper §VI).

A proportional feedback controller on the system deadline-miss ratio:

    e(k)   = m_t − m(k)          (e(k) := ε > 0 when m(k) = 0)
    r_out  = K_p · e(k) + r(k)                                  (Eq. 13)

* ``e(k) < 0`` → overloaded → reduce source rates;
* ``e(k) > 0`` → headroom   → raise source rates to improve control-command
  throughput (smoother driving);
* ``K_p`` decays towards 0 as the system stabilizes so the rates settle,
  and is reset to its profiled value when an unusual execution-time regime
  change is detected (the drift signal from
  :class:`~repro.rt.exectime.ExecTimeObserver`).

The adapter tunes **all** adaptable source rates jointly (paper §VI reasons
1–2): tasks are not bound to processors and end-to-end chains wait for the
slowest predecessor, so rates move together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

__all__ = ["RateAdapterConfig", "TaskRateAdapter"]


@dataclass
class RateAdapterConfig:
    """Gains of the external coordinator.

    Attributes
    ----------
    target_miss_ratio:
        ``m_t``.  The paper drives the miss ratio to zero, so the default
        target is 0.
    epsilon:
        The "pre-defined small positive value" substituted for ``e(k)`` when
        ``m(k) = 0`` — the upward pressure that explores unused headroom.
    kp_initial:
        ``K_p`` at initialization, "set from offline profiled data".
        Units: Hz per unit of miss-ratio error.
    kp_decay:
        Multiplicative decay applied to ``K_p`` each stable window.
    kp_floor:
        ``K_p`` below this value snaps to 0 (rates frozen).
    drift_reset_threshold:
        Relative execution-time drift beyond which ``K_p`` resets to
        ``kp_initial`` ("unusual change in task processing time variations").
    utilization_bound:
        Schedulability guard (§VI: the adapter "helps to guarantee the
        schedulability of the system through maintaining the utilization of
        the processors below the specified utilization bound according to
        [21]").  Rate *increases* are suppressed while the measured
        utilization exceeds this bound, and an over-bound utilization forces
        a decrease even when no deadline has been missed yet.
    """

    target_miss_ratio: float = 0.0
    epsilon: float = 0.02
    kp_initial: float = 8.0
    kp_decay: float = 0.85
    kp_floor: float = 0.05
    drift_reset_threshold: float = 0.25
    utilization_bound: float = 0.80

    def __post_init__(self) -> None:
        if not (0.0 <= self.target_miss_ratio <= 1.0):
            raise ValueError("target_miss_ratio must be in [0, 1]")
        # The chained comparisons fail for NaN too.
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not 0 <= self.kp_initial < math.inf:
            raise ValueError(f"kp_initial must be >= 0 and finite, got {self.kp_initial}")
        if not (0.0 <= self.kp_decay <= 1.0):
            raise ValueError("kp_decay must be in [0, 1]")
        if not (0.0 < self.utilization_bound <= 1.0):
            raise ValueError("utilization_bound must be in (0, 1]")
        if not 0 <= self.kp_floor < math.inf:
            raise ValueError(f"kp_floor must be >= 0 and finite, got {self.kp_floor}")
        # +inf is allowed: the gain then never resets.
        if not self.drift_reset_threshold > 0:
            raise ValueError(
                f"drift_reset_threshold must be positive, got {self.drift_reset_threshold}"
            )


class TaskRateAdapter:
    """Feedback regulation of source-task rates.

    Call :meth:`update` once per coordination window with the measured miss
    ratio ``m(k)``, the current rates of the adaptable source tasks and the
    observed execution-time drift; it returns the adapted rates (clamped to
    each task's allowable range).
    """

    def __init__(
        self,
        config: Optional[RateAdapterConfig] = None,
        rate_ranges: Optional[Dict[str, Tuple[float, float]]] = None,
    ) -> None:
        self.config = config or RateAdapterConfig()
        self.rate_ranges: Dict[str, Tuple[float, float]] = dict(rate_ranges or {})
        self.kp = self.config.kp_initial
        self.resets = 0

    def set_rate_range(self, task_name: str, lo: float, hi: float) -> None:
        """Register/replace the allowable range of one source task."""
        if not 0 < lo <= hi < math.inf:  # NaN fails it too
            raise ValueError(f"invalid rate range [{lo}, {hi}] for {task_name!r}")
        self.rate_ranges[task_name] = (lo, hi)

    def error(self, miss_ratio: float) -> float:
        """``e(k) = m_t − m(k)``, with the ε substitution at zero misses."""
        if miss_ratio == 0.0:
            return self.config.epsilon
        return self.config.target_miss_ratio - miss_ratio

    def update(
        self,
        miss_ratio: float,
        rates: Dict[str, float],
        drift: float = 0.0,
        utilization: Optional[float] = None,
    ) -> Dict[str, float]:
        """One Eq. (13) step.

        Parameters
        ----------
        miss_ratio:
            Measured system miss ratio ``m(k)`` of the closing window.
        rates:
            Current rates ``r(k)`` of the adaptable source tasks.
        drift:
            Max relative execution-time drift since the last stable point;
            beyond the threshold ``K_p`` resets to its profiled value.
        utilization:
            Measured processor utilization of the window; enforces the
            schedulability bound (see :class:`RateAdapterConfig`).

        Returns
        -------
        dict
            New rates ``r_out``, clamped into each task's allowable range.
            Tasks without a registered range are returned unchanged.
        """
        cfg = self.config
        if drift > cfg.drift_reset_threshold:
            self.kp = cfg.kp_initial
            self.resets += 1
        e_k = self.error(miss_ratio)
        if utilization is not None and utilization > cfg.utilization_bound:
            # Above the schedulability bound: never increase, and push down
            # proportionally to the excess even before misses materialize.
            e_k = min(e_k, -(utilization - cfg.utilization_bound))

        out: Dict[str, float] = {}
        for name, rate in rates.items():
            bounds = self.rate_ranges.get(name)
            if bounds is None:
                out[name] = rate
                continue
            step = self.kp * e_k
            lo, hi = bounds
            out[name] = min(hi, max(lo, rate + step))

        # K_p decays while the loop is at (or better than) target and within
        # the utilization bound, i.e. the system is stable; it keeps its
        # authority while misses or over-bound utilization persist.
        stable = miss_ratio <= cfg.target_miss_ratio and (
            utilization is None or utilization <= cfg.utilization_bound
        )
        if stable:
            self.kp *= cfg.kp_decay
            if self.kp < cfg.kp_floor:
                self.kp = 0.0
        return out
