"""Execution-time models.

The paper's central observation is that autonomous-driving task execution
times vary strongly with the runtime input — configurable sensor fusion uses
the Hungarian algorithm and is ``O(n³)`` in the number of detected obstacles
``n`` (§II).  The simulator therefore samples each job's execution time from
a model that can depend on the simulated scenario:

* :class:`ConstantExecTime` — fixed ``c_i``;
* :class:`UniformExecTime` — uniform over a measured ``[lo, hi]`` range
  (Fig. 11 lists such ranges for all 23 tasks);
* :class:`SceneCubicExecTime` — ``base + coeff·n(t)³`` with ``n(t)`` supplied
  by the scenario's scene-complexity timeline (sensor fusion);
* :class:`StepExecTime` — switches between two inner models on a time window
  (the Fig. 13 setup: fusion 20 ms → 40 ms during ``t ∈ [10, 80)`` s).

:class:`ExecTimeObserver` is the online ``c_i`` estimate that Eq. (11) and
the Task Rate Adapter read.

All models draw noise from an explicitly seeded :class:`random.Random` so
experiments are reproducible.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Optional

__all__ = [
    "ExecContext",
    "ExecutionTimeModel",
    "ConstantExecTime",
    "UniformExecTime",
    "SceneCubicExecTime",
    "StepExecTime",
    "ExecTimeObserver",
]


@dataclass
class ExecContext:
    """Inputs an execution-time model may depend on.

    Attributes
    ----------
    now:
        Simulated time of the release (seconds).
    scene_complexity:
        Number of obstacles (or an equivalent complexity scalar) in the
        scene at ``now``; drives scene-coupled models.
    """

    now: float = 0.0
    scene_complexity: float = 0.0


class ExecutionTimeModel:
    """Base class.  Subclasses implement :meth:`sample`."""

    def sample(self, ctx: ExecContext, rng: random.Random) -> float:
        """Draw one execution time (seconds) for a job released under ``ctx``."""
        raise NotImplementedError

    def mean(self, ctx: ExecContext) -> float:
        """Expected execution time under ``ctx`` (used by analysis/tests)."""
        raise NotImplementedError


@dataclass
class ConstantExecTime(ExecutionTimeModel):
    """Deterministic execution time."""

    value: float

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError(f"execution time must be >= 0, got {self.value}")

    def sample(self, ctx: ExecContext, rng: random.Random) -> float:
        return self.value

    def mean(self, ctx: ExecContext) -> float:
        return self.value


@dataclass
class UniformExecTime(ExecutionTimeModel):
    """Uniform over ``[lo, hi]`` — the measured range of a task (Fig. 11)."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.lo < 0 or self.hi < self.lo:
            raise ValueError(f"invalid range [{self.lo}, {self.hi}]")

    def sample(self, ctx: ExecContext, rng: random.Random) -> float:
        return rng.uniform(self.lo, self.hi)

    def mean(self, ctx: ExecContext) -> float:
        return 0.5 * (self.lo + self.hi)


@dataclass
class SceneCubicExecTime(ExecutionTimeModel):
    """``base + coeff·n³`` where ``n`` is the scene complexity.

    Models configurable sensor fusion, whose Hungarian-algorithm data matching
    is cubic in the number of detected obstacles (§II).  ``jitter`` adds a
    multiplicative uniform perturbation ``U(1−jitter, 1+jitter)``.
    """

    base: float
    coeff: float
    jitter: float = 0.0
    max_value: float = math.inf

    def __post_init__(self) -> None:
        if self.base < 0 or self.coeff < 0:
            raise ValueError("base and coeff must be >= 0")
        if not (0.0 <= self.jitter < 1.0):
            raise ValueError("jitter must be in [0, 1)")

    def _nominal(self, ctx: ExecContext) -> float:
        n = max(0.0, ctx.scene_complexity)
        return min(self.max_value, self.base + self.coeff * n**3)

    def sample(self, ctx: ExecContext, rng: random.Random) -> float:
        value = self._nominal(ctx)
        if self.jitter:
            value *= rng.uniform(1.0 - self.jitter, 1.0 + self.jitter)
        return min(self.max_value, value)

    def mean(self, ctx: ExecContext) -> float:
        return self._nominal(ctx)


@dataclass
class StepExecTime(ExecutionTimeModel):
    """Switch between two inner models during ``[t_on, t_off)``.

    Reproduces the Fig. 13 experiment: the sensor-fusion time is raised from
    20 ms to 40 ms at ``t = 10 s`` and restored at ``t = 80 s``.
    """

    normal: ExecutionTimeModel
    elevated: ExecutionTimeModel
    t_on: float
    t_off: float

    def __post_init__(self) -> None:
        if self.t_off < self.t_on:
            raise ValueError("t_off must be >= t_on")

    def _active(self, ctx: ExecContext) -> ExecutionTimeModel:
        if self.t_on <= ctx.now < self.t_off:
            return self.elevated
        return self.normal

    def sample(self, ctx: ExecContext, rng: random.Random) -> float:
        return self._active(ctx).sample(ctx, rng)

    def mean(self, ctx: ExecContext) -> float:
        return self._active(ctx).mean(ctx)


class ExecTimeObserver:
    """Online estimate of each task's execution time ``c_i``.

    The paper uses "the execution time from the last run of the task"
    (Eq. 11's first term).  We generalize to an EWMA with configurable weight;
    weight 1.0 reproduces last-run exactly.  The observer also exposes the
    relative drift since the last :meth:`mark_stable` call, which the Task
    Rate Adapter uses to detect execution-time regime changes and reset its
    control gain (§VI step 2).

    Drift is tracked on a *separate, slower* EWMA (``drift_alpha``): the fast
    estimate feeding Eq. 11 must react per job, but regime-change detection
    that reacts per job mistakes ordinary sampling noise of wide
    execution-time distributions for a regime change and resets the adapter
    gain nearly every window.  ``drift_alpha=None`` reuses ``alpha``
    (the fast and drift series coincide, the pre-fault-subsystem behavior).
    """

    def __init__(self, alpha: float = 1.0, drift_alpha: Optional[float] = None) -> None:
        if not (0.0 < alpha <= 1.0):
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if drift_alpha is not None and not (0.0 < drift_alpha <= 1.0):
            raise ValueError(f"drift_alpha must be in (0, 1], got {drift_alpha}")
        self.alpha = alpha
        self.drift_alpha = alpha if drift_alpha is None else drift_alpha
        self._est: Dict[str, float] = {}
        self._slow: Dict[str, float] = {}
        self._stable_ref: Dict[str, float] = {}

    @staticmethod
    def _ewma(store: Dict[str, float], key: str, value: float, alpha: float) -> None:
        prev = store.get(key)
        store[key] = value if prev is None else alpha * value + (1.0 - alpha) * prev

    def observe(self, task_name: str, value: float) -> None:
        """Record one completed run of ``task_name`` taking ``value`` seconds."""
        if value < 0:
            raise ValueError("observed execution time must be >= 0")
        self._ewma(self._est, task_name, value, self.alpha)
        self._ewma(self._slow, task_name, value, self.drift_alpha)

    def estimate(self, task_name: str, default: float = 0.0) -> float:
        """Current ``c_i`` estimate, or ``default`` if never observed."""
        return self._est.get(task_name, default)

    def estimates(self) -> Dict[str, float]:
        """Snapshot of all estimates."""
        return dict(self._est)

    def mark_stable(self) -> None:
        """Remember the current drift estimates as the stable reference point."""
        self._stable_ref = dict(self._slow)

    def max_drift(self) -> float:
        """Largest relative change of any drift estimate since :meth:`mark_stable`.

        Returns 0.0 when nothing has been observed.  Tasks first observed
        after the stable mark count as full (1.0) drift, since an entirely
        new execution-time regime has appeared.
        """
        worst = 0.0
        for name, est in self._slow.items():
            ref = self._stable_ref.get(name)
            if ref is None:
                if self._stable_ref:
                    worst = max(worst, 1.0)
                continue
            if ref == 0.0:
                if est > 0.0:
                    worst = max(worst, 1.0)
                continue
            worst = max(worst, abs(est - ref) / ref)
        return worst
