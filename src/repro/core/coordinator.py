"""Hierarchical coordinator — the HCPerf façade (paper Fig. 6).

Combines the three components into the two coordinators:

* **Internal coordinator** = :class:`~repro.core.mfc.ModelFreeController`
  (Performance Directed Controller) +
  :class:`~repro.core.dynamic_priority.DynamicPriorityPolicy`
  (Dynamic Priority Scheduler).
* **External coordinator** = :class:`~repro.core.rate_adapter.TaskRateAdapter`.

The coordinator is scheduling-framework-agnostic: the
:class:`~repro.schedulers.hcperf.HCPerfScheduler` adapter feeds it queue
snapshots and window metrics from the executor, and the driving application
feeds it the tracking-error signal.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..obs.metrics import MetricsRegistry
from ..rt.exectime import ExecTimeObserver
from ..rt.task import Job
from .dynamic_priority import (
    DynamicPriorityConfig,
    DynamicPriorityPolicy,
    GammaSearchResult,
)
from .mfc import MFCConfig, ModelFreeController
from .rate_adapter import RateAdapterConfig, TaskRateAdapter

__all__ = ["HCPerfConfig", "GammaHistory", "HierarchicalCoordinator"]


@dataclass
class HCPerfConfig:
    """Bundle of the three component configurations.

    ``enable_external`` switches the Task Rate Adapter off for the paper's
    ablation study (Fig. 18: internal coordinator only).
    ``gamma_history_limit`` bounds the coordinator's (t, γ) history ring —
    one resolution per dispatch round adds up over multi-hour horizons;
    once full, the oldest samples are evicted and counted.
    """

    mfc: MFCConfig = field(default_factory=MFCConfig)
    priority: DynamicPriorityConfig = field(default_factory=DynamicPriorityConfig)
    rate: RateAdapterConfig = field(default_factory=RateAdapterConfig)
    enable_external: bool = True
    gamma_history_limit: int = 65536

    def __post_init__(self) -> None:
        if self.gamma_history_limit < 1:
            raise ValueError("gamma_history_limit must be >= 1")


class GammaHistory:
    """Bounded ring of ``(t, γ)`` samples with an eviction count.

    List-like where it matters (iteration, ``len``, indexing/slicing,
    equality against lists), but appends past ``limit`` evict the oldest
    sample instead of growing without bound.  ``total`` counts every sample
    ever appended; ``dropped`` counts evictions.
    """

    def __init__(self, limit: int) -> None:
        if limit < 1:
            raise ValueError("limit must be >= 1")
        self.limit = limit
        self._ring: deque[Tuple[float, float]] = deque(maxlen=limit)
        self.total = 0
        self.dropped = 0

    def append(self, sample: Tuple[float, float]) -> None:
        if len(self._ring) == self.limit:
            self.dropped += 1
        self._ring.append(sample)
        self.total += 1

    def clear(self) -> None:
        self._ring.clear()
        self.total = 0
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self) -> Iterator[Tuple[float, float]]:
        return iter(self._ring)

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[Tuple[float, float], List[Tuple[float, float]]]:
        if isinstance(index, slice):
            return list(self._ring)[index]
        return self._ring[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GammaHistory):
            return self._ring == other._ring
        if isinstance(other, (list, tuple)):
            return list(self._ring) == list(other)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GammaHistory(limit={self.limit}, len={len(self._ring)}, "
            f"total={self.total}, dropped={self.dropped})"
        )


class HierarchicalCoordinator:
    """Runtime state of HCPerf's two coordinators.

    ``metrics`` is a :class:`~repro.obs.metrics.MetricsRegistry` the
    coordinator reports housekeeping counters into (currently the γ-history
    ring's eviction count); callers may pass a shared registry to fold the
    coordinator into a wider metrics snapshot.
    """

    def __init__(
        self,
        config: Optional[HCPerfConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config or HCPerfConfig()
        self.mfc = ModelFreeController(self.config.mfc)
        self.policy = DynamicPriorityPolicy(self.config.priority)
        self.rate_adapter = TaskRateAdapter(self.config.rate)
        self.tracking_error = 0.0
        self.last_result: Optional[GammaSearchResult] = None
        self.gamma_history = GammaHistory(self.config.gamma_history_limit)
        self.overload_windows = 0
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._history_dropped = self.metrics.counter(
            "gamma_history_dropped",
            "γ-history samples evicted by the bounded ring",
        )

    # ------------------------------------------------------------------
    # Driving-performance input (from the vehicle application)
    # ------------------------------------------------------------------
    def report_performance(self, t: float, error: float) -> None:
        """Feed one tracking-error sample ``E(t)`` (plant-rate signal)."""
        self.tracking_error = error
        self.mfc.observe(t, error)

    # ------------------------------------------------------------------
    # Internal coordinator
    # ------------------------------------------------------------------
    def sample_controller(self, t: float) -> float:
        """Run one MFC step at the coordination period; returns ``u(t)``."""
        return self.mfc.update(t, self.tracking_error)

    def resolve_gamma(
        self,
        now: float,
        jobs: Sequence[Job],
        exec_estimate: Callable[[Job], float],
        busy_remaining: float,
        n_processors: int,
    ) -> GammaSearchResult:
        """γ_max search + Eq. (12) clamp of the current nominal ``u``."""
        result = self.policy.resolve(
            self.mfc.u, jobs, now, exec_estimate, busy_remaining, n_processors
        )
        self.last_result = result
        dropped_before = self.gamma_history.dropped
        self.gamma_history.append((now, result.gamma))
        if self.gamma_history.dropped > dropped_before:
            self._history_dropped.inc()
        if result.overloaded:
            self.overload_windows += 1
        return result

    # ------------------------------------------------------------------
    # External coordinator
    # ------------------------------------------------------------------
    def adapt_rates(
        self,
        miss_ratio: float,
        rates: Dict[str, float],
        observer: ExecTimeObserver,
        utilization: Optional[float] = None,
    ) -> Optional[Dict[str, float]]:
        """One Task Rate Adapter step; ``None`` when disabled (ablation)."""
        if not self.config.enable_external:
            return None
        drift = observer.max_drift()
        new_rates = self.rate_adapter.update(
            miss_ratio, rates, drift=drift, utilization=utilization
        )
        if drift > self.config.rate.drift_reset_threshold:
            # The regime changed; measure future drift against it.
            observer.mark_stable()
        return new_rates

    def reset(self) -> None:
        """Restore all component state (scenario restart)."""
        self.mfc.reset()
        self.rate_adapter.reset()
        self.tracking_error = 0.0
        self.last_result = None
        self.gamma_history.clear()
        self.overload_windows = 0
