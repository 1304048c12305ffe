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

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..rt.exectime import ExecTimeObserver
from ..rt.task import Job
from .dynamic_priority import (
    DynamicPriorityConfig,
    DynamicPriorityPolicy,
    GammaSearchResult,
)
from .mfc import MFCConfig, ModelFreeController
from .rate_adapter import RateAdapterConfig, TaskRateAdapter

__all__ = ["HCPerfConfig", "HierarchicalCoordinator"]


@dataclass
class HCPerfConfig:
    """Bundle of the three component configurations.

    ``enable_external`` switches the Task Rate Adapter off for the paper's
    ablation study (Fig. 18: internal coordinator only).
    """

    mfc: MFCConfig = field(default_factory=MFCConfig)
    priority: DynamicPriorityConfig = field(default_factory=DynamicPriorityConfig)
    rate: RateAdapterConfig = field(default_factory=RateAdapterConfig)
    enable_external: bool = True


class HierarchicalCoordinator:
    """Runtime state of HCPerf's two coordinators.

    ``gamma_history`` keeps one ``(t, γ)`` sample per dispatch round, every
    one of them from the first.
    """

    def __init__(self, config: Optional[HCPerfConfig] = None) -> None:
        self.config = config or HCPerfConfig()
        self.mfc = ModelFreeController(self.config.mfc)
        self.policy = DynamicPriorityPolicy(self.config.priority)
        self.rate_adapter = TaskRateAdapter(self.config.rate)
        self.tracking_error = 0.0
        self.last_result: Optional[GammaSearchResult] = None
        self.gamma_history: List[Tuple[float, float]] = []
        self.overload_windows = 0

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
        self.gamma_history.append((now, result.gamma))
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
