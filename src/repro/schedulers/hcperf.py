"""HCPerf scheduling policy — adapter between the hierarchical coordinator
and the executor's :class:`~repro.schedulers.base.Scheduler` interface.

Wiring per coordination window (paper Fig. 6 workflow):

1. the driving application reports the tracking error via
   :meth:`HCPerfScheduler.report_performance` at the plant rate;
2. at each coordination window the Performance Directed Controller produces
   the nominal parameter ``u`` and the Task Rate Adapter retunes source
   rates from the window's deadline-miss ratio;
3. before every dispatch round, the Dynamic Priority Scheduler searches
   ``γ_max`` over the current ready queue, clamps ``u`` into ``[0, γ_max]``
   and ranks jobs by ``P_i = γ·p_i + d_i``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..core.coordinator import HCPerfConfig, HierarchicalCoordinator
from ..rt.metrics import WindowSample
from ..rt.task import Job
from ..rt.taskgraph import TaskGraph
from .base import Scheduler, SystemView

__all__ = ["HCPerfScheduler"]


class HCPerfScheduler(Scheduler):
    """Performance-directed hierarchical coordination policy."""

    name = "HCPerf"

    #: HCPerf avoids wasting processor time on jobs that can no longer meet
    #: their deadline (§III-B: misses "prevent generating control commands
    #: and also waste system computing resources").
    drop_expired = True

    #: Coordination windows during which the drift reference keeps being
    #: re-baselined: the observer's slow drift EWMA is still converging from
    #: its first samples, and that cold-start transient must not read as an
    #: execution-time regime change (a spurious §V gain reset).
    drift_warmup_windows = 4

    def __init__(self, config: Optional[HCPerfConfig] = None) -> None:
        self.coordinator = HierarchicalCoordinator(config)
        self._gamma = 0.0
        self._desired_rates: Optional[Dict[str, float]] = None
        self._windows_seen = 0

    # ------------------------------------------------------------------
    # Driving-performance input
    # ------------------------------------------------------------------
    def report_performance(self, t: float, error: float) -> None:
        """Feed one tracking-error measurement ``E(t)`` from the plant."""
        self.coordinator.report_performance(t, error)

    @property
    def gamma(self) -> float:
        """The priority adjustment coefficient used by the last dispatch."""
        return self._gamma

    # ------------------------------------------------------------------
    # Scheduler interface
    # ------------------------------------------------------------------
    def prepare(self, graph: TaskGraph, n_processors: int) -> None:
        # Register each source task's allowable rate range with the external
        # coordinator; sources without a range are not adaptable.
        for src in graph.sources():
            if src.rate_range is not None:
                lo, hi = src.rate_range
                self.coordinator.rate_adapter.set_rate_range(src.name, lo, hi)

    def on_dispatch_round(self, now: float, view: SystemView) -> None:
        estimate = view.observer.estimate
        result = self.coordinator.resolve_gamma(
            now,
            view.ready.queued,
            exec_estimate=lambda j: estimate(j.task.name, j.exec_time),
            busy_remaining=view.busy_remaining(now),
            n_processors=view.n_processors,
        )
        self._gamma = result.gamma
        if self.recorder is not None:
            self.recorder.gamma(now, result.gamma, result.gamma_max, result.overloaded)

    def rank(self, job: Job, now: float, view: SystemView) -> float:
        c_est = view.observer.estimate(job.task.name, job.exec_time)
        return self.coordinator.policy.dynamic_priority(job, self._gamma, now, c_est)

    def order(self, jobs: Sequence[Job], now: float, view: SystemView) -> List[float]:
        # rank()'s P_i, operation for operation, from the table the round's
        # γ search built: one estimate per queued job per round.
        search = self.coordinator.last_result
        assert search is not None and len(search.entries) == len(jobs)
        gamma = self._gamma
        return [gamma * p + slack for p, slack, _, _ in search.entries]

    def on_window(self, now: float, view: SystemView, window: WindowSample) -> None:
        self._windows_seen += 1
        if self._windows_seen <= self.drift_warmup_windows:
            # Baseline the execution-time regime (and keep re-baselining
            # through the warm-up) so drift is measured against a converged
            # initial profile.
            view.observer.mark_stable()
        u = self.coordinator.sample_controller(now)
        if self.recorder is not None:
            self.recorder.controller(now, u, self.coordinator.mfc.f_hat)
        resets_before = self.coordinator.rate_adapter.resets
        self._desired_rates = self.coordinator.adapt_rates(
            window.miss_ratio,
            dict(view.rates),
            view.observer,
            utilization=window.utilization,
        )
        if self.recorder is not None and self._desired_rates is not None:
            # adapt_rates returns None only when the external coordinator is
            # disabled (ablation) — no adapter step happened then.
            self.recorder.rate_adapter(
                now,
                window.miss_ratio,
                self.coordinator.rate_adapter.kp,
                reset=self.coordinator.rate_adapter.resets > resets_before,
            )

    def desired_rates(self) -> Optional[Dict[str, float]]:
        rates, self._desired_rates = self._desired_rates, None
        return rates
