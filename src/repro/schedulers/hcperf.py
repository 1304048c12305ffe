"""HCPerf scheduling policy — the paper's two coordinators (Fig. 6) behind
the executor's :class:`~repro.schedulers.base.Scheduler` interface.

* **Internal coordinator** = :class:`~repro.core.mfc.ModelFreeController`
  (Performance Directed Controller) +
  :class:`~repro.core.dynamic_priority.DynamicPriorityPolicy`
  (Dynamic Priority Scheduler).
* **External coordinator** = :class:`~repro.core.rate_adapter.TaskRateAdapter`.

:class:`HCPerfScheduler` owns the three components and wires them per
coordination window (paper Fig. 6 workflow):

1. the driving application reports the tracking error via
   :meth:`HCPerfScheduler.report_performance` at the plant rate;
2. at each coordination window the Performance Directed Controller produces
   the nominal parameter ``u`` and the Task Rate Adapter retunes source
   rates from the window's deadline-miss ratio;
3. before every dispatch round, the Dynamic Priority Scheduler searches
   ``γ_max`` over the current ready queue, clamps ``u`` into ``[0, γ_max]``
   and ranks jobs by ``P_i = γ·p_i + d_i``.  The round sorts the queue once:
   when the applied γ is ``γ_max``, the dispatch order is the one the passing
   Eq. (11) test sorted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple, cast

from ..core.dynamic_priority import (
    DynamicPriorityConfig,
    DynamicPriorityPolicy,
    GammaSearchResult,
)
from ..core.mfc import MFCConfig, ModelFreeController
from ..core.rate_adapter import RateAdapterConfig, TaskRateAdapter
from ..rt.metrics import WindowSample
from ..rt.task import Job
from ..rt.taskgraph import TaskGraph
from .base import Scheduler, SystemView

__all__ = ["HCPerfConfig", "HCPerfScheduler"]

#: The job of a γ-search entry ``(p_i, slack_i, c_i, D_i − now, job)``.
_job = itemgetter(4)


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


class HCPerfScheduler(Scheduler):
    """Performance-directed hierarchical coordination policy.

    ``gamma_history`` keeps one ``(t, γ)`` sample per dispatch round, every
    one of them from the first; ``overload_rounds`` counts the rounds whose
    Eq. (11) search found no feasible γ_max.
    """

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
        self.config = config or HCPerfConfig()
        self.mfc = ModelFreeController(self.config.mfc)
        self.policy = DynamicPriorityPolicy(self.config.priority)
        self.rate_adapter = TaskRateAdapter(self.config.rate)
        self.tracking_error = 0.0
        self.last_result: Optional[GammaSearchResult] = None
        self.gamma_history: List[Tuple[float, float]] = []
        self.overload_rounds = 0
        self._gamma = 0.0
        self._windows_seen = 0
        # The view last seen and its queue's live list (never rebound), so a
        # round reads the list without a property call.
        self._view: Optional[SystemView] = None
        self._queued: Sequence[Job] = ()

    # ------------------------------------------------------------------
    # Driving-performance input
    # ------------------------------------------------------------------
    def report_performance(self, t: float, error: float) -> None:
        """Feed one tracking-error measurement ``E(t)`` from the plant."""
        self.tracking_error = error
        self.mfc.observe(t, error)

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
                self.rate_adapter.set_rate_range(src.name, lo, hi)

    def on_dispatch_round(self, now: float, view: SystemView) -> None:
        # Internal coordinator: γ_max search + Eq. (12) clamp of the current
        # nominal u.  The bound estimate is fetched each round, never cached,
        # so a method patched onto the observer's class sees every call.
        if view is not self._view:
            self._view, self._queued = view, view.ready.queued
        result = self.policy.resolve(
            self.mfc.u,
            self._queued,
            now,
            view.observer.estimate,
            view.busy_remaining(now),
            view.n_processors,
        )
        self.last_result = result
        self.gamma_history.append((now, result.gamma))
        if result.overloaded:
            self.overload_rounds += 1
        self._gamma = result.gamma
        if self.recorder is not None:
            self.recorder.gamma(now, result.gamma, result.gamma_max, result.overloaded)

    def rank(self, job: Job, now: float, view: SystemView) -> float:
        c_est = view.observer.estimate(job.task.name, job.exec_time)
        return self.policy.dynamic_priority(job, self._gamma, now, c_est)

    def ranked(self, jobs: Sequence[Job], now: float, view: SystemView) -> List[Job]:
        search = self.last_result
        assert search is not None and len(search.entries) == len(jobs)
        # γ is read here, not in on_dispatch_round: a subclass may rewrite it in between.
        gamma = self._gamma
        if search.order is not None and gamma == search.gamma_max:
            # The passing Eq. (11) test sorted rank()'s keys at this γ.
            return list(map(_job, search.order))
        # rank()'s P_i, operation for operation, from the table the round's
        # γ search built: one estimate per queued job per round.
        keys = [gamma * p + slack for p, slack, _, _, _ in search.entries]
        key = cast("Callable[[Job], float]", partial(next, iter(keys)))
        return sorted(jobs, key=key)

    def on_window(
        self, now: float, view: SystemView, window: WindowSample
    ) -> Optional[Dict[str, float]]:
        self._windows_seen += 1
        observer = view.observer
        if self._windows_seen <= self.drift_warmup_windows:
            # Baseline the execution-time regime (and keep re-baselining
            # through the warm-up) so drift is measured against a converged
            # initial profile.
            observer.mark_stable()
        # Internal coordinator: one MFC step at the coordination period.
        u = self.mfc.update(now, self.tracking_error)
        if self.recorder is not None:
            self.recorder.controller(now, u, self.mfc.f_hat)
        if not self.config.enable_external:
            # Ablation (Fig. 18): internal coordinator only, no rate step.
            return None
        # External coordinator: one Task Rate Adapter step.
        adapter = self.rate_adapter
        resets_before = adapter.resets
        drift = observer.max_drift()
        rates = adapter.update(
            window.miss_ratio, dict(view.rates), drift=drift, utilization=window.utilization
        )
        if drift > self.config.rate.drift_reset_threshold:
            # The regime changed; measure future drift against it.
            observer.mark_stable()
        if self.recorder is not None:
            self.recorder.rate_adapter(
                now, window.miss_ratio, adapter.kp, reset=adapter.resets > resets_before
            )
        return rates
