"""Read-only system view handed to scheduling policies.

Lives in the real-time substrate (rather than the scheduler package) so the
executor, the schedulers and the HCPerf core can all import it without
import cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .exectime import ExecTimeObserver
from .queue import ReadyQueue
from .task import Job, TaskSpec
from .taskgraph import TaskGraph

__all__ = ["ProcessorState", "SystemView"]


@dataclass
class ProcessorState:
    """One processing unit of the platform.

    On the default homogeneous platform every unit is a ``CPU`` at speedup
    1.0 — an identical processor of the paper's model.  Typed
    :class:`~repro.rt.resources.ProcessorProfile` platforms instantiate one
    state per profile unit, carrying the unit's type and default speedup.
    Lives here (not in the executor module) because it is part of the
    policy-visible surface: schedulers receive it through
    :meth:`~repro.schedulers.base.Scheduler.eligible` and
    :attr:`SystemView.processors`.
    """

    index: int
    job: Optional[Job] = None
    busy_until: float = 0.0
    busy_time_total: float = 0.0
    #: Hot-(un)plug flag: a failed processor accepts no dispatches until it
    #: recovers (see :meth:`~repro.rt.executor.RTExecutor.set_processor_available`).
    available: bool = True
    #: Unit type (e.g. ``"CPU"``, ``"GPU"``) — matched against task
    #: affinity sets at dispatch.
    unit_type: str = "CPU"
    #: Default execution-rate multiplier of this unit; a task's per-type
    #: ``speedup`` override wins (see :meth:`effective_speedup`).
    speedup: float = 1.0

    def remaining(self, now: float) -> float:
        """Remaining processing time ``T_p`` of the running job (Eq. 11)."""
        if self.job is None:
            return 0.0
        return max(0.0, self.busy_until - now)

    def can_run(self, spec: TaskSpec) -> bool:
        """Dispatch admissibility: static binding plus typed-unit affinity."""
        if spec.processor_binding is not None and spec.processor_binding != self.index:
            return False
        return spec.compatible_with(self.unit_type)

    def effective_speedup(self, spec: TaskSpec) -> float:
        """Execution-rate multiplier for ``spec`` on this unit.

        The task's per-type override takes precedence over the unit's
        default.  1.0 on every identity-profile unit, so dividing by it is
        float-exact there.
        """
        return spec.speedup_on(self.unit_type, default=self.speedup)


@dataclass
class SystemView:
    """What a scheduler is allowed to observe.

    Attributes
    ----------
    graph:
        The task graph being executed.
    ready:
        The ready queue (shared object; schedulers must not mutate it —
        the executor owns admission and dispatch).
    processors:
        Current processor states; ``remaining(now)`` of each gives the
        ``T_p`` terms in the paper's Eq. (11).
    observer:
        Online execution-time estimates ``c_i``.
    rates:
        Current source-task rates (Hz), keyed by task name.
    """

    graph: TaskGraph
    ready: ReadyQueue
    processors: List[ProcessorState]
    observer: ExecTimeObserver
    rates: Dict[str, float]

    @property
    def n_processors(self) -> int:
        """Processors currently accepting work.

        Failed (hot-unplugged) processors do not count: Eq. (11)'s
        ``n_p`` must reflect the platform's *live* capacity, or the
        schedulability test would keep promising parallelism that no longer
        exists during a processor-failure fault.
        """
        return sum(1 for p in self.processors if p.available)

    def busy_remaining(self, now: float) -> float:
        """Sum of remaining processing times over all processors (ΣT_p)."""
        return sum([p.remaining(now) for p in self.processors if p.job is not None], 0.0)
