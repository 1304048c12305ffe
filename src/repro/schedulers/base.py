"""Scheduler interface of the scheduling framework.

The executor is policy-agnostic: once per dispatch round it ranks the ready
queue by the active :class:`Scheduler`'s keys (:meth:`Scheduler.order`, by
default :meth:`Scheduler.rank` per job), and once per coordination window it
hands the scheduler the window's metrics (which is where HCPerf's
coordinators run).  Baselines only implement :meth:`rank`.

Ranking contract: **smaller rank value is dispatched first**, matching the
paper's convention that a smaller priority value means higher priority.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from ..rt.metrics import WindowSample
from ..rt.task import Job
from ..rt.taskgraph import TaskGraph
from ..rt.view import ProcessorState, SystemView

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from ..obs.recorder import Recorder

__all__ = ["SystemView", "Scheduler"]


class Scheduler:
    """Base scheduling policy.

    Subclasses override :meth:`rank`; HCPerf additionally overrides
    :meth:`on_window` (coordination), :meth:`on_dispatch_round`
    (γ recomputation before each dispatch decision) and :meth:`order`
    (ranking the round from the γ search's per-job table).
    """

    #: Human-readable policy name, used in reports and experiment tables.
    name: str = "base"

    #: Whether the executor should drop queued jobs whose deadline already
    #: passed (counted as misses) instead of running them uselessly.  The
    #: paper's baselines execute late jobs to completion and discard the
    #: *output* ("the fusion results of this control cycle are discarded"),
    #: burning processor time on doomed work — that wasted time is exactly
    #: the §III-B inefficiency HCPerf's coordinators remove, so only HCPerf
    #: enables this flag.
    drop_expired: bool = False

    #: Structured recorder handed over by the executor at run start (see
    #: :mod:`repro.obs`).  Policies with internal decision state (HCPerf's
    #: γ resolutions, controller and rate-adapter steps) emit through it;
    #: baselines ignore it.  ``None`` outside a recorded run.
    recorder: Optional["Recorder"] = None

    def prepare(self, graph: TaskGraph, n_processors: int) -> None:
        """One-time setup before the simulation starts.

        Policies that bind tasks to processors (Apollo) or derive virtual
        deadlines (EDF-VD) do so here.
        """

    def rank(self, job: Job, now: float, view: SystemView) -> float:
        """Dispatch key for ``job`` — the smallest rank runs next."""
        raise NotImplementedError

    def order(self, jobs: List[Job], now: float, view: SystemView) -> List[float]:
        """:meth:`rank` of every job of the ready queue, once per dispatch round.

        Overrides must return the same keys bit for bit, computed more cheaply.
        """
        return [self.rank(job, now, view) for job in jobs]

    def eligible(self, job: Job, processor: ProcessorState) -> bool:
        """Whether ``job`` may be dispatched to ``processor``.

        Each free processor takes the first job of the round's ranking that
        this admits, so every policy — EDF, HPF, HCPerf and the rest — is
        affinity-aware on typed :class:`~repro.rt.resources.ProcessorProfile` platforms
        through this one check.  The base rule admits a job iff the
        processor satisfies the task's static binding *and* its typed-unit
        affinity set; policies that want stricter placement (e.g. reserving
        accelerators) override this, never the other way around — a job
        must never run on a unit outside its affinity set (pinned by the
        property suite).
        """
        return processor.can_run(job.task)

    def on_dispatch_round(self, now: float, view: SystemView) -> None:
        """Called once before each dispatch decision round.

        HCPerf recomputes the priority adjustment coefficient γ here so that
        every job in the round is ranked under the same coefficient.
        """

    def on_window(self, now: float, view: SystemView, window: WindowSample) -> None:
        """Called once per coordination window with that window's metrics."""

    def on_job_complete(self, job: Job, now: float, view: SystemView) -> None:
        """Called after a job completes within its deadline."""

    def on_job_miss(self, job: Job, now: float, view: SystemView) -> None:
        """Called after a job misses its deadline (late finish or drop)."""

    def desired_rates(self) -> Optional[Dict[str, float]]:
        """New source rates requested by the policy, or ``None`` to keep.

        The executor reads this after each :meth:`on_window` call and applies
        the returned rates (clamped to each task's allowable range).  Only
        HCPerf's external coordinator uses this.
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"
