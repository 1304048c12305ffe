"""Scheduler interface of the scheduling framework.

The executor is policy-agnostic: once per run, after :meth:`Scheduler.prepare`,
it asks :meth:`Scheduler.eligible` which tasks each unit admits; once per
dispatch round it asks for the round's dispatch order
(:meth:`Scheduler.ranked`, by default the ready queue stable-sorted by
:meth:`Scheduler.rank`); and once per coordination window it hands the
scheduler the window's metrics and applies the source rates
:meth:`Scheduler.on_window` returns (which is where HCPerf's coordinators
run).
A baseline implements :meth:`rank`; when its key depends on the job alone it
also overrides :meth:`ranked` to sort by that key directly.

Ranking contract: **smaller rank value is dispatched first**, matching the
paper's convention that a smaller priority value means higher priority.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, cast

from ..rt.metrics import WindowSample
from ..rt.task import Job, TaskSpec
from ..rt.taskgraph import TaskGraph
from ..rt.view import ProcessorState, SystemView

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from ..obs.recorder import Recorder

__all__ = ["SystemView", "Scheduler"]


class Scheduler:
    """Base scheduling policy.

    Subclasses override :meth:`rank`, and :meth:`ranked` when the order can
    be computed more cheaply (the baselines sort by a key of the job alone);
    HCPerf additionally overrides :meth:`on_window` (coordination) and
    :meth:`on_dispatch_round` (γ recomputation before each dispatch
    decision), and its :meth:`ranked` reuses the γ search's order.
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

        Policies that partition tasks over processors (Apollo) or derive
        virtual deadlines (EDF-VD) do so here, in their own state: the
        graph is the caller's and is never written.
        """

    def rank(self, job: Job, now: float, view: SystemView) -> float:
        """Dispatch key for ``job`` — the smallest rank runs next."""
        raise NotImplementedError

    def ranked(self, jobs: Sequence[Job], now: float, view: SystemView) -> List[Job]:
        """The round's dispatch order: ``jobs`` stable-sorted by :meth:`rank`.

        Called once per dispatch round; ``jobs`` is the queue's live,
        read-only list.  The result is a fresh list, which
        :meth:`~repro.rt.queue.ReadyQueue.pop_best` consumes.  Overrides
        must return the same order, computed more cheaply.  Every shipped
        policy overrides this, so a subclass that redefines :meth:`rank`
        redefines this too (or reinstates ``Scheduler.ranked``).
        """
        keys = [self.rank(job, now, view) for job in jobs]
        # sorted() computes each job's key once, in queue order, so the keys
        # are drawn straight off an iterator: next(keys, job) is the job's key.
        key = cast("Callable[[Job], float]", partial(next, iter(keys)))
        return sorted(jobs, key=key)

    def eligible(self, task: TaskSpec, processor: ProcessorState) -> bool:
        """Whether jobs of ``task`` may be dispatched to ``processor``.

        Placement is fixed for a run: the executor asks once per (unit,
        task) pair, right after :meth:`prepare` (so Apollo's partition is
        in), and each free processor then takes the first job of the
        round's ranking whose task it admits.  So every policy — EDF, HPF,
        HCPerf and the rest — is affinity-aware on typed
        :class:`~repro.rt.resources.ProcessorProfile` platforms through
        this one check.  The base rule admits a task iff the processor's
        type is in its affinity set; policies that want stricter placement
        (Apollo's static binding, reserving accelerators) override this,
        never the other way around — a job must never run on a unit
        outside its affinity set (pinned by the property suite).
        Availability is not placement: a failed unit keeps its row and
        simply takes no job while it is down.
        """
        return processor.can_run(task)

    def on_dispatch_round(self, now: float, view: SystemView) -> None:
        """Called once before each dispatch decision round.

        HCPerf recomputes the priority adjustment coefficient γ here so that
        every job in the round is ranked under the same coefficient.
        """

    def on_window(
        self, now: float, view: SystemView, window: WindowSample
    ) -> Optional[Dict[str, float]]:
        """Called once per coordination window with that window's metrics.

        Returns the new source rates the policy requests, or ``None`` to
        keep them; the executor applies them at once, each clamped to its
        task's allowable range.  Only HCPerf's external coordinator
        requests rates.
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"
