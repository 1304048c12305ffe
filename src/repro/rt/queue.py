"""Ready queue shared by all schedulers.

The ready queue holds released-but-not-yet-dispatched jobs.  Jobs from
different control cycles coexist (paper Fig. 3), so the queue is an unordered
pool that the scheduler ranks once per dispatch round
(:meth:`~repro.schedulers.base.Scheduler.ranked`) — priorities are
*recomputed* per round (HCPerf's dynamic priority depends on ``now`` and on
the current ``γ``), so a static heap would be wrong.  Per-event bookkeeping
is O(1): a per-task count backs the bounded channels, and an
earliest-deadline watermark lets :meth:`ReadyQueue.drop_expired` return at
once while nothing can have expired.
"""

from __future__ import annotations

import math
from typing import AbstractSet, Dict, Iterator, List, Optional, Sequence

from .task import Job

__all__ = ["ReadyQueue"]


class ReadyQueue:
    """Pool of ready jobs, dispatched from a scheduler's per-round ranking.

    The queue preserves insertion (release) order for determinism: when two
    jobs tie under a scheduler's key, the earlier-released job wins.
    """

    def __init__(self) -> None:
        self._jobs: List[Job] = []
        self._per_task: Dict[str, int] = {}
        # Never above the earliest queued deadline: a push lowers it, a
        # removal keeps it (still a lower bound), a sweep makes it exact.
        self._watermark = float("inf")

    def push(self, job: Job, limit: float = math.inf) -> Optional[Job]:
        """Add a released job to the pool; return the job it evicts, if any.

        Bounded channel: when ``limit`` jobs of the same task are already
        queued, the oldest of them leaves the queue and comes back (the
        executor counts it as a miss); otherwise the result is ``None``.
        """
        jobs = self._jobs
        name = job.task.name
        count = self._per_task.get(name, 0)
        victim: Optional[Job] = None
        if count >= limit:
            victim = next(j for j in jobs if j.task.name == name)
            jobs.remove(victim)
        else:
            self._per_task[name] = count + 1
        jobs.append(job)
        deadline = job.absolute_deadline
        if deadline < self._watermark:
            self._watermark = deadline
        return victim

    def remove(self, job: Job) -> None:
        """Remove a specific job (after dispatch or drop)."""
        self._jobs.remove(job)
        self._per_task[job.task.name] -= 1

    def count(self, task_name: str) -> int:
        """Number of queued jobs of ``task_name``."""
        return self._per_task.get(task_name, 0)

    def __len__(self) -> int:
        return len(self._jobs)

    def __bool__(self) -> bool:
        return bool(self._jobs)

    def __iter__(self) -> Iterator[Job]:
        return iter(self._jobs)

    @property
    def queued(self) -> Sequence[Job]:
        """The queued jobs in release order: live, not a copy, and read-only.

        The queue mutates this list in place and never rebinds it, so a
        reference stays current; a caller that must survive the next push
        or removal copies it.
        """
        return self._jobs

    def pop_best(self, ranked: List[Job], admits: AbstractSet[str]) -> Optional[Job]:
        """Remove (from the queue and ``ranked``) the first job ``admits`` names.

        ``ranked`` is the round's dispatch order from the scheduler, and
        ``admits`` the names of the tasks the free unit may run (fixed per
        run by :meth:`~repro.schedulers.base.Scheduler.eligible`).  The first
        admitted job of a stable sort is the stable ``min`` over the
        admitted jobs, so ties still break toward the earlier release.
        """
        for i, job in enumerate(ranked):
            if job.task.name in admits:
                del ranked[i]
                # remove()'s body, without the method call.
                self._jobs.remove(job)
                self._per_task[job.task.name] -= 1
                return job
        return None

    def drop_expired(self, now: float) -> List[Job]:
        """Remove and return jobs whose absolute deadline already passed.

        The paper discards the output of a task that cannot complete within
        its deadline; dropping such jobs before they occupy a processor is
        what keeps the queue bounded under overload (DESIGN.md §2).
        """
        if now < self._watermark:
            return []
        expired = [j for j in self._jobs if j.is_expired(now)]
        for job in expired:
            self.remove(job)
        self._watermark = min((j.absolute_deadline for j in self._jobs), default=float("inf"))
        return expired
