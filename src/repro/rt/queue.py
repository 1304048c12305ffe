"""Ready queue shared by all schedulers.

The ready queue holds released-but-not-yet-dispatched jobs.  Jobs from
different control cycles coexist (paper Fig. 3), so the queue is an unordered
pool ranked once per dispatch round — priorities are *recomputed* per round
(HCPerf's dynamic priority depends on ``now`` and on the current ``γ``), so a
static heap would be wrong.  Per-event bookkeeping is O(1): a per-task count
backs the bounded channels, and an earliest-deadline watermark lets
:meth:`ReadyQueue.drop_expired` return at once while nothing can have expired.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence

from .task import Job

__all__ = ["ReadyQueue"]


class ReadyQueue:
    """Pool of ready jobs with dispatch-time ranking.

    The queue preserves insertion (release) order for determinism: when two
    jobs tie under a scheduler's key, the earlier-released job wins.
    """

    def __init__(self) -> None:
        self._jobs: List[Job] = []
        self._per_task: Dict[str, int] = {}
        # Never above the earliest queued deadline: a push lowers it, a
        # removal keeps it (still a lower bound), a sweep makes it exact.
        self._watermark = float("inf")

    def push(self, job: Job) -> None:
        """Add a released job to the pool."""
        self._jobs.append(job)
        name = job.task.name
        self._per_task[name] = self._per_task.get(name, 0) + 1
        if job.absolute_deadline < self._watermark:
            self._watermark = job.absolute_deadline

    def remove(self, job: Job) -> None:
        """Remove a specific job (after dispatch or drop)."""
        self._jobs.remove(job)
        self._per_task[job.task.name] -= 1

    def count(self, task_name: str) -> int:
        """Number of queued jobs of ``task_name``."""
        return self._per_task.get(task_name, 0)

    def evict(self, task_name: str, limit: int) -> Optional[Job]:
        """Bounded channel: remove and return the oldest job of ``task_name``
        when ``limit`` of them are queued, else ``None``."""
        if self.count(task_name) < limit:
            return None
        victim = next(j for j in self._jobs if j.task.name == task_name)
        self.remove(victim)
        return victim

    def __len__(self) -> int:
        return len(self._jobs)

    def __bool__(self) -> bool:
        return bool(self._jobs)

    def __iter__(self) -> Iterator[Job]:
        return iter(self._jobs)

    def jobs(self) -> List[Job]:
        """Snapshot of queued jobs in release order."""
        return list(self._jobs)

    def ranked(self, keys: Sequence[float]) -> List[Job]:
        """The queue stable-sorted by ``keys`` (one per job, in queue order)."""
        jobs = self._jobs
        return [jobs[i] for i in sorted(range(len(jobs)), key=keys.__getitem__)]

    def pop_best(self, ranked: List[Job], eligible: Callable[[Job], bool]) -> Optional[Job]:
        """Remove (from the queue and ``ranked``) the first job ``eligible`` admits.

        The first admitted job of a stable sort is the stable ``min`` over
        the admitted jobs, so ties still break toward the earlier release.
        """
        for i, job in enumerate(ranked):
            if eligible(job):
                del ranked[i]
                self.remove(job)
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

    def clear(self) -> List[Job]:
        """Empty the queue, returning the removed jobs."""
        jobs, self._jobs = self._jobs, []
        self._per_task.clear()
        self._watermark = float("inf")
        return jobs
