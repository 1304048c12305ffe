"""Ready queue shared by all schedulers.

The ready queue holds released-but-not-yet-dispatched jobs.  Jobs from
different control cycles coexist (paper Fig. 3), so the queue is an unordered
pool that schedulers rank at dispatch time with their own key functions —
priorities are *recomputed* per dispatch (HCPerf's dynamic priority depends on
``now`` and on the current ``γ``), so a static heap would be wrong.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional

from .task import Job

__all__ = ["ReadyQueue"]


class ReadyQueue:
    """Pool of ready jobs with dispatch-time ranking.

    The queue preserves insertion (release) order for determinism: when two
    jobs tie under a scheduler's key, the earlier-released job wins.
    """

    def __init__(self) -> None:
        self._jobs: List[Job] = []

    def push(self, job: Job) -> None:
        """Add a released job to the pool."""
        self._jobs.append(job)

    def remove(self, job: Job) -> None:
        """Remove a specific job (after dispatch or drop)."""
        self._jobs.remove(job)

    def __len__(self) -> int:
        return len(self._jobs)

    def __bool__(self) -> bool:
        return bool(self._jobs)

    def __iter__(self) -> Iterator[Job]:
        return iter(self._jobs)

    def __contains__(self, job: Job) -> bool:
        return job in self._jobs

    def jobs(self) -> List[Job]:
        """Snapshot of queued jobs in release order."""
        return list(self._jobs)

    def pop_best(
        self,
        key: Callable[[Job], float],
        predicate: Optional[Callable[[Job], bool]] = None,
    ) -> Optional[Job]:
        """Remove and return the job minimizing ``key``.

        ``predicate`` restricts the choice to jobs it admits — the executor
        passes the active scheduler's per-processor eligibility check
        (static binding + typed-unit affinity) here.  The filter preserves
        release order, so ties under ``key`` still break toward the earlier
        release (stable ``min``).  Returns ``None`` when no eligible job
        exists.
        """
        candidates = self._jobs
        if predicate is not None:
            candidates = [j for j in candidates if predicate(j)]
        if not candidates:
            return None
        best = min(candidates, key=key)
        self._jobs.remove(best)
        return best

    def drop_expired(self, now: float) -> List[Job]:
        """Remove and return jobs whose absolute deadline already passed.

        The paper discards the output of a task that cannot complete within
        its deadline; dropping such jobs before they occupy a processor is
        what keeps the queue bounded under overload (DESIGN.md §2).
        """
        expired = [j for j in self._jobs if j.is_expired(now)]
        for job in expired:
            self._jobs.remove(job)
        return expired

    def clear(self) -> List[Job]:
        """Empty the queue, returning the removed jobs."""
        jobs, self._jobs = self._jobs, []
        return jobs
