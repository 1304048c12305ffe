"""HPF — High Priority First (paper baseline [25]).

Each task is assigned a priority offline; the highest-priority (smallest
``p_i``) ready job is executed next, non-preemptively.  Release order breaks
ties, so the policy is deterministic.
"""

from __future__ import annotations

from operator import attrgetter
from typing import List, Sequence

from ..rt.task import Job
from .base import Scheduler, SystemView

__all__ = ["HPFScheduler"]

#: The static priority ``p_i`` of a job's task.
_priority = attrgetter("task.priority")


class HPFScheduler(Scheduler):
    """Static-priority, non-preemptive dispatch."""

    name = "HPF"

    def rank(self, job: Job, now: float, view: SystemView) -> float:
        return _priority(job)

    def ranked(self, jobs: Sequence[Job], now: float, view: SystemView) -> List[Job]:
        # The key depends on the job alone: sort by it in C, no rank() per job.
        return sorted(jobs, key=_priority)
