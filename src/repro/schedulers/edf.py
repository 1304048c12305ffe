"""EDF — Earliest Deadline First (Liu & Layland [21]).

Priority is the job's absolute deadline: the job whose deadline is nearest
runs next.  Under the non-preemptive multiprocessor model of this repo, EDF
is a heuristic (global non-preemptive EDF is not optimal), matching how the
paper deploys it as a baseline.
"""

from __future__ import annotations

from operator import attrgetter
from typing import List, Sequence

from ..rt.task import Job
from .base import Scheduler, SystemView

__all__ = ["EDFScheduler"]

_deadline = attrgetter("absolute_deadline")


class EDFScheduler(Scheduler):
    """Global non-preemptive earliest-deadline-first."""

    name = "EDF"

    def rank(self, job: Job, now: float, view: SystemView) -> float:
        return _deadline(job)

    def ranked(self, jobs: Sequence[Job], now: float, view: SystemView) -> List[Job]:
        # The key depends on the job alone: sort by it in C, no rank() per job.
        return sorted(jobs, key=_deadline)
