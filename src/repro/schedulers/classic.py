"""Additional classic baselines beyond the paper's four: RM and FIFO.

Not part of the paper's evaluation, but standard reference points when
studying new workloads with the framework (``examples/random_workload_demo``
and the sweep harness can include them).
"""

from __future__ import annotations

import math
from functools import partial
from operator import attrgetter
from typing import Callable, Dict, List, Sequence, cast

from ..rt.task import Job
from ..rt.taskgraph import TaskGraph
from .base import Scheduler, SystemView

__all__ = ["RateMonotonicScheduler", "FIFOScheduler"]

_release_time = attrgetter("release_time")


class RateMonotonicScheduler(Scheduler):
    """Rate-Monotonic: shorter effective period = higher priority.

    Non-source tasks inherit the AND-activation effective rate (the minimum
    over their source ancestors), computed once at :meth:`prepare` from the
    graph's configured rates — the classical static-priority assignment
    lifted to DAG workloads.
    """

    name = "RM"

    def __init__(self) -> None:
        self._period: Dict[str, float] = {}

    def prepare(self, graph: TaskGraph, n_processors: int) -> None:
        from ..workloads.profiles import effective_rates

        self._period = {
            name: 1.0 / rate for name, rate in effective_rates(graph).items()
        }

    def _keys(self, jobs: Sequence[Job]) -> List[float]:
        """Each job's effective period, in one comprehension."""
        period = self._period
        # Unknown tasks (never prepared) sort last.
        return [period.get(j.task.name, math.inf) for j in jobs]

    def rank(self, job: Job, now: float, view: SystemView) -> float:
        return self._keys((job,))[0]

    def ranked(self, jobs: Sequence[Job], now: float, view: SystemView) -> List[Job]:
        # The key depends on the job alone: compute them all at once, then
        # let sorted() draw each off an iterator (it asks in queue order).
        key = cast("Callable[[Job], float]", partial(next, iter(self._keys(jobs))))
        return sorted(jobs, key=key)


class FIFOScheduler(Scheduler):
    """First-in-first-out: release order, nothing else.

    The weakest sensible baseline — it establishes the floor that any
    priority/deadline awareness must beat.
    """

    name = "FIFO"

    def rank(self, job: Job, now: float, view: SystemView) -> float:
        return _release_time(job)

    def ranked(self, jobs: Sequence[Job], now: float, view: SystemView) -> List[Job]:
        # The key depends on the job alone: sort by it in C, no rank() per job.
        return sorted(jobs, key=_release_time)
