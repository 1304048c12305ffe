"""Apollo baseline — static processor binding + static priority.

"Apollo is the state-of-the-practice.  It binds different tasks to different
processors and then uses the statically assigned priority to select tasks for
execution." (paper §VII-A4)

Binding strategy: :meth:`ApolloScheduler.prepare` partitions tasks greedily
by estimated mean utilization (largest task first onto the least-loaded
processor) — the careful *offline* partitioning a Cyber RT deployment config
expresses — and keeps the partition in the scheduler; :meth:`eligible` then
admits each task on its one unit.  The partition is computed from offline
profile data (the execution-time models at their nominal context), so it is
exactly right for the nominal workload and exactly wrong when a task's
runtime cost doubles: the overloaded processor backs up while the others
idle — precisely the pathology the paper's motivation section demonstrates.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, List, Sequence

from ..rt.exectime import ExecContext
from ..rt.task import Job, TaskSpec
from ..rt.taskgraph import TaskGraph
from ..rt.view import ProcessorState
from .base import Scheduler, SystemView

__all__ = ["ApolloScheduler"]

#: The static priority ``p_i`` of a job's task.
_priority = attrgetter("task.priority")


class ApolloScheduler(Scheduler):
    """Fixed-priority dispatch with static task→processor binding."""

    name = "Apollo"

    #: Like the other baselines, Apollo executes whatever is queued and
    #: discards late outputs after the fact.  (Bounded channel depth — Cyber
    #: RT keeps only the most recent messages — is modelled platform-wide by
    #: ``SimConfig.max_pending_per_task``.)
    drop_expired = False

    def __init__(self) -> None:
        #: Task name -> index of the processor it is bound to.
        self._assigned: Dict[str, int] = {}

    def prepare(self, graph: TaskGraph, n_processors: int) -> None:
        """Bind every task by greedy offline utilization balancing.

        The partition is computed from offline profile data (each task's
        nominal mean cost × its steady-state rate), largest task first onto
        the least-loaded processor — the careful static partitioning a
        deployment config expresses.  It is exactly right for the nominal
        workload and exactly wrong when a task's runtime cost doubles: the
        overloaded processor backs up while the others idle, which is the
        paper's Apollo pathology (motivation §II and Fig. 13).
        """
        from ..workloads.profiles import effective_rates

        ctx = ExecContext(now=0.0, scene_complexity=0.0)
        eff = effective_rates(graph)
        cost = {spec.name: spec.exec_model.mean(ctx) * eff[spec.name] for spec in graph}
        load = [0.0] * n_processors
        self._assigned = {}
        # Stable: equal costs keep topological order.
        for spec in sorted(graph.topological_order(), key=lambda s: cost[s.name], reverse=True):
            proc = min(range(n_processors), key=load.__getitem__)
            self._assigned[spec.name] = proc
            load[proc] += cost[spec.name]

    def eligible(self, task: TaskSpec, processor: ProcessorState) -> bool:
        """Only the unit :meth:`prepare` bound the task to, within its affinity."""
        return self._assigned[task.name] == processor.index and super().eligible(task, processor)

    def rank(self, job: Job, now: float, view: SystemView) -> float:
        # Fixed priority between tasks, release order within a level — the
        # queue model of the paper's Fig. 3, where several cycles of the
        # same task wait in FIFO order.
        return _priority(job)

    def ranked(self, jobs: Sequence[Job], now: float, view: SystemView) -> List[Job]:
        # The key depends on the job alone: sort by it in C, no rank() per job.
        return sorted(jobs, key=_priority)
