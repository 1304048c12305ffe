"""EDF-VD — EDF with Virtual Deadlines (mixed criticality, paper baseline [8]).

High-criticality tasks have their deadlines shortened by a scaling factor
``x ∈ (0, 1]``; at runtime every job is ranked by EDF using the (virtual or
actual) deadline.  Low-criticality tasks keep their actual deadlines.

The canonical EDF-VD computes ``x`` from the low/high-mode utilizations; in
an AD task graph with data-driven activations the per-mode utilizations are
not statically defined, so we expose ``x`` as a constructor parameter with a
default derived the usual way when utilization hints are supplied.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, cast

from ..rt.task import Criticality, Job
from ..rt.taskgraph import TaskGraph
from .base import Scheduler, SystemView

__all__ = ["EDFVDScheduler", "virtual_deadline_factor"]


def virtual_deadline_factor(u_lo_lo: float, u_hi_lo: float) -> float:
    """Classical EDF-VD scaling factor ``x = u_hi_lo / (1 − u_lo_lo)``.

    ``u_lo_lo`` is the utilization of low-criticality tasks in low mode and
    ``u_hi_lo`` the utilization of high-criticality tasks in low mode.  The
    result is clamped to ``(0, 1]``; degenerate inputs fall back to 1.0
    (no shortening).
    """
    if not (0.0 <= u_lo_lo < 1.0):
        return 1.0
    x = u_hi_lo / (1.0 - u_lo_lo)
    if x <= 0.0 or x > 1.0:
        return 1.0
    return x


class EDFVDScheduler(Scheduler):
    """EDF with shortened (virtual) deadlines for high-criticality tasks.

    Parameters
    ----------
    x:
        Virtual-deadline scaling factor in ``(0, 1]``, or ``None`` to derive
        it from the graph's low/high-criticality utilizations at
        :meth:`prepare` time (the classical EDF-VD construction, using the
        profile means and AND-activation effective rates).  A
        high-criticality job released at ``t`` is ranked by ``t + x·D_i``;
        low-criticality jobs by their actual deadline.
    """

    name = "EDF-VD"

    def __init__(self, x: Optional[float] = 0.75) -> None:
        if x is not None and not (0.0 < x <= 1.0):
            raise ValueError(f"virtual deadline factor must be in (0, 1], got {x}")
        self.x = x
        self.effective_x = x if x is not None else 1.0
        self._virtual_deadline: Dict[str, float] = {}

    def _derive_x(self, graph: TaskGraph, n_processors: int) -> float:
        """Classical x from the per-criticality utilizations of the graph."""
        from ..rt.exectime import ExecContext
        from ..workloads.profiles import effective_rates

        ctx = ExecContext()
        eff = effective_rates(graph)
        u_lo = u_hi = 0.0
        for spec in graph:
            util = spec.exec_model.mean(ctx) * eff[spec.name] / n_processors
            if spec.criticality is Criticality.HIGH:
                u_hi += util
            else:
                u_lo += util
        return virtual_deadline_factor(u_lo, u_hi)

    def prepare(self, graph: TaskGraph, n_processors: int) -> None:
        self.effective_x = self.x if self.x is not None else self._derive_x(
            graph, n_processors
        )
        self._virtual_deadline = {
            spec.name: (
                self.effective_x * spec.relative_deadline
                if spec.criticality is Criticality.HIGH
                else spec.relative_deadline
            )
            for spec in graph
        }

    def _keys(self, jobs: Sequence[Job]) -> List[float]:
        """Each job's (virtual) absolute deadline, in one comprehension."""
        vd = self._virtual_deadline
        return [j.release_time + vd.get(j.task.name, j.task.relative_deadline) for j in jobs]

    def rank(self, job: Job, now: float, view: SystemView) -> float:
        return self._keys((job,))[0]

    def ranked(self, jobs: Sequence[Job], now: float, view: SystemView) -> List[Job]:
        # The key depends on the job alone: compute them all at once, then
        # let sorted() draw each off an iterator (it asks in queue order).
        key = cast("Callable[[Job], float]", partial(next, iter(self._keys(jobs))))
        return sorted(jobs, key=key)
