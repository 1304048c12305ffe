"""End-to-end chain analysis from execution recordings.

Reconstructs, for each source→sink path of the task graph, the per-stage
queue waits and execution times from the execution spans of a
:class:`~repro.obs.recorder.Recorder`, and attributes the end-to-end
latency budget across stages — the tool for answering "*where* does the
pipeline lose its freshness under scheduler X?".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..obs.events import SpanEvent
from ..obs.recorder import Recorder
from ..rt.taskgraph import TaskGraph
from .report import format_table
from .stats import mean

__all__ = ["StageBudget", "ChainBudget", "chain_budget", "render_chain_budget"]


@dataclass(frozen=True)
class StageBudget:
    """Mean time attribution of one task in a chain."""

    task: str
    executions: int
    mean_wait: float
    mean_exec: float
    miss_ratio: float

    @property
    def mean_total(self) -> float:
        return self.mean_wait + self.mean_exec


@dataclass
class ChainBudget:
    """Latency attribution along one source→sink path."""

    path: List[str]
    stages: List[StageBudget]

    @property
    def total_wait(self) -> float:
        return sum(s.mean_wait for s in self.stages)

    @property
    def total_exec(self) -> float:
        return sum(s.mean_exec for s in self.stages)

    @property
    def total(self) -> float:
        """Mean per-stage latency summed along the path.

        A lower bound on the true end-to-end latency (AND-join phase waits
        between stages are not included), useful for *comparing* where the
        time goes across schedulers.
        """
        return self.total_wait + self.total_exec

    def bottleneck(self) -> Optional[StageBudget]:
        """The stage contributing the largest mean total time."""
        if not self.stages:
            return None
        return max(self.stages, key=lambda s: s.mean_total)


def _stage_from_spans(task: str, spans: List[SpanEvent]) -> StageBudget:
    if not spans:
        return StageBudget(task=task, executions=0, mean_wait=0.0,
                           mean_exec=0.0, miss_ratio=0.0)
    waits = [s.start - s.release for s in spans]
    execs = [s.finish - s.start for s in spans]
    misses = sum(1 for s in spans if s.outcome != "complete")
    return StageBudget(
        task=task,
        executions=len(spans),
        mean_wait=mean(waits),
        mean_exec=mean(execs),
        miss_ratio=misses / len(spans),
    )


def chain_budget(
    graph: TaskGraph,
    rec: Recorder,
    path: Optional[Sequence[str]] = None,
) -> ChainBudget:
    """Latency budget for one source→sink path of a recorded run.

    ``path`` defaults to the longest path (most stages) through the graph —
    typically the perception→control chain.
    """
    if path is None:
        chains = graph.chains()
        if not chains:
            raise ValueError("graph has no source→sink chains")
        path = max(chains, key=len)
    else:
        for name in path:
            graph.task(name)  # raises for unknown names
    by_task: Dict[str, List[SpanEvent]] = {}
    for span in rec.spans():
        by_task.setdefault(span.task, []).append(span)
    stages = [_stage_from_spans(name, by_task.get(name, [])) for name in path]
    return ChainBudget(path=list(path), stages=stages)


def render_chain_budget(budget: ChainBudget) -> str:
    """ASCII table of the per-stage attribution (milliseconds)."""
    rows = []
    for s in budget.stages:
        rows.append([
            s.task,
            s.executions,
            s.mean_wait * 1000,
            s.mean_exec * 1000,
            s.mean_total * 1000,
            s.miss_ratio,
        ])
    rows.append([
        "TOTAL (path sum)", "",
        budget.total_wait * 1000,
        budget.total_exec * 1000,
        budget.total * 1000,
        "",
    ])
    title = "Chain latency budget: " + " → ".join(budget.path)
    return format_table(
        title,
        ["stage", "runs", "wait (ms)", "exec (ms)", "total (ms)", "miss"],
        rows,
    )
