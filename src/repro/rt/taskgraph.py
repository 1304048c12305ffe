"""Directed-acyclic task graph with precedence constraints.

The dependencies among autonomous-driving tasks are modeled as a DAG (paper
§III-A): edge ``e_{i,j}`` means task ``j`` may only release once task ``i``
has delivered a fresh output.  Source tasks (no incoming edges) are sensing
tasks with configurable rates; sink tasks (no outgoing edges) are control
tasks.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set, Tuple

from .task import TaskKind, TaskSpec

__all__ = ["TaskGraph", "GraphError"]


class GraphError(ValueError):
    """Raised when a task graph violates a structural invariant."""


class TaskGraph:
    """A DAG of :class:`~repro.rt.task.TaskSpec` nodes.

    The graph owns the task specs: tasks are registered with
    :meth:`add_task` and wired with :meth:`add_edge`.  :meth:`validate`
    checks acyclicity and that every source task has a rate; the executor
    calls it before starting a run.

    Examples
    --------
    >>> from repro.rt.task import TaskSpec
    >>> from repro.rt.exectime import ConstantExecTime
    >>> g = TaskGraph()
    >>> g.add_task(TaskSpec("camera", priority=5, relative_deadline=0.1,
    ...                     exec_model=ConstantExecTime(0.01), rate=10.0))
    >>> g.add_task(TaskSpec("control", priority=1, relative_deadline=0.1,
    ...                     exec_model=ConstantExecTime(0.005)))
    >>> g.add_edge("camera", "control")
    >>> g.validate()
    >>> [t.name for t in g.sources()]
    ['camera']
    >>> [t.name for t in g.sinks()]
    ['control']
    """

    def __init__(self) -> None:
        self._tasks: Dict[str, TaskSpec] = {}
        self._succ: Dict[str, Set[str]] = {}
        self._pred: Dict[str, Set[str]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_task(self, spec: TaskSpec) -> TaskSpec:
        """Register a task.  Raises :class:`GraphError` on duplicate names."""
        if spec.name in self._tasks:
            raise GraphError(f"duplicate task name {spec.name!r}")
        self._tasks[spec.name] = spec
        self._succ[spec.name] = set()
        self._pred[spec.name] = set()
        return spec

    def add_edge(self, src: str, dst: str) -> None:
        """Add precedence edge ``src → dst`` (``dst`` waits for ``src``)."""
        if src not in self._tasks:
            raise GraphError(f"unknown task {src!r}")
        if dst not in self._tasks:
            raise GraphError(f"unknown task {dst!r}")
        if src == dst:
            raise GraphError(f"self-loop on {src!r}")
        self._succ[src].add(dst)
        self._pred[dst].add(src)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._tasks

    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[TaskSpec]:
        return iter(self._tasks.values())

    def task(self, name: str) -> TaskSpec:
        """Look up a task by name."""
        try:
            return self._tasks[name]
        except KeyError:
            raise GraphError(f"unknown task {name!r}") from None

    def tasks(self) -> List[TaskSpec]:
        """All tasks, in insertion order."""
        return list(self._tasks.values())

    def names(self) -> List[str]:
        return list(self._tasks)

    def ipred(self, name: str) -> List[TaskSpec]:
        """Immediate predecessors ``ipred(τ_i)`` (paper §III-A)."""
        self.task(name)
        return [self._tasks[p] for p in sorted(self._pred[name])]

    def isucc(self, name: str) -> List[TaskSpec]:
        """Immediate successors."""
        self.task(name)
        return [self._tasks[s] for s in sorted(self._succ[name])]

    def kind(self, name: str) -> TaskKind:
        """Structural role of a task (source / intermediate / sink)."""
        self.task(name)
        if not self._pred[name]:
            return TaskKind.SOURCE
        if not self._succ[name]:
            return TaskKind.SINK
        return TaskKind.INTERMEDIATE

    def sources(self) -> List[TaskSpec]:
        """Tasks without incoming edges (sensing tasks)."""
        return [t for t in self if not self._pred[t.name]]

    def sinks(self) -> List[TaskSpec]:
        """Tasks without outgoing edges (control tasks)."""
        return [t for t in self if not self._succ[t.name]]

    def edges(self) -> List[Tuple[str, str]]:
        """All edges as ``(src, dst)`` pairs, deterministically ordered."""
        return [(s, d) for s in self._tasks for d in sorted(self._succ[s])]

    # ------------------------------------------------------------------
    # Structural algorithms
    # ------------------------------------------------------------------
    def topological_order(self) -> List[TaskSpec]:
        """Kahn's algorithm; raises :class:`GraphError` on a cycle."""
        indeg = {name: len(self._pred[name]) for name in self._tasks}
        frontier = [name for name in self._tasks if indeg[name] == 0]
        order: List[TaskSpec] = []
        while frontier:
            name = frontier.pop(0)
            order.append(self._tasks[name])
            for succ in sorted(self._succ[name]):
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    frontier.append(succ)
        if len(order) != len(self._tasks):
            cyclic = sorted(name for name, d in indeg.items() if d > 0)
            raise GraphError(f"cycle detected among tasks: {cyclic}")
        return order

    def ancestors(self, name: str) -> Set[str]:
        """All transitive predecessors of ``name``."""
        self.task(name)
        seen: Set[str] = set()
        stack = list(self._pred[name])
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(self._pred[cur])
        return seen

    def chains(self) -> List[List[str]]:
        """Every source→sink path, each a list of task names.

        Used for end-to-end latency accounting.  Exponential in the worst
        case, but AD task graphs are small (23 tasks in the paper).
        """
        paths: List[List[str]] = []

        def walk(name: str, path: List[str]) -> None:
            path = path + [name]
            succ = sorted(self._succ[name])
            if not succ:
                paths.append(path)
                return
            for nxt in succ:
                walk(nxt, path)

        for src in self.sources():
            walk(src.name, [])
        return paths

    def critical_path_length(self, exec_estimates: Dict[str, float]) -> float:
        """Longest source→sink path weighted by per-task execution times."""
        longest: Dict[str, float] = {}
        for spec in self.topological_order():
            c = exec_estimates.get(spec.name, 0.0)
            preds = self._pred[spec.name]
            base = max((longest[p] for p in preds), default=0.0)
            longest[spec.name] = base + c
        return max(longest.values(), default=0.0)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check the invariants the executor relies on.

        * the graph is non-empty and acyclic,
        * every source task has a rate (sensing tasks are periodic),
        * no non-source task carries a rate (they are activated by data),
        * there is at least one sink (control) task.
        """
        if not self._tasks:
            raise GraphError("empty task graph")
        self.topological_order()  # raises on cycle
        for spec in self:
            k = self.kind(spec.name)
            if k is TaskKind.SOURCE and spec.rate is None:
                raise GraphError(f"source task {spec.name!r} has no rate")
            if k is not TaskKind.SOURCE and spec.rate is not None:
                raise GraphError(
                    f"non-source task {spec.name!r} must not have a rate "
                    "(it is activated by its predecessors)"
                )
        if not self.sinks():
            raise GraphError("graph has no sink (control) task")

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    def summary(self) -> str:
        """Human-readable one-line-per-task summary."""
        rows = []
        for spec in self.topological_order():
            kind = self.kind(spec.name).value
            rate = f"{spec.rate:g}Hz" if spec.rate is not None else "-"
            rows.append(
                f"{spec.name:<28} kind={kind:<12} p={spec.priority:<3} "
                f"D={spec.relative_deadline:g}s rate={rate}"
            )
        return "\n".join(rows)
