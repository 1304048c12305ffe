"""Outside-in per-layer tracer for the end-to-end benchmark.

The tracer wraps public methods of the program's layers (``rt``,
``schedulers``, ``core``, ``vehicle``, ``obs``) inside the benchmark's own
child process, so no file under ``src/`` carries timing code and an
untraced run executes exactly the program's code path.  Only ``child.py``
imports this module, and only for the one traced repeat per workload.

Each wrapped call pushes a child-time accumulator on a stack, so a layer's
self time is its span minus the time its wrapped callees took.  Boundary
calls also keep a span (name, start, duration) in flat arrays capped at
``SPAN_CAP``; the hot leaf calls (``rank``, ``eligible``, execution-time
estimates and observations, MFC observations, recorder emission) are
aggregated online only.  The spans are written at exit as a gzipped Chrome
trace (``chrome://tracing``, Perfetto).
"""

from __future__ import annotations

import gzip
import json
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

#: Largest number of boundary spans kept in memory for the Chrome trace.
SPAN_CAP = 200_000

#: γ-search queue-depth histogram buckets: (metric suffix, lowest depth).
DEPTH_BUCKETS = (
    ("depth_1", 1),
    ("depth_2", 2),
    ("depth_3_4", 3),
    ("depth_5_8", 5),
    ("depth_9_16", 9),
    ("depth_17_up", 17),
)

#: Work counters recorded at the wrapped boundaries; all start at 0, so a
#: layer a workload never reaches still reports its counts.
COUNTERS = (
    "rt.executor.events",
    "rt.queue.pop_best.scanned",
    "rt.queue.pop_best.empty",
    "rt.queue.drop_expired.dropped",
    "core.dynamic_priority.resolve.overloaded",
) + tuple(f"core.dynamic_priority.resolve.{suffix}" for suffix, _ in DEPTH_BUCKETS)

#: ``obs.Recorder`` emission helpers, aggregated as ``obs.recorder``.
RECORDER_METHODS = (
    "release",
    "span",
    "drop",
    "unresolved",
    "gamma",
    "controller",
    "rate_adapter",
    "rate",
    "window",
    "control",
    "fault",
)

Counter = Callable[[tuple, Any], None]


class Tracer:
    """Call counts, inclusive and self host time per layer, plus spans."""

    def __init__(self) -> None:
        #: name -> [calls, inclusive seconds, self seconds]
        self.stats: Dict[str, List[float]] = {}
        #: Work counters recorded at the same boundaries (name -> count).
        self.counts: Dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.spans_dropped = 0
        self._stack: List[float] = []
        self._names: List[str] = []
        self._span_name = array("i")
        self._span_start = array("d")
        self._span_dur = array("d")
        self._origin = time.perf_counter()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        span: bool = True,
        counter: Optional[Counter] = None,
    ) -> Callable[..., Any]:
        """``fn`` timed as layer ``name``; ``counter(args, result)`` runs untimed."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        perf = time.perf_counter
        if name not in self._names:
            self._names.append(name)
        name_id = self._names.index(name)

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - child
                if span:
                    self._keep(name_id, t0, dt, outermost=not stack)
            if counter is not None:
                counter(args, result)
            return result

        return traced

    def _keep(self, name_id: int, start: float, dur: float, outermost: bool) -> None:
        # Spans are kept as they end, so the outermost ones come last; they
        # are few and always kept, so a full buffer still has its roots.
        if len(self._span_name) >= SPAN_CAP and not outermost:
            self.spans_dropped += 1
            return
        self._span_name.append(name_id)
        self._span_start.append(start)
        self._span_dur.append(dur)

    def write_chrome(self, path: Path) -> None:
        """Write the kept spans as a gzipped Chrome ``trace_event`` file.

        Events are streamed one at a time, so writing 200k spans does not
        build them all in memory first.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = zip(self._span_name, self._span_start, self._span_dur)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write('{"displayTimeUnit": "ms", "traceEvents": [')
            for i, (n, start, dur) in enumerate(spans):
                event = {
                    "name": self._names[n],
                    "ph": "X",
                    "ts": (start - self._origin) * 1e6,
                    "dur": dur * 1e6,
                    "pid": 1,
                    "tid": 1,
                }
                fh.write(("," if i else "") + json.dumps(event))
            fh.write("]}")

    def layer_metrics(self) -> Dict[str, float]:
        """``<layer>.calls|ms|self_ms`` for every wrapped layer, plus counters."""
        out: Dict[str, float] = {}
        for name, (calls, total, own) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.ms"] = total * 1e3
            out[f"{name}.self_ms"] = own * 1e3
        out.update(self.counts)
        out["trace.spans"] = len(self._span_name)
        out["trace.spans_dropped"] = self.spans_dropped
        return out


def _patch(tracer: Tracer, targets: List[tuple]) -> None:
    """Replace ``cls.method`` by its traced version for every target.

    Every original is looked up before any class is patched, so a method a
    class inherits from another patched class is wrapped exactly once.
    """
    originals = [getattr(cls, method) for cls, method, *_ in targets]
    for (cls, method, name, span, counter), fn in zip(targets, originals):
        setattr(cls, method, tracer.wrap(fn, name, span=span, counter=counter))


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of the program, in this process only."""
    from repro.core.dynamic_priority import DynamicPriorityPolicy
    from repro.core.mfc import ModelFreeController
    from repro.core.rate_adapter import TaskRateAdapter
    from repro.obs.recorder import Recorder
    from repro.rt.events import EventHeap
    from repro.rt.exectime import ExecTimeObserver
    from repro.rt.executor import RTExecutor
    from repro.rt.metrics import MetricsRecorder
    from repro.rt.queue import ReadyQueue
    from repro.schedulers import SCHEDULERS
    from repro.vehicle.car_following import CarFollowingPlant
    from repro.vehicle.lane_keeping import LaneKeepingPlant

    def pop_best(args: tuple, job: Any) -> None:
        # The queue has already lost the popped job: add it back for the
        # number of candidates this call scanned.
        tracer.count("rt.queue.pop_best.scanned", len(args[0]) + (job is not None))
        if job is None:
            tracer.count("rt.queue.pop_best.empty")

    def drop_expired(args: tuple, dropped: Any) -> None:
        tracer.count("rt.queue.drop_expired.dropped", len(dropped))

    def resolve(args: tuple, result: Any) -> None:
        depth = len(args[2])  # (self, u, jobs, ...)
        if result.overloaded:
            tracer.count("core.dynamic_priority.resolve.overloaded")
        for suffix, lowest in reversed(DEPTH_BUCKETS):
            if depth >= lowest:
                tracer.count(f"core.dynamic_priority.resolve.{suffix}")
                break

    targets: List[tuple] = [
        (RTExecutor, "run", "rt.executor.run", True, None),
        (ReadyQueue, "pop_best", "rt.queue.pop_best", True, pop_best),
        (ReadyQueue, "drop_expired", "rt.queue.drop_expired", True, drop_expired),
        (ExecTimeObserver, "estimate", "rt.exectime.estimate", False, None),
        (ExecTimeObserver, "observe", "rt.exectime.observe", False, None),
        (MetricsRecorder, "close_window", "rt.metrics.close_window", True, None),
        (DynamicPriorityPolicy, "resolve", "core.dynamic_priority.resolve", True, resolve),
        (ModelFreeController, "observe", "core.mfc.observe", False, None),
        (ModelFreeController, "update", "core.mfc.update", True, None),
        (TaskRateAdapter, "update", "core.rate_adapter.update", True, None),
    ]
    for plant in (CarFollowingPlant, LaneKeepingPlant):
        targets.append((plant, "step", "vehicle.step", True, None))
        targets.append((plant, "compute_command", "vehicle.compute_command", True, None))
    for cls in dict.fromkeys(SCHEDULERS.values()):
        targets.append((cls, "rank", "schedulers.rank", False, None))
        targets.append((cls, "eligible", "schedulers.eligible", False, None))
        targets.append((cls, "on_dispatch_round", "schedulers.on_dispatch_round", True, None))
        targets.append((cls, "on_window", "schedulers.on_window", True, None))
    for method in RECORDER_METHODS:
        targets.append((Recorder, method, "obs.recorder", False, None))
    _patch(tracer, targets)

    # Events are counted, not timed: timing the heap pop would double the
    # cost of the cheapest call in the loop.
    pop = EventHeap.pop
    counts = tracer.counts

    def counted_pop(self: EventHeap) -> Any:
        counts["rt.executor.events"] += 1
        return pop(self)

    EventHeap.pop = counted_pop  # type: ignore[method-assign]
