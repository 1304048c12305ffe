"""Event plumbing for the discrete-event executor.

An allocation-free event heap: events are plain ``(time, seq, kind,
payload)`` tuples in a ``heapq``; ``seq`` breaks time ties in insertion
order so runs are fully deterministic, and it is unique, so the heap never
compares ``kind`` or ``payload``.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from typing import Any, List, Sequence, Tuple

__all__ = ["EventKind", "EventHeap"]


class EventKind(enum.Enum):
    """The three event classes driving the simulation."""

    SOURCE_RELEASE = "source_release"  # periodic release of a sensing task
    JOB_FINISH = "job_finish"  # a processor completes its current job
    PERIODIC = "periodic"  # registered callback (plant step, coordination)


class EventHeap:
    """Deterministic min-heap of timed events."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, EventKind, Any]] = []
        self._seq = itertools.count()

    def push(self, time: float, kind: EventKind, payload: Any = None) -> None:
        """Schedule an event of ``kind`` at absolute simulated ``time``."""
        if not time >= 0:  # NaN fails it too, and would break the heap order
            raise ValueError(f"cannot schedule event at time {time}: must be >= 0")
        heapq.heappush(self._heap, (time, next(self._seq), kind, payload))

    @property
    def entries(self) -> Sequence[Tuple[float, int, EventKind, Any]]:
        """The pending events in heap order: live, not a copy, and read-only.

        The heap never rebinds this list, so its truthiness tells a caller
        that holds it whether events remain, without a call per check.
        """
        return self._heap

    def pop(self) -> Tuple[float, EventKind, Any]:
        """Remove and return the earliest ``(time, kind, payload)``."""
        time, _, kind, payload = heapq.heappop(self._heap)
        return time, kind, payload

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
