"""Sanctioned wall-clock access for profiling instrumentation.

Simulation code must never read the wall clock: the reproduction's claims
(byte-identical ``jobs=4 == jobs=1`` fleet runs, per-seed repeatable
figure curves) require that every result be a pure function of the inputs
and the run seed.  hclint rule HC001 enforces this over ``rt/``,
``schedulers/``, ``vehicle/``, ``perception/``, ``workloads/`` and the
fleet worker.

Profiling instrumentation (per-stage latency of the *real* perception
algorithms, used to calibrate the simulator's execution-time models) is
the one legitimate wall-clock consumer.  It must take an injectable
``timer: Callable[[], float]`` and default it from here, so that

* the wall-clock read is centralized in a module that is explicitly
  outside the determinism boundary, and
* tests can substitute a fake timer and stay deterministic.
"""

from __future__ import annotations

import time
from typing import Callable

__all__ = ["Timer", "default_timer"]

#: A monotonic stopwatch: successive calls return non-decreasing seconds.
Timer = Callable[[], float]


def default_timer() -> Timer:
    """The process-wide monotonic wall clock (``time.perf_counter``)."""
    return time.perf_counter
