"""Metrics recorders for the real-time substrate.

Collects the quantities the paper's evaluation reports:

* **deadline miss ratio** ``m(k)`` per coordination period (Figs. 13(d),
  15(d), 18(b)) and cumulatively,
* **response time** of the control task — "the duration between the release
  and execution of the control task" (§VII-C),
* **throughput** of control commands (commands per second),
* per-task release/completion/miss/drop counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .task import Job

__all__ = ["TaskStats", "WindowSample", "MetricsRecorder"]


@dataclass
class TaskStats:
    """Per-task counters."""

    released: int = 0
    completed: int = 0
    missed: int = 0
    dropped: int = 0  # subset of missed: never executed, expired in queue

    @property
    def finished(self) -> int:
        return self.completed + self.missed

    @property
    def miss_ratio(self) -> float:
        """Fraction of finished jobs that missed their deadline."""
        if self.finished == 0:
            return 0.0
        return self.missed / self.finished


@dataclass
class WindowSample:
    """One coordination-window snapshot of system-level counters."""

    t_start: float
    t_end: float
    completed: int
    missed: int
    control_commands: int
    utilization: float = 0.0  # mean processor-busy fraction in the window

    @property
    def miss_ratio(self) -> float:
        finished = self.completed + self.missed
        if finished == 0:
            return 0.0
        return self.missed / finished

    @property
    def throughput(self) -> float:
        """Control commands per second within the window."""
        width = self.t_end - self.t_start
        if width <= 0:
            return 0.0
        return self.control_commands / width


class MetricsRecorder:
    """Accumulates scheduling events and exposes windowed miss ratios.

    The executor reports every job completion/miss and every control command;
    :meth:`close_window` is called once per coordination period and returns
    the window's :class:`WindowSample` — the ``m(k)`` fed to the Task Rate
    Adapter.
    """

    def __init__(self) -> None:
        self.per_task: Dict[str, TaskStats] = {}
        self.windows: List[WindowSample] = []
        self.control_events: List[Tuple[float, float]] = []  # (time, response)
        self._win_start = 0.0
        self._win_completed = 0
        self._win_missed = 0
        self._win_commands = 0
        self._total_completed = 0
        self._total_missed = 0

    def _first_stats(self, name: str) -> TaskStats:
        stats = self.per_task[name] = TaskStats()
        return stats

    # ------------------------------------------------------------------
    # Event ingestion (called by the executor)
    # ------------------------------------------------------------------
    # One dict lookup per event.  A task's first event creates its stats on
    # the KeyError path, so per_task stays in first-seen order.
    def on_release(self, job: Job) -> None:
        name = job.task.name
        try:
            self.per_task[name].released += 1
        except KeyError:
            self._first_stats(name).released += 1

    def on_complete(self, job: Job) -> None:
        name = job.task.name
        try:
            self.per_task[name].completed += 1
        except KeyError:
            self._first_stats(name).completed += 1
        self._win_completed += 1
        self._total_completed += 1

    def on_miss(self, job: Job, dropped: bool) -> None:
        name = job.task.name
        try:
            stats = self.per_task[name]
        except KeyError:
            stats = self._first_stats(name)
        stats.missed += 1
        if dropped:
            stats.dropped += 1
        self._win_missed += 1
        self._total_missed += 1

    def on_control_command(self, time: float, response_time: float) -> None:
        """A sink (control) job completed in time and produced a command."""
        self.control_events.append((time, response_time))
        self._win_commands += 1

    # ------------------------------------------------------------------
    # Windowing
    # ------------------------------------------------------------------
    def close_window(self, now: float, utilization: float = 0.0) -> WindowSample:
        """Finish the current coordination window and start a new one."""
        sample = WindowSample(
            t_start=self._win_start,
            t_end=now,
            completed=self._win_completed,
            missed=self._win_missed,
            control_commands=self._win_commands,
            utilization=utilization,
        )
        self.windows.append(sample)
        self._win_start = now
        self._win_completed = 0
        self._win_missed = 0
        self._win_commands = 0
        return sample

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def total_finished(self) -> int:
        return self._total_completed + self._total_missed

    @property
    def overall_miss_ratio(self) -> float:
        """Cumulative miss ratio over the whole run."""
        if self.total_finished == 0:
            return 0.0
        return self._total_missed / self.total_finished

    def miss_ratio_series(self) -> List[Tuple[float, float]]:
        """``(window_end_time, miss_ratio)`` pairs — Fig. 13(d)/15(d) series."""
        return [(w.t_end, w.miss_ratio) for w in self.windows]

    def control_response_times(self) -> List[float]:
        """Response times of all in-time control commands."""
        return [r for (_, r) in self.control_events]

    def mean_control_response(self) -> float:
        times = self.control_response_times()
        if not times:
            return 0.0
        return sum(times) / len(times)

    def control_throughput(self, horizon: float) -> float:
        """Control commands per second over the whole run."""
        if horizon <= 0:
            return 0.0
        return len(self.control_events) / horizon
