"""E2 — Fig. 5: the didactic schedule that motivates performance direction.

Three tasks × three control cycles on one processor, unit execution times.
A control command is generated when all three tasks of a cycle complete.
The deadline-driven ("adaptive") schedule meets every deadline but emits
commands at t = 7, 8, 9 s; the preferred schedule — what a
performance-directed scheduler produces when responsiveness matters —
emits them at t = 3, 6, 9 s, also meeting every deadline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..analysis.report import format_table

__all__ = [
    "EXPERIMENT_ID",
    "ToyJob",
    "PAPER_DEADLINES",
    "schedule_adaptive",
    "schedule_preferred",
    "command_times",
    "deadline_misses",
    "Fig05Result",
    "run",
    "render",
    "main",
]

EXPERIMENT_ID = "fig05_toy"


@dataclass(frozen=True)
class ToyJob:
    """One release ``t<task>-<cycle>`` of the toy example."""

    task: int  # 1..3
    cycle: int  # 1..3
    deadline: float
    exec_time: float = 1.0

    @property
    def label(self) -> str:
        return f"t{self.task}-{self.cycle}"


#: Absolute deadlines exactly as listed in §II.
PAPER_DEADLINES: Dict[Tuple[int, int], float] = {
    (1, 1): 1.0, (1, 2): 4.0, (1, 3): 7.0,
    (2, 1): 8.0, (2, 2): 9.0, (2, 3): 10.0,
    (3, 1): 11.0, (3, 2): 12.0, (3, 3): 13.0,
}


def paper_jobs() -> List[ToyJob]:
    """The nine jobs of the example."""
    return [
        ToyJob(task=task, cycle=cycle, deadline=d)
        for (task, cycle), d in sorted(PAPER_DEADLINES.items())
    ]


def _simulate(order: Sequence[ToyJob]) -> List[Tuple[ToyJob, float]]:
    """Run jobs back-to-back on one processor; returns (job, finish_time)."""
    t = 0.0
    out = []
    for job in order:
        t += job.exec_time
        out.append((job, t))
    return out


def schedule_adaptive(jobs: Sequence[ToyJob]) -> List[Tuple[ToyJob, float]]:
    """The adaptive/deadline-driven schedule of Fig. 5(a): EDF order."""
    return _simulate(sorted(jobs, key=lambda j: j.deadline))


def schedule_preferred(jobs: Sequence[ToyJob]) -> List[Tuple[ToyJob, float]]:
    """The preferred schedule of Fig. 5(b): finish whole cycles early.

    Cycle-major order (all of cycle 1, then cycle 2, …) completes each
    control command as soon as possible while — for these deadlines — still
    meeting every one of them.
    """
    return _simulate(sorted(jobs, key=lambda j: (j.cycle, j.task)))


def command_times(schedule: Sequence[Tuple[ToyJob, float]]) -> List[float]:
    """Completion time of each control cycle (all three tasks finished)."""
    finish: Dict[int, List[float]] = {}
    for job, t in schedule:
        finish.setdefault(job.cycle, []).append(t)
    return [max(times) for cycle, times in sorted(finish.items())]


def deadline_misses(schedule: Sequence[Tuple[ToyJob, float]]) -> List[str]:
    """Labels of jobs finishing after their deadline (empty = all met)."""
    return [job.label for job, t in schedule if t > job.deadline]


@dataclass
class Fig05Result:
    adaptive_commands: List[float]
    preferred_commands: List[float]
    adaptive_misses: List[str]
    preferred_misses: List[str]


def run() -> Fig05Result:
    """Build both schedules and extract the paper's headline numbers."""
    jobs = paper_jobs()
    adaptive = schedule_adaptive(jobs)
    preferred = schedule_preferred(jobs)
    return Fig05Result(
        adaptive_commands=command_times(adaptive),
        preferred_commands=command_times(preferred),
        adaptive_misses=deadline_misses(adaptive),
        preferred_misses=deadline_misses(preferred),
    )


def render(result: Fig05Result) -> str:
    return format_table(
        "Fig. 5 — control-command times under the two schedules "
        "(paper: adaptive 7,8,9 s; preferred 3,6,9 s)",
        ["schedule", "cmd 1 (s)", "cmd 2 (s)", "cmd 3 (s)", "deadline misses"],
        [
            ["adaptive (Fig. 5a)"] + [f"{t:g}" for t in result.adaptive_commands]
            + [", ".join(result.adaptive_misses) or "none"],
            ["preferred (Fig. 5b)"] + [f"{t:g}" for t in result.preferred_commands]
            + [", ".join(result.preferred_misses) or "none"],
        ],
    )


def main(seed: int = 0) -> str:  # pragma: no cover - CLI glue
    """``seed`` is unused: the toy schedule draws no random numbers."""
    out = render(run())
    print(out)
    return out
