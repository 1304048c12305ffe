"""Trace-invariant checker: structural soundness of any recording.

Every invariant is a pure function over a :class:`~repro.obs.recorder.Recorder`
returning :class:`Violation` records (empty = clean).  The catalog
(docs/observability.md) covers the engine guarantees the paper's claims
rest on:

========  ==============================================================
OBS001    per-processor busy intervals never overlap (non-preemptive
          executor, one job per processor at a time)
OBS002    span timestamps are ordered: release ≤ start ≤ finish, and the
          event stream itself is non-decreasing in ``t``
OBS003    release/resolution bijection — every job release resolves to
          exactly one of {complete, miss, kill, drop, unresolved-at-end},
          and nothing resolves without (or before) a release
OBS004    span outcomes match the deadline: ``complete`` iff the finish
          is at or before the absolute deadline (kills exempt)
OBS005    γ stays in [0, γ_max]: every γ event satisfies
          ``0 ≤ γ ≤ γ_max`` (and ``γ ≤ γ_cap`` when the meta carries one)
OBS006    overload flags imply Eq. (11) infeasibility: ``overloaded`` ⟺
          no feasible γ_max, and an overloaded resolution forces γ = 0
          (the Eq. (12) fallback to pure deadline-driven scheduling)
OBS007    coordination windows tile the run: consecutive windows share
          their boundary and never run backwards
OBS008    window counters reconcile with the event stream: summed window
          completions/misses match the recorded resolutions (modulo
          events at the final window boundary and after the last window)
OBS009    applied rate retunes stay inside each task's allowable range
========  ==============================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from .events import (
    DropEvent,
    GammaEvent,
    RateEvent,
    ReleaseEvent,
    SpanEvent,
    UnresolvedEvent,
    WindowEvent,
)
from .recorder import Recorder

__all__ = ["Violation", "INVARIANTS", "check_recording"]

#: Slack for float-time comparisons (matches the executor's trace checks).
_EPS = 1e-9


@dataclass(frozen=True)
class Violation:
    """One invariant breach."""

    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


_Check = Callable[[Recorder], List[Violation]]

#: Invariant id -> (description, check function); filled by ``_invariant``.
INVARIANTS: Dict[str, Tuple[str, _Check]] = {}


def _invariant(code: str, description: str) -> Callable[[_Check], _Check]:
    def register(fn: _Check) -> _Check:
        INVARIANTS[code] = (description, fn)
        return fn

    return register


@_invariant("OBS001", "per-processor busy intervals never overlap")
def check_no_overlap(rec: Recorder) -> List[Violation]:
    by_proc: Dict[int, List[SpanEvent]] = {}
    for span in rec.spans():
        by_proc.setdefault(span.processor, []).append(span)
    out: List[Violation] = []
    for proc, spans in sorted(by_proc.items()):
        spans.sort(key=lambda s: (s.start, s.finish))
        for a, b in zip(spans, spans[1:]):
            if b.start < a.finish - _EPS:
                out.append(
                    Violation(
                        "OBS001",
                        f"processor {proc}: {a.task}#{a.cycle} "
                        f"[{a.start:.6f},{a.finish:.6f}) overlaps "
                        f"{b.task}#{b.cycle} [{b.start:.6f},{b.finish:.6f})",
                    )
                )
    return out


@_invariant("OBS002", "span and stream timestamps are ordered")
def check_time_order(rec: Recorder) -> List[Violation]:
    out: List[Violation] = []
    backwards: List[Violation] = []  # reported after every span breach
    last_t = 0.0
    for event in rec.events:
        t = event.t
        if t < last_t - _EPS:
            backwards.append(
                Violation(
                    "OBS002",
                    f"event stream runs backwards: {event.kind} at {t:.6f} "
                    f"after t={last_t:.6f}",
                )
            )
        elif t > last_t:  # max(last_t, t), NaN included
            last_t = t
        if not isinstance(event, SpanEvent):
            continue
        if event.start < event.release - _EPS:
            out.append(
                Violation(
                    "OBS002",
                    f"{event.task}#{event.cycle} dispatched at {event.start:.6f} "
                    f"before its release {event.release:.6f}",
                )
            )
        if event.finish < event.start - _EPS:
            out.append(
                Violation(
                    "OBS002",
                    f"{event.task}#{event.cycle} finishes at {event.finish:.6f} "
                    f"before its start {event.start:.6f}",
                )
            )
    out.extend(backwards)
    return out


@_invariant("OBS003", "every release resolves exactly once")
def check_release_resolution(rec: Recorder) -> List[Violation]:
    # Count per job first; outcome lists are built, and keys sorted, only
    # for the jobs that break the bijection.
    releases: Dict[Tuple[str, int], int] = {}
    resolutions: Dict[Tuple[str, int], int] = {}
    for event in rec.events:
        if isinstance(event, ReleaseEvent):
            key = (event.task, event.cycle)
            releases[key] = releases.get(key, 0) + 1
        elif isinstance(event, (SpanEvent, DropEvent, UnresolvedEvent)):
            key = (event.task, event.cycle)
            resolutions[key] = resolutions.get(key, 0) + 1
    outcomes: Dict[Tuple[str, int], List[str]] = {
        key: [] for key, count in resolutions.items() if count > 1
    }
    if outcomes:
        for event in rec.events:
            if isinstance(event, SpanEvent):
                what = event.outcome
            elif isinstance(event, DropEvent):
                what = "drop"
            elif isinstance(event, UnresolvedEvent):
                what = "unresolved"
            else:
                continue
            seen = outcomes.get((event.task, event.cycle))
            if seen is not None:
                seen.append(what)
    out: List[Violation] = []
    offending = [
        key
        for key, count in releases.items()
        if count > 1 or resolutions.get(key, 0) != 1
    ]
    for key in sorted(offending):
        task, cycle = key
        count = releases[key]
        if count > 1:
            out.append(Violation("OBS003", f"{task}#{cycle} released {count} times"))
        resolved = resolutions.get(key, 0)
        if resolved != 1:
            what = "+".join(outcomes[key]) if resolved else "nothing"
            out.append(
                Violation(
                    "OBS003",
                    f"{task}#{cycle} resolved to {what} "
                    f"(want exactly one of complete/miss/kill/drop/unresolved)",
                )
            )
    for key in sorted(key for key in resolutions if key not in releases):
        task, cycle = key
        out.append(Violation("OBS003", f"{task}#{cycle} resolved without a release"))
    return out


@_invariant("OBS004", "span outcomes match the deadline")
def check_outcome_deadline(rec: Recorder) -> List[Violation]:
    out: List[Violation] = []
    for span in rec.spans():
        if span.outcome == "kill":
            continue  # a killed job's interval ends at the failure instant
        on_time = span.finish <= span.deadline + _EPS
        if span.outcome == "complete" and not on_time:
            out.append(
                Violation(
                    "OBS004",
                    f"{span.task}#{span.cycle} marked complete but finished "
                    f"{span.finish:.6f} > deadline {span.deadline:.6f}",
                )
            )
        if span.outcome == "miss" and on_time:
            out.append(
                Violation(
                    "OBS004",
                    f"{span.task}#{span.cycle} marked miss but finished "
                    f"{span.finish:.6f} <= deadline {span.deadline:.6f}",
                )
            )
    return out


@_invariant("OBS005", "γ stays in [0, γ_max]")
def check_gamma_bounds(rec: Recorder) -> List[Violation]:
    out: List[Violation] = []
    gamma_cap = rec.meta.get("gamma_cap")
    for event in rec.events:
        if not isinstance(event, GammaEvent):
            continue
        if event.gamma < -_EPS:
            out.append(
                Violation("OBS005", f"γ={event.gamma:.6g} < 0 at t={event.t:.6f}")
            )
        if event.gamma_max is not None and event.gamma > event.gamma_max + _EPS:
            out.append(
                Violation(
                    "OBS005",
                    f"γ={event.gamma:.6g} exceeds γ_max={event.gamma_max:.6g} "
                    f"at t={event.t:.6f}",
                )
            )
        if gamma_cap is not None and event.gamma > float(gamma_cap) + _EPS:
            out.append(
                Violation(
                    "OBS005",
                    f"γ={event.gamma:.6g} exceeds the configured cap "
                    f"{float(gamma_cap):.6g} at t={event.t:.6f}",
                )
            )
    return out


@_invariant("OBS006", "overload flags imply Eq. (11) infeasibility")
def check_overload_flags(rec: Recorder) -> List[Violation]:
    out: List[Violation] = []
    for event in rec.events:
        if not isinstance(event, GammaEvent):
            continue
        if event.overloaded != (event.gamma_max is None):
            out.append(
                Violation(
                    "OBS006",
                    f"overloaded={event.overloaded} but γ_max={event.gamma_max!r} "
                    f"at t={event.t:.6f} (the flag must mirror Eq. (11) "
                    f"infeasibility)",
                )
            )
        if event.overloaded and abs(event.gamma) > _EPS:
            out.append(
                Violation(
                    "OBS006",
                    f"overloaded window at t={event.t:.6f} ran with "
                    f"γ={event.gamma:.6g} instead of the Eq. (12) fallback γ=0",
                )
            )
    return out


@_invariant("OBS007", "coordination windows tile the run")
def check_window_tiling(rec: Recorder) -> List[Violation]:
    windows = [e for e in rec.events if isinstance(e, WindowEvent)]
    out: List[Violation] = []
    prev_end = 0.0
    for w in windows:
        if w.t < w.t_start - _EPS:
            out.append(
                Violation(
                    "OBS007",
                    f"window [{w.t_start:.6f},{w.t:.6f}] runs backwards",
                )
            )
        if abs(w.t_start - prev_end) > _EPS:
            out.append(
                Violation(
                    "OBS007",
                    f"window starts at {w.t_start:.6f}, previous ended at "
                    f"{prev_end:.6f} (windows must tile)",
                )
            )
        prev_end = w.t
    return out


@_invariant("OBS008", "window counters reconcile with the event stream")
def check_window_counts(rec: Recorder) -> List[Violation]:
    last_end = None
    for event in reversed(rec.events):
        if isinstance(event, WindowEvent):
            last_end = event.t
            break
    if last_end is None:
        return []
    limit = last_end + _EPS

    win_completed = win_missed = win_commands = 0
    completed = missed = commands = 0
    boundary_completed = boundary_missed = 0  # at the final window close
    cmd_boundary = 0
    for event in rec.events:
        if isinstance(event, SpanEvent):
            resolved_at = event.finish
            is_miss = event.outcome in ("miss", "kill")
        elif isinstance(event, DropEvent):
            resolved_at = event.t
            is_miss = True
        elif isinstance(event, WindowEvent):
            win_completed += event.completed
            win_missed += event.missed
            win_commands += event.control_commands
            continue
        elif event.kind == "control":
            if event.t <= limit:
                commands += 1
                if abs(event.t - last_end) <= _EPS:
                    cmd_boundary += 1
            continue
        else:
            continue
        if resolved_at > limit:
            continue  # after the last window: not counted anywhere yet
        if is_miss:
            missed += 1
            if abs(resolved_at - last_end) <= _EPS:
                boundary_missed += 1
        else:
            completed += 1
            if abs(resolved_at - last_end) <= _EPS:
                boundary_completed += 1

    out: List[Violation] = []
    # Events timestamped exactly at the final window close may have been
    # processed on either side of it (heap insertion order breaks the tie),
    # so the reconciliation allows that much slack — and no more.
    if abs(win_completed - completed) > boundary_completed:
        out.append(
            Violation(
                "OBS008",
                f"windows account for {win_completed} completions but the "
                f"stream recorded {completed} inside [0,{last_end:.6f}] "
                f"(boundary slack {boundary_completed})",
            )
        )
    if abs(win_missed - missed) > boundary_missed:
        out.append(
            Violation(
                "OBS008",
                f"windows account for {win_missed} misses but the stream "
                f"recorded {missed} inside [0,{last_end:.6f}] "
                f"(boundary slack {boundary_missed})",
            )
        )
    if abs(win_commands - commands) > cmd_boundary:
        out.append(
            Violation(
                "OBS008",
                f"windows account for {win_commands} control commands, "
                f"stream recorded {commands} inside [0,{last_end:.6f}]",
            )
        )
    return out


@_invariant("OBS009", "rate retunes stay inside the allowable range")
def check_rate_ranges(rec: Recorder) -> List[Violation]:
    task_meta = rec.task_meta()
    out: List[Violation] = []
    for event in rec.events:
        if not isinstance(event, RateEvent):
            continue
        meta = task_meta.get(event.task)
        if meta is None:
            out.append(
                Violation("OBS009", f"rate retune of unknown task {event.task!r}")
            )
            continue
        rate_range = meta.get("rate_range")
        if not rate_range:
            continue
        lo, hi = float(rate_range[0]), float(rate_range[1])
        if not (lo - _EPS <= event.rate <= hi + _EPS):
            out.append(
                Violation(
                    "OBS009",
                    f"{event.task} retuned to {event.rate:.6g} Hz outside "
                    f"[{lo:.6g}, {hi:.6g}] at t={event.t:.6f}",
                )
            )
    return out


def check_recording(rec: Recorder) -> List[Violation]:
    """Run the full invariant catalog; empty list = structurally sound."""
    out: List[Violation] = []
    for code in sorted(INVARIANTS):
        _, fn = INVARIANTS[code]
        out.extend(fn(rec))
    return out
