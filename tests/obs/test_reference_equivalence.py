"""The counting invariant checks and the block-joined JSONL export agree
with their straightforward one-list-per-job / one-string-per-line forms.

``reference_obs002`` / ``reference_obs003`` / ``reference_obs008`` are the
plain versions of those checks: a per-event ``max`` for the stream clock,
a sorted outcome list per ``(task, cycle)`` and a separate pass per window
sum.  Hypothesis mutates a short real recording (duplicated, removed, moved
and re-identified job events, timestamps pushed backwards or onto another
event's instant) and the catalog must return
the same :class:`Violation` list, in the same order, as the references.
``to_jsonl``, which joins its lines in blocks, is pinned against joining
one encoded string per line, across block boundaries too.
"""

import dataclasses
import json
from typing import Dict, List, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs.events import (
    DropEvent,
    FaultMarkEvent,
    GammaEvent,
    ReleaseEvent,
    SpanEvent,
    UnresolvedEvent,
    WindowEvent,
)
from repro.obs.export import _JSONL_BLOCK, to_jsonl
from repro.obs.invariants import _EPS, INVARIANTS, Violation, check_recording
from repro.obs.recorder import SCHEMA, Recorder
from repro.rt import RTExecutor, SimConfig
from repro.schedulers import HCPerfScheduler

from ..conftest import build_chain_graph


def reference_obs002(rec: Recorder) -> List[Violation]:
    out: List[Violation] = []
    for span in rec.spans():
        if span.start < span.release - _EPS:
            out.append(
                Violation(
                    "OBS002",
                    f"{span.task}#{span.cycle} dispatched at {span.start:.6f} "
                    f"before its release {span.release:.6f}",
                )
            )
        if span.finish < span.start - _EPS:
            out.append(
                Violation(
                    "OBS002",
                    f"{span.task}#{span.cycle} finishes at {span.finish:.6f} "
                    f"before its start {span.start:.6f}",
                )
            )
    last_t = 0.0
    for event in rec.events:
        if event.t < last_t - _EPS:
            out.append(
                Violation(
                    "OBS002",
                    f"event stream runs backwards: {event.kind} at {event.t:.6f} "
                    f"after t={last_t:.6f}",
                )
            )
        last_t = max(last_t, event.t)
    return out


def reference_obs003(rec: Recorder) -> List[Violation]:
    releases: Dict[Tuple[str, int], int] = {}
    resolutions: Dict[Tuple[str, int], List[str]] = {}
    for event in rec.events:
        if isinstance(event, ReleaseEvent):
            releases[(event.task, event.cycle)] = releases.get((event.task, event.cycle), 0) + 1
        elif isinstance(event, SpanEvent):
            resolutions.setdefault((event.task, event.cycle), []).append(event.outcome)
        elif isinstance(event, DropEvent):
            resolutions.setdefault((event.task, event.cycle), []).append("drop")
        elif isinstance(event, UnresolvedEvent):
            resolutions.setdefault((event.task, event.cycle), []).append("unresolved")
    out: List[Violation] = []
    for key, count in sorted(releases.items()):
        task, cycle = key
        if count > 1:
            out.append(Violation("OBS003", f"{task}#{cycle} released {count} times"))
        resolved = resolutions.get(key, [])
        if len(resolved) != 1:
            what = "+".join(resolved) if resolved else "nothing"
            out.append(
                Violation(
                    "OBS003",
                    f"{task}#{cycle} resolved to {what} "
                    f"(want exactly one of complete/miss/kill/drop/unresolved)",
                )
            )
    for key in sorted(set(resolutions) - set(releases)):
        task, cycle = key
        out.append(Violation("OBS003", f"{task}#{cycle} resolved without a release"))
    return out


def reference_obs008(rec: Recorder) -> List[Violation]:
    windows = [e for e in rec.events if isinstance(e, WindowEvent)]
    if not windows:
        return []
    last_end = windows[-1].t
    win_completed = sum(w.completed for w in windows)
    win_missed = sum(w.missed for w in windows)
    win_commands = sum(w.control_commands for w in windows)

    completed = missed = commands = 0
    boundary_completed = boundary_missed = 0
    cmd_boundary = 0
    for event in rec.events:
        if isinstance(event, SpanEvent):
            resolved_at = event.finish
            is_miss = event.outcome in ("miss", "kill")
        elif isinstance(event, DropEvent):
            resolved_at = event.t
            is_miss = True
        elif event.kind == "control":
            if event.t <= last_end + _EPS:
                commands += 1
                if abs(event.t - last_end) <= _EPS:
                    cmd_boundary += 1
            continue
        else:
            continue
        if resolved_at > last_end + _EPS:
            continue
        at_boundary = abs(resolved_at - last_end) <= _EPS
        if is_miss:
            missed += 1
            boundary_missed += int(at_boundary)
        else:
            completed += 1
            boundary_completed += int(at_boundary)

    out: List[Violation] = []
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


REFERENCES = {
    "OBS002": reference_obs002,
    "OBS003": reference_obs003,
    "OBS008": reference_obs008,
}


def reference_catalog(rec: Recorder) -> List[Violation]:
    out: List[Violation] = []
    for code in sorted(INVARIANTS):
        out.extend(REFERENCES.get(code, INVARIANTS[code][1])(rec))
    return out


_ENCODER = json.JSONEncoder(separators=(",", ":"))


def reference_jsonl(rec: Recorder) -> str:
    meta = {"ev": "meta"}
    meta.update((k, v) for k, v in rec.meta.items() if k != "schema")
    meta["schema"] = SCHEMA
    lines = [_ENCODER.encode(meta)]
    lines.extend(_ENCODER.encode(e.to_dict()) for e in rec.events)
    return "\n".join(lines) + "\n"


def _record_overloaded_chain() -> Recorder:
    """A short overloaded run: misses, drops and unresolved jobs included."""
    executor = RTExecutor(
        build_chain_graph(exec_times=(0.02, 0.04, 0.03)),
        HCPerfScheduler(),
        SimConfig(n_processors=1, horizon=0.8, coordination_period=0.25, seed=3),
    )
    rec = Recorder()
    executor.recorder = rec
    rec.bind_run(executor)
    executor.run()
    return rec


BASE = _record_overloaded_chain()

_JOB_EVENTS = (ReleaseEvent, SpanEvent, DropEvent, UnresolvedEvent)
_TIME_FIELDS = ("t", "start", "finish", "release")
_WINDOW_ENDS = [e.t for e in BASE.events if isinstance(e, WindowEvent)]
_NEAR = (-2e-9, -5e-10, 0.0, 5e-10, 2e-9)  # inside and outside the 1e-9 slack


def test_base_recording_covers_every_resolution():
    kinds = BASE.stats()
    assert kinds["drop"] and kinds["unresolved"] and kinds["window"]
    assert {s.outcome for s in BASE.spans()} >= {"complete", "miss"}
    assert check_recording(BASE) == []


@st.composite
def mutated_recordings(draw) -> Recorder:
    events = list(BASE.events)
    for _ in range(draw(st.integers(1, 8))):
        op = draw(
            st.sampled_from(("duplicate", "remove", "move", "retarget", "backwards", "snap"))
        )
        if op in ("backwards", "snap"):
            i = draw(st.integers(0, len(events) - 1))
            event = events[i]
            name = draw(st.sampled_from([f for f in _TIME_FIELDS if hasattr(event, f)]))
            if op == "backwards":
                delta = draw(
                    st.sampled_from((1e-10, 1e-9, 2e-9, 1e-3, 0.05, 0.5))
                    | st.floats(0.0, 1.0)
                )
                value = getattr(event, name) - delta
            else:  # onto a window close, or just beside it
                value = draw(st.sampled_from(_WINDOW_ENDS)) + draw(st.sampled_from(_NEAR))
            events[i] = dataclasses.replace(event, **{name: value})
            continue
        job = [i for i, e in enumerate(events) if isinstance(e, _JOB_EVENTS)]
        if not job:
            continue
        i = draw(st.sampled_from(job))
        if op == "duplicate":
            events.insert(draw(st.integers(0, len(events))), events[i])
        elif op == "remove":
            del events[i]
        elif op == "move":
            event = events.pop(i)
            events.insert(draw(st.integers(0, len(events))), event)
        else:  # give the event another job's identity
            other = events[draw(st.sampled_from(job))]
            events[i] = dataclasses.replace(events[i], task=other.task, cycle=other.cycle)
    rec = Recorder()
    rec.meta.update(BASE.meta)
    rec.events = events
    return rec


class TestChecksMatchReferences:
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(mutated_recordings())
    def test_same_violations_in_the_same_order(self, rec):
        for code, reference in REFERENCES.items():
            assert INVARIANTS[code][1](rec) == reference(rec), code
        assert check_recording(rec) == reference_catalog(rec)

    def test_mutations_reach_every_rewritten_check(self):
        # Hand-built counterparts of what the strategy draws, so each
        # rewritten check is compared on a recording where it fires.
        events = list(BASE.events)
        release = next(e for e in events if isinstance(e, ReleaseEvent))
        span = next(e for e in events if isinstance(e, SpanEvent))
        window = next(i for i, e in enumerate(events) if isinstance(e, WindowEvent))
        events.insert(window, span)  # resolved twice, counted twice
        events.append(release)  # released twice, and after later events
        events.append(dataclasses.replace(span, start=span.release - 1.0, cycle=999))
        rec = Recorder()
        rec.events = events
        for code, reference in REFERENCES.items():
            got = INVARIANTS[code][1](rec)
            assert got and got == reference(rec), code

    @pytest.mark.parametrize("offset", _NEAR)
    def test_boundary_slack_matches_reference(self, offset):
        # Every span and control command after the last window moves onto
        # its close.  The windows never counted them; the stream does once
        # they are inside the window, and forgives them only at the close.
        close = _WINDOW_ENDS[-1]
        events = []
        for event in BASE.events:
            if isinstance(event, SpanEvent) and event.finish > close:
                event = dataclasses.replace(event, finish=close + offset)
            elif event.kind == "control" and event.t > close:
                event = dataclasses.replace(event, t=close + offset)
            events.append(event)
        rec = Recorder()
        rec.events = events
        got = INVARIANTS["OBS008"][1](rec)
        assert got == reference_obs008(rec)
        assert bool(got) == (offset < -_EPS)


def _recording(*events) -> Recorder:
    rec = Recorder()
    rec.annotate(scenario="pin", scheduler="HCPerf", seed=0)
    for event in events:
        rec.emit(event)
    return rec


def _releases(n: int) -> Recorder:
    return _recording(
        *(ReleaseEvent(t=i * 0.001, task="t", cycle=i, deadline=i * 0.001 + 0.1)
          for i in range(n))
    )


class TestJsonlMatchesReference:
    @pytest.mark.parametrize(
        "rec",
        [
            Recorder(),
            _recording(ReleaseEvent(t=0.0, task="a", cycle=0, deadline=0.1)),
            _recording(
                SpanEvent(t=0.2, task="fusion", cycle=3, processor=2, start=0.1,
                          finish=0.2, release=0.05, deadline=0.3, unit="GPU"),
                SpanEvent(t=0.3, task="plan", cycle=1, start=0.2, finish=0.3,
                          release=0.2, deadline=0.25, outcome="miss"),
            ),
            _recording(GammaEvent(t=1.0, gamma=0.0, gamma_max=None, overloaded=True)),
            _recording(FaultMarkEvent(t=2.0, fault="exec_spike", detail="γ×3 über ✓")),
            _releases(_JSONL_BLOCK - 1),
            _releases(_JSONL_BLOCK),
            _releases(_JSONL_BLOCK + 1),
            BASE,
        ],
        ids=[
            "empty", "one-event", "typed-spans", "gamma-max-none", "non-ascii",
            "block-minus-one", "block", "block-plus-one", "overloaded-chain",
        ],
    )
    def test_byte_identical(self, rec):
        assert to_jsonl(rec) == reference_jsonl(rec)

    @settings(max_examples=50, deadline=None)
    @given(mutated_recordings())
    def test_byte_identical_on_mutated_recordings(self, rec):
        assert to_jsonl(rec) == reference_jsonl(rec)
