"""Recording exporters: Chrome ``trace_event`` JSON, JSONL and text summary.

* :func:`to_chrome_trace` emits the JSON Object Format of the Chrome
  trace-event specification — loadable in Perfetto or ``chrome://tracing``.
  Execution spans become complete (``"X"``) events on one thread lane per
  processor; releases/drops/faults become instant (``"i"``) events; γ and
  the windowed miss ratio become counter (``"C"``) series.  Timestamps are
  microseconds, as the format requires.
* :func:`to_jsonl` emits one JSON object per line — a meta line followed by
  every event in emission order, with fixed key order and compact
  separators so the output is byte-stable for identical recordings (the
  golden-trace regression test pins this).
* :func:`summary_text` renders a human-readable digest.
* :func:`render_gantt` draws the execution spans as an ASCII Gantt chart,
  one row per processor.
* :func:`load_recording` reads a JSONL recording file, the one on-disk
  recording format.
"""

from __future__ import annotations

import json
import math
import operator
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Type, Union

from ..rt.resources import MAX_UNITS
from .events import (
    _FIELDS,
    EVENT_KINDS,
    ControlEvent,
    DropEvent,
    FaultMarkEvent,
    GammaEvent,
    RateAdapterEvent,
    RateEvent,
    ReleaseEvent,
    SpanEvent,
    TraceEvent,
    UnresolvedEvent,
    WindowEvent,
    event_from_dict,
    is_finite_number,
)
from .recorder import SCHEMA, Recorder

__all__ = [
    "to_chrome_trace",
    "validate_chrome_trace",
    "to_jsonl",
    "from_jsonl",
    "summary_text",
    "render_gantt",
    "load_recording",
]

#: Phases of the trace-event format this exporter emits.
_CHROME_PHASES = frozenset({"X", "i", "C", "M"})

_US = 1_000_000.0  # seconds -> microseconds


#: One compact encoder for every JSONL line: ``json.dumps`` with non-default
#: separators would build a new ``JSONEncoder`` per call.  Event dicts are
#: flat and the meta holds plain labels and config values, so the cycle
#: check (an id set per encoded container) is skipped.
_JSONL_ENCODER = json.JSONEncoder(separators=(",", ":"), check_circular=False)

#: Events per block in :func:`to_jsonl`.  A block's lines are joined into
#: one string straight away, so the export holds the joined blocks and the
#: returned text, never a string per line.
_JSONL_BLOCK = 1024

_encode = _JSONL_ENCODER.encode
_call = getattr(operator, "call", lambda fn, value: fn(value))  # operator.call is 3.11+


def _exact(kind: type, text: Callable[[Any], str]) -> Callable[[Any], str]:
    """``text`` for a value of exactly type ``kind``, the encoder for any other.

    ``text`` agrees with the encoder on the exact type only: ``int.__repr__``
    prints ``True`` as ``1``, and a float field may hold an int.
    """
    return lambda value: text(value) if type(value) is kind else _encode(value)


#: JSON text of a field value by its annotation.  Floats go through the
#: memo of :func:`to_jsonl`, which adds the float annotations.  Each sends
#: None to the encoder, so an ``Optional`` field ``to_dict`` always writes
#: (``GammaEvent.gamma_max``) prints ``null``.
_TEXT: Dict[str, Callable[[Any], str]] = {
    "int": _exact(int, int.__repr__),
    "str": _exact(str, encode_basestring_ascii),
    "Optional[str]": _exact(str, encode_basestring_ascii),
    "bool": _exact(bool, {True: "true", False: "false"}.__getitem__),
}


def _line_format(
    cls: Type[TraceEvent],
) -> Tuple[str, Callable[[Any], Tuple[Any, ...]], List[Tuple[str, Optional[str]]]]:
    """One event class's JSONL line: its ``%``-template, a getter of its
    field values in template order, and per field its annotation and, for a
    field ``to_dict`` omits when None, its ``,"key":`` prefix.

    The keys come from ``to_dict`` in its order, so ``to_dict`` stays the one
    definition of the schema.  The omitted-when-None fields
    (``SpanEvent.unit``) follow the fixed keys, each filling one ``%s`` with
    its prefix and value, or with nothing.
    """
    types, required = _FIELDS[cls.kind]
    keys = [key for key in cls(t=0.0).to_dict() if key != "ev"]
    omitted = [name for name in types if name not in required]
    template = (
        '{"ev":'
        + _encode(cls.kind)
        + "".join(f",{_encode(key)}:%s" for key in keys)
        + "%s" * len(omitted)
        + "}"
    )
    fields: List[Tuple[str, Optional[str]]] = [(types[key], None) for key in keys]
    fields += [(types[name], f",{_encode(name)}:") for name in omitted]
    return template, attrgetter(*keys, *omitted), fields


_LINE_FORMATS = {cls: _line_format(cls) for cls in EVENT_KINDS.values()}


def to_chrome_trace(rec: Recorder) -> Dict[str, Any]:
    """Convert a recording to the Chrome trace-event JSON Object Format."""
    meta = rec.meta
    label = " ".join(
        str(meta[k]) for k in ("scenario", "scheduler") if meta.get(k) is not None
    ) or "hcperf run"
    events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": f"hcperf {label}"},
        }
    ]
    n_processors = int(meta.get("n_processors", 0) or 0)
    seen_procs = sorted({s.processor for s in rec.spans()} | set(range(n_processors)))
    for proc in seen_procs:
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": proc,
                "args": {"name": f"processor {proc}"},
            }
        )
    for event in rec.events:
        data = event.to_dict()
        kind = event.kind
        if kind == "span":
            events.append(
                {
                    "name": data["task"],
                    "cat": "exec",
                    "ph": "X",
                    "pid": 0,
                    "tid": data["processor"],
                    "ts": data["start"] * _US,
                    "dur": max(0.0, (data["finish"] - data["start"]) * _US),
                    "args": {
                        "cycle": data["cycle"],
                        "release": data["release"],
                        "deadline": data["deadline"],
                        "outcome": data["outcome"],
                    },
                }
            )
        elif kind in ("release", "drop", "unresolved", "fault", "rate", "control"):
            name = {
                "release": f"release {data.get('task', '')}",
                "drop": f"drop {data.get('task', '')}",
                "unresolved": f"unresolved {data.get('task', '')}",
                "fault": f"fault {data.get('fault', '')}",
                "rate": f"rate {data.get('task', '')}",
                "control": "control command",
            }[kind]
            args = {k: v for k, v in data.items() if k not in ("ev", "t")}
            events.append(
                {
                    "name": name,
                    "cat": kind,
                    "ph": "i",
                    "pid": 0,
                    "tid": 0,
                    "ts": event.t * _US,
                    "s": "g",  # global-scope instant
                    "args": args,
                }
            )
        elif kind == "gamma":
            events.append(
                {
                    "name": "gamma",
                    "cat": "coordination",
                    "ph": "C",
                    "pid": 0,
                    "ts": event.t * _US,
                    "args": {"gamma": data["gamma"]},
                }
            )
        elif kind == "window":
            events.append(
                {
                    "name": "miss_ratio",
                    "cat": "coordination",
                    "ph": "C",
                    "pid": 0,
                    "ts": event.t * _US,
                    "args": {
                        "miss_ratio": (
                            data["missed"] / (data["completed"] + data["missed"])
                            if data["completed"] + data["missed"]
                            else 0.0
                        ),
                        "utilization": data["utilization"],
                    },
                }
            )
        # controller / rate_adapter steps stay JSONL-only: tracing UIs have
        # no useful lane for them and the counters above carry the story.
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {k: v for k, v in meta.items() if k != "tasks"},
    }


def validate_chrome_trace(trace: Any) -> List[str]:
    """Structural validation against the trace-event schema (empty = valid)."""
    problems: List[str] = []
    if not isinstance(trace, dict):
        return ["top level must be a JSON object (the JSON Object Format)"]
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be an array"]
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in _CHROME_PHASES:
            problems.append(f"{where}: unknown phase {ph!r}")
            continue
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            problems.append(f"{where}: missing event name")
        if ph != "M":
            ts = ev.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                problems.append(f"{where}: bad timestamp {ts!r}")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: complete event needs dur >= 0, got {dur!r}")
        if ph == "i" and ev.get("s") not in (None, "g", "p", "t"):
            problems.append(f"{where}: bad instant scope {ev.get('s')!r}")
        if ph == "C" and not isinstance(ev.get("args"), dict):
            problems.append(f"{where}: counter event needs numeric args")
        if "args" in ev and not isinstance(ev["args"], dict):
            problems.append(f"{where}: args must be an object")
    return problems


def _omitted_when_none(prefix: str, text: Callable[[Any], str]) -> Callable[[Any], str]:
    return lambda value: "" if value is None else prefix + text(value)


def to_jsonl(rec: Recorder) -> str:
    """Byte-stable JSONL: one meta line, then one line per event.

    The meta line goes through ``_JSONL_ENCODER``.  Each event line is its
    class's ``%``-template (:func:`_line_format`) filled with the JSON text
    of its field values: the bytes ``_JSONL_ENCODER.encode(event.to_dict())``
    would write.  Most of those values are floats, and few are distinct: a
    span repeats its release's ``t`` and ``deadline``, its own ``t`` as
    ``finish`` and the γ event's ``t`` as ``start``.  So each float is
    printed once per block and its text taken from a memo after that.  The
    memo is cleared at every block: kept for the whole export, it would hold
    a string per distinct float of the recording, raising the export's
    peak memory for few more hits.
    """
    meta = {"ev": "meta"}
    meta.update((k, v) for k, v in rec.meta.items() if k != "schema")
    meta["schema"] = SCHEMA
    memo: Dict[float, str] = {}
    memo_get = memo.get

    def float_text(value: Any) -> str:
        if type(value) is not float:
            return _encode(value)
        text = memo_get(value)
        if text is None:
            # The encoder spells NaN and ±inf as NaN and ±Infinity.
            text = float.__repr__(value) if math.isfinite(value) else _encode(value)
            if value:  # 0.0 == -0.0: a stored zero would print both alike
                memo[value] = text
        return text

    text_of = dict(_TEXT, float=float_text)
    text_of["Optional[float]"] = float_text
    formats: Dict[type, Tuple[str, Callable[[Any], Tuple[Any, ...]], Tuple[Any, ...]]] = {}
    for cls, (template, getter, fields) in _LINE_FORMATS.items():
        texts = tuple(
            text_of[kind] if prefix is None else _omitted_when_none(prefix, text_of[kind])
            for kind, prefix in fields
        )
        formats[cls] = (template, getter, texts)

    def line(event: TraceEvent) -> str:
        template, getter, texts = formats[type(event)]
        return template % tuple(map(_call, texts, getter(event)))

    events = rec.events
    blocks = [_encode(meta) + "\n"]
    for i in range(0, len(events), _JSONL_BLOCK):
        memo.clear()
        lines = list(map(line, events[i : i + _JSONL_BLOCK]))
        lines.append("")  # the block's last line ends with a newline too
        blocks.append("\n".join(lines))
    return "".join(blocks)


def _check_meta(meta: Dict[str, Any]) -> None:
    """Reject meta values the exporters and invariants cannot read."""
    n_processors = meta.get("n_processors")
    if n_processors is not None and not (
        isinstance(n_processors, int)
        and not isinstance(n_processors, bool)
        and 1 <= n_processors <= MAX_UNITS
    ):
        raise ValueError(
            f"meta 'n_processors' must be an int in 1..{MAX_UNITS}, got {n_processors!r}"
        )
    for key in ("horizon", "coordination_period", "gamma_cap", "t_end"):
        value = meta.get(key)
        if value is not None and not is_finite_number(value):
            raise ValueError(f"meta {key!r} must be a finite number, got {value!r}")
    tasks = meta.get("tasks")
    if tasks is None:
        return
    if not isinstance(tasks, list) or not all(
        isinstance(task, dict) and isinstance(task.get("name"), str) for task in tasks
    ):
        raise ValueError("meta 'tasks' must be a list of objects with a string name")
    for task in tasks:
        bounds = task.get("rate_range")
        if bounds is not None and not (
            isinstance(bounds, list)
            and len(bounds) == 2
            and all(map(is_finite_number, bounds))
        ):
            raise ValueError(
                f"meta task {task['name']!r}: rate_range must be two finite numbers"
            )


def _read_line(rec: Recorder, line: str) -> None:
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON ({exc.msg}, column {exc.colno})") from None
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    if isinstance(data, dict) and data.get("ev") == "meta":
        schema = data.pop("schema", None)
        if schema != SCHEMA:
            raise ValueError(f"unsupported recording schema {schema!r}")
        data.pop("ev")
        _check_meta(data)
        rec.meta.update(data)
    else:
        rec.emit(event_from_dict(data))


def from_jsonl(text: str) -> Recorder:
    """Rebuild a recording from its JSONL export.

    Raises :class:`ValueError` naming the line of the first malformed entry.
    """
    rec = Recorder()
    for i, line in enumerate(text.splitlines()):
        if line.strip():
            try:
                _read_line(rec, line)
            except ValueError as exc:
                raise ValueError(f"line {i + 1}: {exc}") from exc
    return rec


#: The counters and histograms :func:`summary_text` always prints.
_COUNTERS = (
    "control_commands",
    "fault_events",
    "gamma_overloads",
    "jobs_completed",
    "jobs_dropped",
    "jobs_killed",
    "jobs_missed",
    "jobs_released",
    "jobs_unresolved",
    "rate_adapter_resets",
)
_HISTOGRAMS = ("control_response_s", "gamma", "span_duration_s", "window_miss_ratio")


def summary_text(rec: Recorder) -> str:
    """Human-readable digest of a recording.

    One pass over the events folds the job, γ, rate and window counters,
    the last rate and utilization gauges, and the count and mean of each
    histogrammed quantity (summed in event order).
    """
    counters = dict.fromkeys(_COUNTERS, 0)
    gauges: Dict[str, float] = {}
    hist_n = dict.fromkeys(_HISTOGRAMS, 0)
    hist_sum = dict.fromkeys(_HISTOGRAMS, 0.0)

    def observe(name: str, value: float) -> None:
        hist_n[name] += 1
        hist_sum[name] += value

    for event in rec.events:
        if isinstance(event, ReleaseEvent):
            counters["jobs_released"] += 1
        elif isinstance(event, SpanEvent):
            observe("span_duration_s", event.finish - event.start)
            if event.outcome == "complete":
                counters["jobs_completed"] += 1
            else:
                counters["jobs_missed"] += 1
                if event.outcome == "kill":
                    counters["jobs_killed"] += 1
        elif isinstance(event, DropEvent):
            counters["jobs_missed"] += 1
            counters["jobs_dropped"] += 1
        elif isinstance(event, UnresolvedEvent):
            counters["jobs_unresolved"] += 1
        elif isinstance(event, ControlEvent):
            counters["control_commands"] += 1
            observe("control_response_s", event.response)
        elif isinstance(event, GammaEvent):
            observe("gamma", event.gamma)
            counters["gamma_overloads"] += event.overloaded
        elif isinstance(event, RateAdapterEvent):
            counters["rate_adapter_resets"] += event.reset
        elif isinstance(event, RateEvent):
            gauges[f"rate_hz.{event.task}"] = event.rate
        elif isinstance(event, WindowEvent):
            observe("window_miss_ratio", event.miss_ratio)
            gauges["utilization"] = event.utilization
        elif isinstance(event, FaultMarkEvent):
            counters["fault_events"] += 1

    rows = [(name, f"counter   {value}") for name, value in counters.items()]
    rows += [(name, f"gauge     {value:.6g}") for name, value in gauges.items()]
    rows += [
        (name, f"histogram n={n} mean={hist_sum[name] / n if n else 0.0:.6g}")
        for name, n in hist_n.items()
    ]
    meta = rec.meta
    stats = rec.stats()
    lines = [
        f"recording  : {meta.get('scenario', '?')} / {meta.get('scheduler', '?')} "
        f"(seed {meta.get('seed', '?')})",
        f"time span  : 0.0 .. {rec.t_end:.3f} s "
        f"({int(meta['n_processors'])} processors)"
        if meta.get("n_processors")
        else f"time span  : 0.0 .. {rec.t_end:.3f} s",
        f"events     : {stats['_total']}",
    ]
    by_kind = ", ".join(
        f"{kind}={count}"
        for kind, count in sorted(stats.items())
        if not kind.startswith("_")
    )
    lines.append(f"by kind    : {by_kind}")
    lines.append("")
    lines.extend(f"{name:32s} {text}" for name, text in sorted(rows))
    return "\n".join(lines)


def render_gantt(rec: Recorder, t_start: float, t_end: float, width: int = 100) -> str:
    """ASCII Gantt chart of a recording's spans in a window, one row per processor.

    Each column is ``(t_end − t_start)/width`` seconds; a cell shows the
    symbol of the task occupying (most of) it — a distinct letter per task,
    upper-case when the job met its deadline, lower-case when it missed,
    ``#`` when the job was killed by a processor failure; ``.`` is idle.
    """
    if t_end <= t_start:
        raise ValueError("t_end must exceed t_start")
    if width < 10:
        raise ValueError("width must be >= 10")
    by_processor: Dict[int, List[SpanEvent]] = {}
    for span in rec.spans():
        by_processor.setdefault(span.processor, []).append(span)
    alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    tasks = sorted({s.task for s in rec.spans()})
    symbol = {t: alphabet[i % len(alphabet)] for i, t in enumerate(tasks)}
    dt = (t_end - t_start) / width
    lines = [
        f"gantt [{t_start:.3f}s .. {t_end:.3f}s] "
        f"({dt * 1000:.2f} ms/col; UPPER=met deadline, lower=missed, #=killed)"
    ]
    for proc, spans in sorted(by_processor.items()):
        cells = ["."] * width
        for s in sorted(spans, key=lambda s: s.start):
            if s.finish <= t_start or s.start >= t_end:
                continue
            lo = max(0, int((s.start - t_start) / dt))
            hi = min(width, max(lo + 1, int((s.finish - t_start) / dt)))
            if s.outcome == "kill":
                mark = "#"
            elif s.outcome == "complete":
                mark = symbol[s.task]
            else:
                mark = symbol[s.task].lower()
            for i in range(lo, hi):
                cells[i] = mark
        lines.append(f"p{proc:<5d}|{''.join(cells)}|")
    lines.append("tasks: " + ", ".join(f"{symbol[t]}={t}" for t in tasks))
    return "\n".join(lines)


def load_recording(path: Union[str, Path]) -> Recorder:
    """Load a JSONL recording file."""
    text = Path(path).read_text()
    stripped = text.lstrip()
    if not stripped:
        raise ValueError(f"{path}: empty recording file")
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError):
        data = None  # several lines: the JSONL reader below reports problems
    if isinstance(data, dict) and "traceEvents" in data:
        raise ValueError(
            f"{path}: this is a Chrome trace export, not a recording; "
            f"re-export from the recording file"
        )
    if isinstance(data, dict) and "events" in data and "schema" in data:
        raise ValueError(
            f"{path}: the single-object JSON recording form is no longer read; "
            f"regenerate it with `hcperf trace run --out FILE.jsonl`"
        )
    return from_jsonl(text)
