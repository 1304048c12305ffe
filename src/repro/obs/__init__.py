"""Observability layer: structured tracing and trace invariants.

Every executor run can produce a machine-checkable *recording* — a typed
event log (job releases, execution spans, drops, γ updates, coordination
windows, rate retunes, fault markers) captured by a :class:`Recorder`
attached through injected hooks.  A recording is:

* **seed-pure** — events carry simulated time only; attaching a recorder
  never perturbs the run (the disabled path is byte-identical to a
  recorder-free run, pinned by test);
* **exportable** — a byte-stable JSONL event log (the one on-disk
  recording format, read back by :func:`load_recording`), Chrome
  ``trace_event`` JSON (Perfetto / ``chrome://tracing``) and a text
  summary (:mod:`repro.obs.export`);
* **checkable** — :mod:`repro.obs.invariants` asserts structural soundness
  (non-overlapping busy intervals, release/resolution bijection, γ bounds,
  window bookkeeping) for tests, the fault suite and CI.

The run's own metrics (windowed miss ratios, overload duty cycle,
rate-adapter resets) live on the executor's ``MetricsRecorder`` and the
HCPerf coordinator; a recording is the *explanation* of a run, not a
second copy of its bookkeeping.

See docs/observability.md for the event schema and the invariant catalog.
"""

from .events import (
    EVENT_KINDS,
    ControlEvent,
    ControllerEvent,
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
)
from .export import (
    load_recording,
    render_gantt,
    summary_text,
    to_chrome_trace,
    to_jsonl,
    validate_chrome_trace,
)
from .invariants import INVARIANTS, Violation, check_recording
from .log import LOGGER_NAME, get_logger, warn
from .recorder import Recorder

__all__ = [
    "TraceEvent",
    "ReleaseEvent",
    "SpanEvent",
    "DropEvent",
    "UnresolvedEvent",
    "GammaEvent",
    "ControllerEvent",
    "RateAdapterEvent",
    "RateEvent",
    "WindowEvent",
    "ControlEvent",
    "FaultMarkEvent",
    "EVENT_KINDS",
    "event_from_dict",
    "Recorder",
    "LOGGER_NAME",
    "get_logger",
    "warn",
    "Violation",
    "INVARIANTS",
    "check_recording",
    "to_chrome_trace",
    "to_jsonl",
    "summary_text",
    "render_gantt",
    "validate_chrome_trace",
    "load_recording",
]
