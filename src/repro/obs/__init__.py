"""Observability layer: structured tracing, metrics and trace invariants.

Every executor run can produce a machine-checkable *recording* — a typed
event log (job releases, execution spans, drops, γ updates, coordination
windows, rate retunes, fault markers) captured by a :class:`Recorder`
attached through injected hooks.  A recording is:

* **seed-pure** — events carry simulated time only; attaching a recorder
  never perturbs the run (the disabled path is byte-identical to a
  recorder-free run, pinned by test);
* **reducible** — :mod:`repro.obs.reduce` folds a recording back into the
  experiment metrics (windowed miss ratios, overload duty cycle, rate
  adapter resets) so downstream consumers need no private bookkeeping;
* **exportable** — Chrome ``trace_event`` JSON (Perfetto /
  ``chrome://tracing``), a byte-stable JSONL event log and a text summary
  (:mod:`repro.obs.export`);
* **checkable** — :mod:`repro.obs.invariants` asserts structural soundness
  (non-overlapping busy intervals, release/resolution bijection, γ bounds,
  window bookkeeping) for tests, the fault suite and CI.

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
    save_recording,
    summary_text,
    to_chrome_trace,
    to_jsonl,
    validate_chrome_trace,
)
from .invariants import INVARIANTS, Violation, check_recording
from .log import LOGGER_NAME, get_logger, warn
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .recorder import Recorder
from .reduce import (
    miss_ratio_series,
    overall_miss_ratio,
    overload_duty_cycle,
    rate_adapter_resets,
    reduce_recording,
    to_window_samples,
)

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
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "LOGGER_NAME",
    "get_logger",
    "warn",
    "Violation",
    "INVARIANTS",
    "check_recording",
    "reduce_recording",
    "to_window_samples",
    "miss_ratio_series",
    "overall_miss_ratio",
    "overload_duty_cycle",
    "rate_adapter_resets",
    "to_chrome_trace",
    "to_jsonl",
    "summary_text",
    "render_gantt",
    "validate_chrome_trace",
    "save_recording",
    "load_recording",
]
