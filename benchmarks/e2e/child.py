"""One repeat of one end-to-end workload, in a fresh process.

``run.py`` spawns this script once per repeat, with ``src`` on
``PYTHONPATH`` and a single JSON argument::

    python benchmarks/e2e/child.py '{"workload": "fig13_hcperf", "seed": 0,
        "horizon": null, "trace": false, "verify": true, "spawned": 1234.5,
        "out": "..."}'

``spawned`` is the parent's ``CLOCK_MONOTONIC`` reading just before the
spawn, so ``setup_s`` covers interpreter start, imports and the scenario and
executor construction of the first run.  The script prints one JSON line:
simulated seconds, host ms per coordination window and per span of a
recording's check and export with the reference slice timed after each,
peak RSS, the modelled paper metrics, a sha256
digest per scheme, the correctness problems found, and, for the traced
repeat, the per-layer metrics.

The program receives only the generated scenario and the seed.  Window
timing wraps the executor's ``metrics.close_window`` at the
``before_run(executor)`` seam of ``run_scenario``; it adds no executor
event, because a periodic probe would add dispatch rounds and so change
HCPerf's γ history.

An untraced repeat also times one fixed slice of reference work
(``reference_work``) after every window, outside the window's own time,
and every ``SAMPLE_PERIOD_S`` during a recording's check and export.  A
shared host can run at half speed from one second to the next and for
minutes at a time; the reference slice slows with it, so ``run.py`` scales
each window and export span by the host speed the slices next to it
measured.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import heapq
import json
import resource
import signal
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.experiments.heterogeneous import build_scenario
from repro.experiments.runner import RunResult, run_scenario
from repro.obs import Recorder, check_recording, to_jsonl
from repro.obs.export import from_jsonl
from repro.rt.executor import RTExecutor
from repro.workloads.profiles import FUSION_TASK
from repro.workloads.scenarios import Scenario, fig13_car_following, lane_keeping_loop


def typed_newest_only(horizon: float) -> Scenario:
    """Fig. 13 on ``2xCPU+1xGPU@3``, typed graph, fusion on newest-only."""
    scenario = build_scenario("heterogeneous", horizon=horizon)
    typed_graph = scenario.graph_factory

    def graph():
        g = typed_graph()
        g.task(FUSION_TASK).activation = "newest-only"
        return g

    scenario.graph_factory = graph
    scenario.name += "[newest-only]"
    return scenario


@dataclasses.dataclass(frozen=True)
class Workload:
    """A scenario builder, the schemes run on it back to back, the horizon,
    and whether the (single-scheme) run is recorded, checked and exported."""

    build: Callable[[float], Scenario]
    schemes: Tuple[str, ...]
    horizon: float
    recorded: bool = False


#: Why each workload exists is recorded in BENCHMARK.json and the README.
WORKLOADS: Dict[str, Workload] = {
    "fig13_hcperf": Workload(fig13_car_following, ("HCPerf",), 90.0),
    "fig13_baselines": Workload(
        fig13_car_following, ("HPF", "EDF", "EDF-VD", "Apollo"), 90.0
    ),
    "lane_keeping_hcperf": Workload(lane_keeping_loop, ("HCPerf",), 70.0),
    "fig13_typed_recorded": Workload(typed_newest_only, ("HCPerf",), 90.0, recorded=True),
}


#: Wall seconds between the reference slices timed during an export.
SAMPLE_PERIOD_S = 0.025

_REFERENCE_VECTOR = np.linspace(0.0, 1.0, 48)


class _Job:
    __slots__ = ("deadline", "priority", "task", "released")

    def __init__(self, deadline: float, priority: int, task: str, released: float) -> None:
        self.deadline = deadline
        self.priority = priority
        self.task = task
        self.released = released


def reference_work() -> float:
    """A fixed slice of host work (about 0.5 ms) in the simulator's own mix:
    an event heap, a ready list scanned with a key lambda, per-task dict
    updates, attribute access on small objects and small numpy calls.  It
    uses nothing from the program, so a change to the program never
    changes it."""
    heap: List[Tuple[float, int]] = []
    for i in range(160):
        heapq.heappush(heap, ((i * 7919) % 211 * 0.5, i))
    while heap:
        heapq.heappop(heap)
    ready: List[_Job] = []
    stats: Dict[str, List[float]] = {}
    acc = 0.0
    for i in range(72):
        ready.append(_Job(i * 0.37 % 11.0, (i * 13) % 7, f"t{i % 9}", i * 0.01))
        if i % 3 == 2:
            best = min(ready, key=lambda job: (job.deadline - job.released, -job.priority))
            ready.remove(best)
            entry = stats.setdefault(best.task, [0.0, 0.0])
            entry[0] += 1.0
            entry[1] += best.deadline
            acc += best.deadline * 0.5 if best.priority > 3 else best.released
    for _ in range(8):
        p = np.cumsum(_REFERENCE_VECTOR) - _REFERENCE_VECTOR
        acc += float(p[np.argsort(-p)][:8].sum())
    return acc


def time_reference() -> float:
    """Host ms of one reference slice.

    The slice runs once untimed first, so that the timed run finds its code
    and data in cache whatever the program left there; and the cyclic
    collector is held off, so that the program's heap never lands in it.
    """
    enabled = gc.isenabled()
    gc.disable()
    reference_work()
    t0 = time.perf_counter()
    reference_work()
    ms = (time.perf_counter() - t0) * 1e3
    if enabled:
        gc.enable()
    return ms


def run_sampled(fn: Callable[[], Any], sample: bool) -> Tuple[Any, List[float], List[float]]:
    """Call ``fn``: its result, its host ms in spans and a reference slice
    timed after each span.

    With ``sample``, a SIGALRM handler cuts the call into spans of
    ``SAMPLE_PERIOD_S`` and times a slice at each cut, so that a call of a
    second or more is scaled by the host speed while it ran, as the windows
    of a run are.  Without, the call is one span and no slice is timed.
    """
    spans: List[float] = []
    slices: List[float] = []
    mark = time.perf_counter()
    if not sample:
        result = fn()
        return result, [(time.perf_counter() - mark) * 1e3], slices

    def cut(signum: int, frame: Any) -> None:
        nonlocal mark
        spans.append((time.perf_counter() - mark) * 1e3)
        slices.append(time_reference())
        mark = time.perf_counter()

    previous = signal.signal(signal.SIGALRM, cut)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
    try:
        result = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    cut(signal.SIGALRM, None)
    return result, spans, slices


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def modelled(result: RunResult, kind: str) -> Dict[str, float]:
    """The paper metrics of one run: deterministic for a given seed."""
    latency = result.latency_report()
    tracking = (
        result.speed_error_rms() if kind == "car_following" else result.lateral_offset_rms()
    )
    return {
        "miss_ratio": result.overall_miss_ratio(),
        "tracking_error_rms": tracking,
        "control_latency_ms_p50": latency.p50 * 1e3,
        "control_latency_ms_p99": latency.p99 * 1e3,
        "control_rate_hz": result.control_throughput(),
    }


def run_repeat(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Run every scheme of one workload once; return what was measured."""
    tracer = None
    if spec["trace"]:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    workload = WORKLOADS[spec["workload"]]
    seed = int(spec["seed"])
    horizon = spec["horizon"] if spec["horizon"] is not None else workload.horizon
    scenario = workload.build(horizon)

    calibrate = not spec["trace"]
    setup_s: Optional[float] = None
    sim_s = export_ms = 0.0
    window_ms: List[float] = []
    reference_ms: List[float] = []
    export_spans_ms: List[float] = []
    export_reference_ms: List[float] = []
    digests: Dict[str, str] = {}
    per_scheme: List[Dict[str, float]] = []
    results: List[RunResult] = []
    problems: List[str] = []
    obs: Dict[str, float] = {
        "obs.events": 0,
        "obs.check_recording.ms": 0.0,
        "obs.to_jsonl.ms": 0.0,
        "obs.jsonl_bytes": 0,
    }
    recorder: Optional[Recorder] = None
    jsonl = ""

    window_start = 0.0
    for scheme in workload.schemes:

        def before_run(executor: RTExecutor) -> None:
            nonlocal setup_s, window_start
            if setup_s is None:
                setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - spec["spawned"]
            close = executor.metrics.close_window

            def timed_close(*args: Any, **kwargs: Any) -> Any:
                nonlocal window_start
                sample = close(*args, **kwargs)
                window_ms.append((time.perf_counter() - window_start) * 1e3)
                if calibrate:
                    reference_ms.append(time_reference())
                window_start = time.perf_counter()
                return sample

            executor.metrics.close_window = timed_close  # type: ignore[method-assign]
            window_start = time.perf_counter()

        recorder = Recorder() if workload.recorded else None
        result = run_scenario(
            scenario, scheme, seed=seed, recorder=recorder, before_run=before_run
        )
        if recorder is not None:
            # A recorded run is done when its recording is checked and
            # exported, so both count toward its host time.
            stamps: List[float] = []

            def check_and_export(rec: Recorder = recorder) -> Tuple[List[Any], str]:
                stamps.append(time.perf_counter())
                violations = check_recording(rec)
                stamps.append(time.perf_counter())
                text = to_jsonl(rec)
                stamps.append(time.perf_counter())
                return violations, text

            (violations, jsonl), export_spans_ms, export_reference_ms = run_sampled(
                check_and_export, calibrate
            )
            export_ms = sum(export_spans_ms)
            problems.extend(f"{v.code}: {v.message}" for v in violations[:5])
            # Read only from the traced repeat, which times no slices.
            obs.update(
                {
                    "obs.events": len(recorder.events),
                    "obs.check_recording.ms": (stamps[1] - stamps[0]) * 1e3,
                    "obs.to_jsonl.ms": (stamps[2] - stamps[1]) * 1e3,
                    "obs.jsonl_bytes": len(jsonl.encode("utf-8")),
                }
            )
            digests[f"{scheme}.recording"] = digest(jsonl)
        sim_s += result.horizon
        digests[scheme] = digest(json.dumps(result.to_dict(), sort_keys=True))
        per_scheme.append(modelled(result, scenario.kind))
        results.append(result)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # The JSONL digest is compared across repeats, so one round trip per
    # set of repeats covers them all.
    if recorder is not None and spec["verify"]:
        back = from_jsonl(jsonl)
        if back.events != recorder.events or back.meta != recorder.meta:
            problems.append("from_jsonl(to_jsonl(recording)) does not round-trip")

    out: Dict[str, Any] = {
        "setup_s": setup_s,
        "sim_s": sim_s,
        "window_ms": window_ms,
        "reference_ms": reference_ms,
        "export_ms": export_ms,
        "export_spans_ms": export_spans_ms,
        "export_reference_ms": export_reference_ms,
        "peak_rss_mb": peak_rss_mb,
        "modelled": {
            key: sum(m[key] for m in per_scheme) / len(per_scheme) for key in per_scheme[0]
        },
        "tracking_unit": "m/s" if scenario.kind == "car_following" else "m",
        "digests": digests,
        "problems": problems,
    }
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, results, obs)
        trace_file = Path(spec["out"]) / f"trace-{spec['workload']}-seed{seed}.json.gz"
        tracer.write_chrome(trace_file)
        out["trace_file"] = str(trace_file)
    return out


def layer_metrics(
    tracer: Any, results: List[RunResult], obs: Dict[str, float]
) -> Dict[str, float]:
    """Tracer aggregates plus the work counts read from the run results."""
    layers = tracer.layer_metrics()
    stats = [s for r in results for s in r.metrics.per_task.values()]
    released = sum(s.released for s in stats)
    on_time = sum(s.completed for s in stats)
    layers.update(
        {
            "rt.executor.jobs_released": released,
            "rt.executor.jobs_on_time": on_time,
            "rt.executor.jobs_dropped": sum(s.dropped for s in stats),
            "rt.executor.useful_ratio": on_time / released if released else 0.0,
            "core.rate_adapter.update.resets": sum(r.rate_adapter_resets for r in results),
        }
    )
    layers.update(obs)
    return layers


if __name__ == "__main__":
    print(json.dumps(run_repeat(json.loads(sys.argv[1]))))
