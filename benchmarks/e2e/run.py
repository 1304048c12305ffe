"""End-to-end paper-scenario benchmark: four workloads, one command.

    python benchmarks/e2e/run.py --workload all --seed 0 --repeats 9 [--trace]
    python benchmarks/e2e/run.py --workload fig13_hcperf --seed 3 --seconds 30 --trace 0
    python benchmarks/e2e/run.py compare PARENT.json CHANGE.json

Every repeat is a fresh single-threaded child process (``child.py``) that
runs one workload on the scenario built from ``--seed``.  Repeats go
round-robin across workloads, so a noisy spell on the host hits every
workload alike.  ``--repeats N`` runs N rounds; ``--seconds S`` runs rounds
while another one still fits in S seconds (at least two, so that digests
can be compared across repeats).  ``--trace`` adds one traced repeat per
workload, which reports the per-layer metrics; with ``--seconds``, the
traced round counts in the budget and one untraced round is enough.

Host times are reported at a fixed reference host speed: each window's
host ms is scaled by the reference slices the child timed next to it (see
``speed_factors``), which takes out the shared host's changes of speed.

The command prints every end-to-end metric with its unit, the reason of
every failed repeat, and as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full results
(every repeat's values and digests) go to ``--out``, by default under
``benchmarks/e2e/out/``; ``compare`` reads two such files.  See README.md
for the metrics, the workloads and the layer-to-metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
CHILD = HERE / "child.py"

#: A hung child is killed and its repeat counted as failed.
CHILD_TIMEOUT_S = 150.0

#: Wall time of a traced round in untraced rounds: tracing adds 32-66% to
#: a repeat, and the traced child then writes its Chrome trace.
TRACE_COST = 1.7

#: Host ms of one ``child.reference_work`` slice, interleaved with the
#: simulation, on a calm 2-vCPU Intel Xeon VM at 2.0 GHz with Python 3.11.
#: Every host time is scaled to this speed (see ``speed_factors``).
REFERENCE_MS = 0.32

#: Windows on each side whose reference slices give a window's host speed.
SPEED_HALF_WIDTH = 1

#: The first slices of a repeat, whose median gives the host speed of set-up.
SETUP_SLICES = 8

#: The clock readings of a repeat, kept in the results file.
TIMINGS = (
    "setup_s", "window_ms", "reference_ms", "export_ms", "export_spans_ms", "export_reference_ms"
)

#: Every end-to-end metric: name -> (unit, better, compared exactly).
#: The modelled-system metrics are deterministic for a seed, so any change
#: in them is a change of behaviour, never noise.
END_TO_END: Dict[str, Tuple[str, str, bool]] = {
    "sim_rate": ("s/s", "higher", False),
    "window_ms_p50": ("ms", "lower", False),
    "window_ms_p90": ("ms", "lower", False),
    "setup_s": ("s", "lower", False),
    "peak_rss_mb": ("MB", "lower", False),
    "miss_ratio": ("ratio", "lower", True),
    # Speed RMS (m/s) in car following, lateral-offset RMS (m) in lane keeping.
    "tracking_error_rms": ("m/s", "lower", True),
    "control_latency_ms_p50": ("ms", "lower", True),
    "control_latency_ms_p99": ("ms", "lower", True),
    "control_rate_hz": ("Hz", "higher", True),
    "failed_ratio": ("ratio", "lower", True),
}


def load_spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def speed_factors(reference_ms: List[float]) -> List[float]:
    """Per window, the reference speed over the host speed around it.

    The host speed near window k is the median reference slice of windows
    k - SPEED_HALF_WIDTH to k + SPEED_HALF_WIDTH: wide enough that one slice
    caught by an interrupt does not move it, and narrow, because the host's
    speed changes from one second to the next.
    """
    h = SPEED_HALF_WIDTH
    return [
        REFERENCE_MS / statistics.median(reference_ms[max(0, k - h) : k + h + 1])
        for k in range(len(reference_ms))
    ]


def scaled_windows(repeat: Dict[str, Any]) -> List[float]:
    """Host ms per window at the reference speed."""
    factors = speed_factors(repeat["reference_ms"])
    return [w * f for w, f in zip(repeat["window_ms"], factors)]


def scaled_export_ms(repeat: Dict[str, Any]) -> float:
    """Host ms of the check and export at the reference speed, span by span."""
    if not repeat["export_reference_ms"]:
        return repeat["export_ms"]
    factors = speed_factors(repeat["export_reference_ms"])
    return sum(s * f for s, f in zip(repeat["export_spans_ms"], factors))


def scaled_setup_s(repeat: Dict[str, Any]) -> float:
    """Set-up time at the speed measured in the windows just after it."""
    first = repeat["reference_ms"][:SETUP_SLICES]
    return repeat["setup_s"] * REFERENCE_MS / statistics.median(first)


def host_slowdown(repeat: Dict[str, Any]) -> float:
    """How much slower than the reference speed the host ran in a repeat."""
    return statistics.median(repeat["reference_ms"]) / REFERENCE_MS


def busy_ms(repeat: Dict[str, Any]) -> float:
    """Host ms of one repeat's runs, its windows plus any check and export,
    at the reference speed."""
    return sum(scaled_windows(repeat)) + scaled_export_ms(repeat)


def raw_busy_ms(repeat: Dict[str, Any]) -> float:
    """Host ms of one repeat's runs as the clock read them."""
    return sum(repeat["window_ms"]) + repeat["export_ms"]


def window_percentiles(window_ms: List[float]) -> Tuple[float, float]:
    """p50 and p90 of host ms per coordination window."""
    if len(window_ms) < 2:
        return window_ms[0], window_ms[0]
    deciles = statistics.quantiles(window_ms, n=10, method="inclusive")
    return deciles[4], deciles[8]


# ----------------------------------------------------------------------
# Running repeats
# ----------------------------------------------------------------------
def run_child(
    workload: str,
    seed: int,
    horizon: Optional[float],
    trace: bool,
    verify: bool,
    out_dir: Path,
) -> Tuple[Optional[Dict[str, Any]], str]:
    """One repeat in a fresh process: ``(result, "")`` or ``(None, reason)``.

    ``verify`` adds the checks that need to pass only once per set of
    repeats, because the digests tie every other repeat to this one.
    """
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    spec = {
        "workload": workload,
        "seed": seed,
        "horizon": horizon,
        "trace": trace,
        "verify": verify,
        "out": str(out_dir),
        # CLOCK_MONOTONIC is system-wide, so the child can time its setup
        # from this instant.
        "spawned": time.clock_gettime(time.CLOCK_MONOTONIC),
    }
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), json.dumps(spec)],
            capture_output=True,
            text=True,
            env=env,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {CHILD_TIMEOUT_S:.0f} s"
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines() or ["no output"]
        return None, f"exit {proc.returncode}: {lines[-1]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), ""
    except (IndexError, json.JSONDecodeError):
        return None, "no result line"


class WorkloadRuns:
    """The repeats of one workload and the correctness verdict on each."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.repeats: List[Dict[str, Any]] = []
        self.traced: Optional[Dict[str, Any]] = None
        self.reference: Optional[Dict[str, str]] = None
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def add(self, result: Optional[Dict[str, Any]], reason: str, traced: bool) -> None:
        """Count one repeat; it fails on a crash, a problem or a digest mismatch."""
        self.attempted += 1
        label = "traced repeat" if traced else f"repeat {self.attempted}"
        problems = [reason] if result is None else list(result["problems"])
        if result is not None and self.reference is not None:
            problems += [
                f"{key} digest differs from the first repeat"
                for key, value in result["digests"].items()
                if self.reference.get(key) != value
            ]
        if problems:
            self.failed += 1
            self.failures += [f"{self.name} {label}: {p}" for p in problems]
            return
        assert result is not None
        if self.reference is None:
            self.reference = result["digests"]
        if traced:
            self.traced = result
        else:
            self.repeats.append(result)

    def end_to_end(self, bounds: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
        """Every end-to-end metric, with its per-repeat values and quartiles."""
        reps = self.repeats
        sim_s = reps[0]["sim_s"]
        scaled = [scaled_windows(r) for r in reps]
        runs: Dict[str, List[float]] = {
            "sim_rate": [sim_s * 1e3 / busy_ms(r) for r in reps],
            "setup_s": [scaled_setup_s(r) for r in reps],
            "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        }
        per_repeat = [window_percentiles(w) for w in scaled]
        runs["window_ms_p50"] = [p50 for p50, _ in per_repeat]
        runs["window_ms_p90"] = [p90 for _, p90 in per_repeat]
        values = {name: quartiles(v)[1] for name, v in runs.items()}
        # The window percentiles pool the windows of every repeat.  A
        # per-window fastest repeat would read lower the more repeats fit in
        # the time budget, and so would move with the host's speed.
        windows = [w for repeat in scaled for w in repeat]
        values["window_ms_p50"], values["window_ms_p90"] = window_percentiles(windows)
        values.update(reps[0]["modelled"])
        values["failed_ratio"] = self.failed / self.attempted
        out: Dict[str, Dict[str, Any]] = {}
        for name, (unit, better, exact) in END_TO_END.items():
            entry: Dict[str, Any] = {"value": values[name], "unit": unit, "better": better}
            if name in runs:
                q1, _, q3 = quartiles(runs[name])
                entry.update(runs=runs[name], q1=q1, q3=q3, n=len(runs[name]))
            entry["bound"] = 0.0 if exact else bounds[name]
            out[name] = entry
        out["tracking_error_rms"]["unit"] = reps[0]["tracking_unit"]
        out["window_ms_p50"]["samples"] = len(windows)
        return out

    def per_layer(self) -> Dict[str, float]:
        """The traced repeat's layer metrics plus the tracing overhead."""
        if self.traced is None or not self.repeats:
            return {}
        layers = dict(self.traced["layers"])
        # The traced repeat times no reference slices, so both sides are
        # compared as the clock read them.
        untraced = statistics.median(raw_busy_ms(r) for r in self.repeats)
        layers["trace.overhead_ratio"] = raw_busy_ms(self.traced) / untraced
        return layers

    def host(self) -> Dict[str, Any]:
        """Per repeat, the host's slowdown and the times the clock read."""
        return {
            "slowdown": [host_slowdown(r) for r in self.repeats],
            "timings": [{key: r[key] for key in TIMINGS} for r in self.repeats],
        }


def run_set(
    workloads: List[str],
    seed: int,
    horizon: Optional[float],
    repeats: Optional[int],
    seconds: Optional[float],
    trace: bool,
    out_dir: Path,
) -> Dict[str, WorkloadRuns]:
    runs = {name: WorkloadRuns(name) for name in workloads}
    # With --trace, the traced round must fit in the budget too, and the
    # traced repeat's digests are compared with one untraced round.
    traced_rounds = TRACE_COST if trace else 0.0
    fewest = 1 if trace else 2
    start = time.perf_counter()
    rounds = 0
    while True:
        for name in workloads:
            t0 = time.perf_counter()
            verify = runs[name].reference is None
            result, reason = run_child(name, seed, horizon, False, verify, out_dir)
            runs[name].add(result, reason, traced=False)
            print(
                f"[e2e] {name} repeat {rounds + 1}: {time.perf_counter() - t0:.2f} s"
                + (f" FAILED ({reason})" if reason else ""),
                file=sys.stderr,
            )
        rounds += 1
        elapsed = time.perf_counter() - start
        if repeats is not None:
            if rounds >= repeats:
                break
        elif rounds >= fewest and elapsed + (1 + traced_rounds) * elapsed / rounds > seconds:
            break
    if trace:
        for name in workloads:
            result, reason = run_child(name, seed, horizon, True, False, out_dir)
            runs[name].add(result, reason, traced=True)
    return runs


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def report(
    runs: Dict[str, WorkloadRuns],
    args: argparse.Namespace,
    spec: Dict[str, Any],
    out_path: Path,
) -> int:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    results: Dict[str, Any] = {"seed": args.seed, "horizon": args.horizon, "workloads": {}}
    metrics: Dict[str, Dict[str, Any]] = {}
    single = len(runs) == 1
    for name, wl in runs.items():
        print(f"{name}: {wl.attempted - wl.failed}/{wl.attempted} repeats passed")
        for failure in wl.failures:
            print(f"  FAILED {failure}")
        if not wl.repeats:
            continue
        e2e = wl.end_to_end(bounds)
        layers = wl.per_layer()
        results["workloads"][name] = {
            "metrics": e2e,
            "digests": wl.reference,
            "layers": layers,
            "host": wl.host(),
            "attempted": wl.attempted,
            "failed": wl.failed,
            "failures": wl.failures,
        }
        for metric, entry in e2e.items():
            spread = ""
            if "runs" in entry:
                spread = f"  q1 {entry['q1']:.6g}  q3 {entry['q3']:.6g}  n {entry['n']}"
            print(f"  {metric:24s} {entry['value']:14.6g} {entry['unit']:9s}{spread}")
        slowdown = results["workloads"][name]["host"]["slowdown"]
        print(f"  {'host slowdown':24s} {statistics.median(slowdown):14.6g} x")
        for metric, value in layers.items():
            print(f"  {metric:44s} {value:14.6g}")
        # One workload: exactly the BENCHMARK.json metrics of the mode.  A
        # whole set: every metric, prefixed with its workload.
        chosen: Dict[str, Tuple[Any, str]] = {}
        if not (single and args.trace):
            listed = bounds if single else e2e
            chosen.update({m: (e2e[m]["value"], e2e[m]["unit"]) for m in listed})
        if args.trace:
            chosen.update({m: (layers.get(m), units[m]) for m in units})
        for metric, (value, unit) in chosen.items():
            key = metric if single else f"{name}.{metric}"
            if value is not None:
                metrics[key] = {"value": value, "unit": unit}

    attempted = sum(wl.attempted for wl in runs.values())
    failed = sum(wl.failed for wl in runs.values())
    if not metrics:
        print("no repeat succeeded: nothing measured", file=sys.stderr)
        return 1
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(results, indent=1, sort_keys=True))
    print(f"results: {out_path}")
    correct = failed == 0
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


# ----------------------------------------------------------------------
# Comparing two result files
# ----------------------------------------------------------------------
def verdict(parent: Dict[str, Any], change: Dict[str, Any], bound: float) -> str:
    """ok / regression / unresolved for a noisy metric, by the benchmark's bound.

    The parent's repeat-to-repeat spread (quartile distance over median)
    wider than the bound makes the metric unresolved, unless every repeat
    of the change beats every repeat of the parent.
    """
    lower = parent["better"] == "lower"
    p_val, c_val = parent["value"], change["value"]
    p_runs, c_runs = parent["runs"], change["runs"]
    worse = (c_val - p_val) / p_val if lower else (p_val - c_val) / p_val
    spread = (parent["q3"] - parent["q1"]) / statistics.median(p_runs)
    all_better = max(c_runs) < min(p_runs) if lower else min(c_runs) > max(p_runs)
    if spread > bound and not all_better:
        return "unresolved"
    return "regression" if worse > bound else "ok"


def compare(parent_path: str, change_path: str) -> int:
    parent = json.loads(Path(parent_path).read_text())
    change = json.loads(Path(change_path).read_text())
    if (parent["seed"], parent["horizon"]) != (change["seed"], change["horizon"]):
        print("the two result files differ in seed or horizon", file=sys.stderr)
        return 2
    bounds = {m["name"]: m["bound"] for m in load_spec()["end_to_end"]}
    bad = 0
    print(f"{'workload':22s} {'metric':24s} {'parent':>14s} {'change':>14s} {'delta':>8s}  verdict")
    for name, p_wl in parent["workloads"].items():
        c_wl = change["workloads"].get(name)
        if c_wl is None:
            print(f"{name:22s} missing from {change_path}")
            bad += 1
            continue
        for metric, p in p_wl["metrics"].items():
            c = c_wl["metrics"][metric]
            if metric == "failed_ratio":
                result = "regression" if c["value"] > p["value"] else "ok"
            elif END_TO_END[metric][2]:
                result = "same" if c["value"] == p["value"] else "changed"
            else:
                result = verdict(p, c, bounds[metric])
            delta = (c["value"] - p["value"]) / p["value"] if p["value"] else 0.0
            bad += result in ("regression", "changed")
            print(
                f"{name:22s} {metric:24s} {p['value']:14.6g} {c['value']:14.6g} "
                f"{delta:+8.1%}  {result}"
            )
        same = p_wl["digests"] == c_wl["digests"]
        bad += not same
        print(f"{name:22s} {'digests':24s} {'':14s} {'':14s} {'':8s}  {'same' if same else 'changed'}")
    return 1 if bad else 0


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------
def main(argv: List[str]) -> int:
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare PARENT.json CHANGE.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    budget = parser.add_mutually_exclusive_group()
    budget.add_argument("--repeats", type=int, help="untraced rounds (default 9)")
    budget.add_argument("--seconds", type=float, help="time budget for untraced rounds")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
        help="add one traced repeat per workload and report per-layer metrics",
    )
    parser.add_argument("--horizon", type=float, help="simulated seconds per run")
    parser.add_argument("--out", help="results file (default under benchmarks/e2e/out/)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.repeats is None and args.seconds is None:
        args.repeats = 9
    workloads = names if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    out_path = Path(args.out) if args.out else OUT / (
        f"{args.workload}-seed{args.seed}{'-trace' if trace else ''}.json"
    )
    runs = run_set(
        workloads, args.seed, args.horizon, args.repeats, args.seconds, trace, out_path.parent
    )
    return report(runs, args, spec, out_path)


if __name__ == "__main__":
    # On SIGTERM, SystemExit unwinds through subprocess.run, which kills and
    # reaps the running child instead of leaving it orphaned.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main(sys.argv[1:]))
