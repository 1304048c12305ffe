"""The exact work-counter gate: the end-to-end benchmark's modelled work, pinned.

    PYTHONPATH=src python -m pytest benchmarks/test_work_counters.py
    python benchmarks/test_work_counters.py     # rewrite work_counters.json

The gate runs ``benchmarks/e2e/run.py`` once per workload at seed 0 over a
20 s horizon (past the t = 10 s fusion overload), with a traced repeat, and
compares three things per workload with ``work_counters.json``, key for key:
every digest, the five modelled metrics, and every per-layer value that is
not a host timing (events, queue scans, rank/eligible/estimate calls, the
γ_max depth histogram, ...).  All of them are functions of the code and the
seed alone, so a difference is a change of behaviour or of work, never
noise.  A change that means to move a counter reruns this file as a script
and commits the rewritten JSON with the reason; never regenerate it to
absorb a change nobody can explain.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
COMMITTED = HERE / "work_counters.json"
HORIZON_S = 20

#: The exact modelled-system metrics of ``run.py`` (``failed_ratio`` is
#: covered by the exit code).
MODELLED = (
    "miss_ratio",
    "tracking_error_rms",
    "control_latency_ms_p50",
    "control_latency_ms_p99",
    "control_rate_hz",
)


def is_timing(key: str) -> bool:
    """Host-time layer keys: they vary run to run and are not compared."""
    return key.endswith("ms") or key == "trace.overhead_ratio"


def run_set(out: Path) -> Dict[str, Any]:
    """One traced e2e set at the gate's seed and horizon; its results file."""
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "e2e" / "run.py"), "--workload", "all",
            "--seed", "0", "--repeats", "1", "--trace", "--horizon", str(HORIZON_S),
            "--out", str(out),
        ],
        capture_output=True,
        text=True,
        timeout=900,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(out.read_text())


def extract(results: Dict[str, Any]) -> Dict[str, Any]:
    """The exact part of a ``run.py`` results file, per workload."""
    return {
        name: {
            "digests": wl["digests"],
            "metrics": {m: wl["metrics"][m]["value"] for m in MODELLED},
            "layers": {k: v for k, v in wl["layers"].items() if not is_timing(k)},
        }
        for name, wl in results["workloads"].items()
    }


def flat(workload: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    """``{"layers": {"rt.executor.events": 5}}`` -> ``{"layers.rt.executor.events": 5}``."""
    return {f"{section}.{k}": v for section, values in workload.items() for k, v in values.items()}


def differences(committed: Dict[str, Any], fresh: Dict[str, Any]) -> List[str]:
    """One line per workload or key that differs, is missing or is extra."""
    lines = []
    for name in sorted(committed.keys() | fresh.keys()):
        if name not in fresh:
            lines.append(f"{name}: workload missing from the fresh run")
            continue
        if name not in committed:
            lines.append(f"{name}: extra workload, not in {COMMITTED.name}")
            continue
        old, new = flat(committed[name]), flat(fresh[name])
        for key in sorted(old.keys() | new.keys()):
            if key not in new:
                lines.append(f"{name}: {key} missing (committed {old[key]!r})")
            elif key not in old:
                lines.append(f"{name}: {key} extra (fresh {new[key]!r})")
            elif old[key] != new[key]:
                lines.append(f"{name}: {key} committed {old[key]!r}, fresh {new[key]!r}")
    return lines


def committed() -> Dict[str, Any]:
    return json.loads(COMMITTED.read_text())


def test_work_counters_match_committed(tmp_path):
    diff = differences(committed(), extract(run_set(tmp_path / "w.json")))
    assert not diff, (
        f"work differs from {COMMITTED.name} (rerun `python benchmarks/"
        "test_work_counters.py` only if the change is meant):\n" + "\n".join(diff)
    )


def test_committed_file_covers_every_workload():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    counters = committed()
    assert sorted(counters) == sorted(w["name"] for w in spec["workloads"])
    exact_layers = {m["name"] for m in spec["per_layer"] if not is_timing(m["name"])}
    for name, wl in counters.items():
        assert wl["digests"], name
        assert sorted(wl["metrics"]) == sorted(MODELLED), name
        assert exact_layers <= set(wl["layers"]), name
        assert not [k for k in wl["layers"] if is_timing(k)], name


# ----------------------------------------------------------------------
# The comparator, on doctored extractions
# ----------------------------------------------------------------------
def test_identical_extractions_agree():
    assert differences(committed(), committed()) == []


def test_counter_off_by_one_is_named():
    fresh = committed()
    fresh["fig13_hcperf"]["layers"]["rt.queue.pop_best.scanned"] += 1
    old = committed()["fig13_hcperf"]["layers"]["rt.queue.pop_best.scanned"]
    assert differences(committed(), fresh) == [
        f"fig13_hcperf: layers.rt.queue.pop_best.scanned committed {old!r}, fresh {old + 1!r}"
    ]


def test_changed_digest_is_named():
    fresh = committed()
    fresh["fig13_baselines"]["digests"]["EDF"] = "0" * 64
    (line,) = differences(committed(), fresh)
    assert line.startswith("fig13_baselines: digests.EDF committed ")


def test_changed_modelled_metric_is_named():
    fresh = committed()
    fresh["lane_keeping_hcperf"]["metrics"]["miss_ratio"] += 1e-12
    (line,) = differences(committed(), fresh)
    assert line.startswith("lane_keeping_hcperf: metrics.miss_ratio committed ")


def test_missing_and_extra_workload_are_named():
    fresh = committed()
    fresh["new_workload"] = fresh.pop("fig13_typed_recorded")
    assert differences(committed(), fresh) == [
        "fig13_typed_recorded: workload missing from the fresh run",
        f"new_workload: extra workload, not in {COMMITTED.name}",
    ]


def test_missing_and_extra_key_are_named():
    fresh = committed()
    del fresh["fig13_hcperf"]["layers"]["rt.executor.events"]
    fresh["fig13_hcperf"]["layers"]["rt.executor.new_counter"] = 7
    old = committed()["fig13_hcperf"]["layers"]["rt.executor.events"]
    assert differences(committed(), fresh) == [
        f"fig13_hcperf: layers.rt.executor.events missing (committed {old!r})",
        "fig13_hcperf: layers.rt.executor.new_counter extra (fresh 7)",
    ]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        counters = extract(run_set(Path(tmp) / "w.json"))
    COMMITTED.write_text(json.dumps(counters, indent=1, sort_keys=True) + "\n")
    print(f"wrote {COMMITTED}")
