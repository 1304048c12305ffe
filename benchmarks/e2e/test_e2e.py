"""Smoke and contract tests of the end-to-end benchmark.

Every workload runs at a 2 s horizon with 2 repeats plus a traced repeat,
which takes a few seconds; the timings themselves are not checked.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

ROOT = run.ROOT
SPEC = run.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
RECORDER_OFF = [w for w in WORKLOADS if w != "fig13_typed_recorded"]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks/e2e/run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def full_set(tmp_path_factory):
    """One traced set of every workload: (final JSON line, results file)."""
    out = tmp_path_factory.mktemp("e2e") / "set.json"
    proc = bench(
        "--workload", "all", "--seed", "0", "--repeats", "2", "--horizon", "2",
        "--trace", "--out", str(out),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return last_json(proc.stdout), json.loads(out.read_text())


def test_every_benchmark_metric_is_emitted(full_set):
    line, results = full_set
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] == 3 * len(WORKLOADS)
    for name in WORKLOADS:
        wl = results["workloads"][name]
        for metric in SPEC["end_to_end"]:
            assert f"{name}.{metric['name']}" in line["metrics"]
            assert wl["metrics"][metric["name"]]["unit"] == metric["unit"]
        for metric in run.END_TO_END:
            assert f"{name}.{metric}" in line["metrics"]
        for metric in SPEC["per_layer"]:
            assert metric["name"] in wl["layers"], (name, metric["name"])


def test_traced_repeat_matches_untraced(full_set):
    _, results = full_set
    for name in WORKLOADS:
        wl = results["workloads"][name]
        # A traced digest that differed would have been counted as failed.
        assert wl["failed"] == 0 and wl["failures"] == []
        assert wl["layers"]["trace.spans"] > 0


def test_self_time_never_exceeds_span(full_set):
    _, results = full_set
    for name in WORKLOADS:
        layers = results["workloads"][name]["layers"]
        for key, value in layers.items():
            if key.endswith(".self_ms"):
                assert value <= layers[key[: -len("self_ms")] + "ms"] + 1e-9, (name, key)


def test_layers_a_workload_bypasses_read_zero(full_set):
    _, results = full_set
    layers = {name: results["workloads"][name]["layers"] for name in WORKLOADS}
    assert layers["fig13_baselines"]["core.dynamic_priority.resolve.calls"] == 0
    assert layers["fig13_hcperf"]["core.dynamic_priority.resolve.calls"] > 0
    for name in RECORDER_OFF:
        assert layers[name]["obs.recorder.calls"] == 0
        assert layers[name]["obs.events"] == 0
    assert layers["fig13_typed_recorded"]["obs.recorder.calls"] > 0


def test_single_workload_prints_exactly_the_benchmark_metrics(tmp_path):
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for trace, names in (("0", end_to_end), ("1", per_layer)):
        proc = bench(
            "--workload", "fig13_hcperf", "--seed", "1", "--seconds", "1",
            "--horizon", "2", "--trace", trace, "--out", str(tmp_path / "one.json"),
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        line = last_json(proc.stdout)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert set(line["metrics"]) == names


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks/e2e", tmp_path / "benchmarks/e2e")
    proc = bench("--workload", "fig13_hcperf", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_a_digest_mismatch_counts_as_a_failure():
    wl = run.WorkloadRuns("fig13_hcperf")
    result = {"problems": [], "digests": {"HCPerf": "a"}}
    wl.add(result, "", traced=False)
    wl.add(dict(result, digests={"HCPerf": "b"}), "", traced=False)
    wl.add(None, "exit 1: boom", traced=True)
    assert (wl.attempted, wl.failed) == (3, 2)
    assert "HCPerf digest differs" in wl.failures[0]
    assert "boom" in wl.failures[1]


def test_a_host_slowdown_is_scaled_out():
    calm = [20.0, 30.0, 25.0, 40.0, 22.0] * 8
    reference = [run.REFERENCE_MS] * len(calm)
    # The host halves its speed from the 20th window on: the program's
    # windows and the reference slices around them take twice as long.
    slow = [w * (2 if k >= 20 else 1) for k, w in enumerate(calm)]
    slow_reference = [r * (2 if k >= 20 else 1) for k, r in enumerate(reference)]
    repeat = {
        "window_ms": slow, "reference_ms": slow_reference, "export_ms": 0.0,
        "export_reference_ms": [],
    }
    # The median of the slices around a window follows a step exactly.
    assert run.scaled_windows(repeat) == calm
    assert run.busy_ms(repeat) == sum(calm)
    assert run.raw_busy_ms(repeat) == sum(slow)


def test_compare_flags_a_sim_rate_drop_past_its_bound(full_set, tmp_path, capsys):
    results = copy.deepcopy(full_set[1])
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "sim_rate")
    sim_rate = results["workloads"]["fig13_hcperf"]["metrics"]["sim_rate"]
    sim_rate.update(runs=[10.0, 10.1, 9.9, 10.05], value=10.025, q1=9.925, q3=10.0875)
    parent, change = tmp_path / "parent.json", tmp_path / "change.json"
    parent.write_text(json.dumps(results))

    def compare_with_sim_rate_scaled(factor):
        slower = copy.deepcopy(results)
        slow = slower["workloads"]["fig13_hcperf"]["metrics"]["sim_rate"]
        slow["runs"] = [v * factor for v in sim_rate["runs"]]
        slow["value"] *= factor
        change.write_text(json.dumps(slower))
        capsys.readouterr()
        code = run.compare(str(parent), str(change))
        return code, [r for r in capsys.readouterr().out.splitlines() if "regression" in r]

    assert compare_with_sim_rate_scaled(1.0) == (0, [])
    assert compare_with_sim_rate_scaled(1.0 - bound + 0.05) == (0, [])
    code, rows = compare_with_sim_rate_scaled(1.0 - bound - 0.05)
    assert code == 1
    assert len(rows) == 1 and rows[0].split()[:2] == ["fig13_hcperf", "sim_rate"]


def test_compare_reports_a_noisy_parent_as_unresolved():
    parent = {
        "better": "higher", "value": 11.0, "runs": [8.0, 12.0, 9.0, 11.0],
        "q1": 8.25, "q3": 11.75,
    }
    slower = {"better": "higher", "value": 10.5, "runs": [8.5, 11.0, 9.5, 10.0]}
    faster = {"better": "higher", "value": 13.5, "runs": [12.5, 13.0, 12.1, 14.0]}
    assert run.verdict(parent, slower, 0.10) == "unresolved"
    assert run.verdict(parent, faster, 0.10) == "ok"
