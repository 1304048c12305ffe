"""Golden-trace regression: byte-stable exports and a pre-PR baseline.

Four independent pins:

* the canonical car-following recording serializes to exactly the bytes in
  ``tests/obs/golden/motivation_hcperf_s0_h2.jsonl``;
* its Chrome export stays schema-valid and the JSONL round-trips losslessly;
* the recorder-disabled CLI path still prints byte-identical JSON to the
  goldens captured before the observability layer existed;
* ``hcperf run fig13 HCPerf --seed 0 --horizon 3 --gantt --chains`` prints
  exactly ``tests/obs/golden/fig13_hcperf_s0_h3_gantt_chains.txt``, the
  Gantt and chain-budget views captured while they still read a separate
  interval tracer (never regenerate it).
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.runner import run_scenario
from repro.obs.export import (
    from_jsonl,
    to_chrome_trace,
    to_jsonl,
    validate_chrome_trace,
)
from repro.obs.invariants import check_recording
from repro.obs.recorder import Recorder
from repro.workloads.scenarios import motivation_red_light

GOLDEN = Path(__file__).parent / "golden"


def canonical_recording() -> Recorder:
    rec = Recorder()
    run_scenario(motivation_red_light(horizon=2.0), "HCPerf", seed=0, recorder=rec)
    return rec


@pytest.fixture(scope="module")
def golden_run():
    return canonical_recording()


class TestGoldenJsonl:
    def test_bytes_match_committed_golden(self, golden_run):
        golden = (GOLDEN / "motivation_hcperf_s0_h2.jsonl").read_text()
        assert to_jsonl(golden_run) == golden

    def test_golden_round_trips_losslessly(self, golden_run):
        golden = (GOLDEN / "motivation_hcperf_s0_h2.jsonl").read_text()
        clone = from_jsonl(golden)
        assert clone.events == golden_run.events
        assert clone.meta == golden_run.meta
        assert to_jsonl(clone) == golden

    def test_golden_recording_is_invariant_clean(self, golden_run):
        assert check_recording(golden_run) == []

    def test_chrome_export_is_schema_valid(self, golden_run):
        trace = to_chrome_trace(golden_run)
        assert validate_chrome_trace(trace) == []
        # stays valid through a serialize/parse cycle
        assert validate_chrome_trace(json.loads(json.dumps(trace))) == []


class TestPrePrByteIdentity:
    """Recorder disabled (the default), CLI output is exactly pre-PR."""

    @pytest.mark.parametrize(
        "scheduler, golden_name",
        [
            ("HCPerf", "pre_pr_fig13_hcperf_s0_h10.json"),
            ("EDF", "pre_pr_fig13_edf_s0_h10.json"),
        ],
    )
    def test_cli_json_output_unchanged(self, scheduler, golden_name, capsys):
        code = main(
            ["run", "fig13", scheduler, "--seed", "0", "--horizon", "10", "--json"]
        )
        assert code == 0
        assert capsys.readouterr().out == (GOLDEN / golden_name).read_text()


class TestGanttChainsGolden:
    """The Gantt and chain-budget views of a recording are pinned byte for byte."""

    def test_cli_gantt_and_chains_output_unchanged(self, capsys):
        code = main(
            ["run", "fig13", "HCPerf", "--seed", "0", "--horizon", "3",
             "--gantt", "--chains"]
        )
        assert code == 0
        golden = (GOLDEN / "fig13_hcperf_s0_h3_gantt_chains.txt").read_text()
        assert capsys.readouterr().out == golden
