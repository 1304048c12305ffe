"""``hcperf faults`` subcommand: list, run, spec resolution, determinism."""

import json

import pytest

from repro.cli import main as hcperf_main
from repro.faults import FaultSpec


class TestList:
    def test_names_every_spec_and_kind(self, capsys):
        assert hcperf_main(["faults", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("canonical", "fusion_spike", "cpu_failure"):
            assert name in out
        for kind in ("exec_spike", "sensor_dropout", "processor_failure"):
            assert kind in out


class TestRun:
    def test_named_spec_with_alias_and_lowercase_scheduler(self, capsys):
        code = hcperf_main(
            ["faults", "run", "car_following", "hcperf",
             "--spec", "fusion_spike", "--horizon", "30"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "scheduler   : HCPerf" in out
        assert "fusion_spike" in out

    def test_json_output_is_deterministic(self, capsys):
        argv = ["faults", "run", "fig13", "EDF",
                "--spec", "fusion_spike", "--horizon", "20", "--json"]
        assert hcperf_main(argv) == 0
        first = capsys.readouterr().out
        assert hcperf_main(argv) == 0
        assert capsys.readouterr().out == first
        payload = json.loads(first)
        assert payload["scheduler"] == "EDF"
        assert payload["spec_name"] == "fusion_spike"
        assert payload["fault_events"]

    def test_spec_file_wins_over_names(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        FaultSpec(name="from-file").save(path)
        code = hcperf_main(
            ["faults", "run", "fig13", "EDF", "--spec", str(path),
             "--horizon", "10"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "from-file" in out
        assert "none (empty spec)" in out

    def test_unknown_spec_is_a_usage_error(self, capsys):
        code = hcperf_main(
            ["faults", "run", "fig13", "EDF", "--spec", "no_such_spec"]
        )
        assert code == 2
        assert "unknown fault spec" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[]", '{"faults": 5}', "{not json"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["faults", "run", "car_following", "hcperf", "--spec", "SPEC"],
            ["trace", "run", "--scenario", "car_following", "--faults", "SPEC",
             "--out", "OUT"],
        ],
    )
    def test_malformed_spec_file_is_a_usage_error(self, tmp_path, capsys, argv, text):
        path = tmp_path / "spec.json"
        path.write_text(text)
        paths = {"SPEC": str(path), "OUT": str(tmp_path / "trace.jsonl")}
        assert hcperf_main([paths.get(a, a) for a in argv]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "trace.jsonl").exists()

    def test_unknown_scheduler_is_a_usage_error(self, capsys):
        code = hcperf_main(
            ["faults", "run", "fig13", "NotAScheduler", "--spec", "canonical"]
        )
        assert code == 2
        assert "scheduler" in capsys.readouterr().err
