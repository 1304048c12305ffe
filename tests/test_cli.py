"""CLI front-end tests."""

import pytest

from repro.cli import build_parser, main


class TestCLI:
    def test_list_is_default(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "fig13_car_following" in out and "overhead" in out

    def test_explicit_list(self, capsys):
        assert main(["list"]) == 0
        assert "Available experiments" in capsys.readouterr().out

    def test_run_fig05(self, capsys):
        assert main(["fig05_toy"]) == 0
        out = capsys.readouterr().out
        assert "adaptive" in out and "preferred" in out

    def test_run_overhead_with_seed(self, capsys):
        assert main(["overhead", "--seed", "3"]) == 0
        assert "coordination" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["does_not_exist"])

    def test_parser_choices_cover_registry(self):
        from repro.experiments import EXPERIMENTS

        parser = build_parser()
        for exp_id in EXPERIMENTS:
            assert parser.parse_args([exp_id]).experiment == exp_id

    def test_all_propagates_an_experiments_type_error(self, monkeypatch, capsys):
        """A TypeError inside an experiment is a bug, never a cue to retry."""
        import types

        calls = []

        def broken_main(seed=0):
            calls.append(seed)
            raise TypeError("raised deep inside the experiment")

        monkeypatch.setattr(
            "repro.cli.EXPERIMENTS", {"boom": types.SimpleNamespace(main=broken_main)}
        )
        with pytest.raises(TypeError, match="deep inside"):
            main(["all", "--seed", "1"])
        assert calls == [1]

    def test_experiment_labels_are_unique(self):
        """Each module's docstring opens with its E-number, as `hcperf list` shows."""
        import re

        from repro.experiments import EXPERIMENTS

        labels = [m.__doc__.split()[0] for m in EXPERIMENTS.values()]
        assert all(re.fullmatch(r"E\d+", label) for label in labels), labels
        assert len(set(labels)) == len(labels), sorted(labels)


class TestRunSubcommand:
    def test_run_text_output(self, capsys):
        assert main(["run", "fig13", "EDF", "--horizon", "5"]) == 0
        out = capsys.readouterr().out
        assert "miss ratio" in out and "speed_error_rms" in out

    def test_run_json_output(self, capsys):
        import json

        assert main(["run", "fig13", "HCPerf", "--horizon", "5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scheduler"] == "HCPerf"
        assert "speed_error_rms" in payload

    def test_run_lane_keeping(self, capsys):
        assert main(["run", "lane_keeping", "EDF", "--horizon", "5"]) == 0
        assert "lateral_offset_rms" in capsys.readouterr().out

    def test_run_unknown_scenario(self):
        with pytest.raises(SystemExit):
            main(["run", "flying", "EDF"])

    def test_list_mentions_run(self, capsys):
        main(["list"])
        assert "hcperf run" in capsys.readouterr().out

    def test_run_gantt(self, capsys):
        assert main(["run", "fig13", "EDF", "--horizon", "3", "--gantt"]) == 0
        out = capsys.readouterr().out
        assert "gantt [" in out and "p0" in out

    def test_run_chains(self, capsys):
        assert main(["run", "fig13", "HCPerf", "--horizon", "3", "--chains"]) == 0
        out = capsys.readouterr().out
        assert "Chain latency budget" in out and "sensor_fusion" in out


class TestValidateSubcommand:
    def test_validate_healthy(self, capsys):
        rc = main(["validate", "fig13"])
        out = capsys.readouterr().out
        assert "Platform check" in out
        assert rc == 0

    def test_validate_overloaded_nonzero_exit(self, capsys):
        rc = main(["validate", "traffic_jam", "--complexity", "30"])
        out = capsys.readouterr().out
        assert "WARNINGS" in out
        assert rc == 1

    def test_validate_processor_override(self, capsys):
        rc = main(["validate", "fig13", "--processors", "8"])
        assert rc == 0
        assert "8 processors" in capsys.readouterr().out

    @pytest.mark.parametrize("bad", ["0", "-3", "1025", "two"])
    def test_validate_rejects_out_of_range_processors(self, bad, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "fig13", "--processors", bad])
        assert exc.value.code == 2
        assert "--processors" in capsys.readouterr().err


class TestHorizonFlag:
    """Every ``--horizon`` flag takes positive, finite seconds or exits 2."""

    COMMANDS = [
        ["run", "fig13", "HCPerf"],
        ["faults", "run", "fig13", "HCPerf", "--spec", "fusion_spike"],
        ["trace", "run", "--scenario", "fig13", "--out", "unused.jsonl"],
        ["fleet", "run", "--scenarios", "fig13", "--schedulers", "EDF", "--seeds", "0"],
    ]

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "-inf", "soon"])
    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: " ".join(c[:2]))
    def test_bad_horizon_is_a_usage_error(self, command, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--horizon", value])
        assert exc.value.code == 2
        assert "--horizon" in capsys.readouterr().err


class TestTraceInput:
    """A malformed recording is a usage error naming its line, never a traceback."""

    @pytest.mark.parametrize(
        "line",
        [
            "[1]",
            '{"ev":"release","t":"x"}',
            '{"ev":"window","t":1e999}',
            "{not json",
            "[" * 100_000,
        ],
    )
    @pytest.mark.parametrize("command", [["check"], ["export", "--format", "summary"]])
    def test_malformed_line_exits_2(self, tmp_path, capsys, command, line):
        path = tmp_path / "bad.jsonl"
        path.write_text(line + "\n")
        argv = ["trace", command[0], str(path), *command[1:]]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: line 1: ")


class TestTraceCheckList:
    """``trace check --list`` prints the catalog without reading a recording."""

    @pytest.mark.parametrize(
        "argv",
        [["trace", "check", "--list"], ["trace", "check", "/nonexistent.jsonl", "--list"]],
        ids=["no-recording", "missing-recording"],
    )
    def test_list_needs_no_recording(self, argv, capsys):
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == [f"OBS00{i}" for i in range(1, 10)]

    def test_check_without_recording_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "check"])
        assert exc.value.code == 2
        assert "recording" in capsys.readouterr().err
