"""``hcperf fleet`` CLI subcommands."""

import json

import pytest

from repro.cli import main

ARGS = [
    "--scenarios", "fig13",
    "--schedulers", "EDF,HCPerf",
    "--seeds", "0,1",
    "--horizon", "5",
    "--name", "clitest",
]


@pytest.fixture
def store(tmp_path):
    return str(tmp_path / "clitest.jsonl")


class TestFleetRun:
    def test_run_writes_store_and_reports(self, store, capsys):
        rc = main(["fleet", "run", *ARGS, "--store", store, "--jobs", "2", "--report"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "4 run, 0 resumed, 0 remaining" in out
        assert "speed_error_rms" in out  # --report table
        records = [json.loads(ln) for ln in open(store)]
        assert len(records) == 4
        assert {r["job"]["scheduler"] for r in records} == {"EDF", "HCPerf"}

    def test_interrupted_run_resumes(self, store, capsys):
        rc = main(["fleet", "run", *ARGS, "--store", store, "--max-jobs", "3"])
        assert rc == 1  # incomplete
        assert "3 run" in capsys.readouterr().out
        rc = main(["fleet", "run", *ARGS, "--store", store, "--jobs", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "1 run, 3 resumed" in out

    def test_spec_file(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "name": "fromfile",
                    "scenarios": ["fig13"],
                    "schedulers": ["EDF"],
                    "seeds": [0],
                    "variants": [{"horizon": 5.0}],
                }
            )
        )
        store = str(tmp_path / "s.jsonl")
        rc = main(["fleet", "run", "--spec", str(spec_path), "--store", store])
        assert rc == 0
        assert "campaign fromfile" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "text",
        ['{"scenarios": ["fig13"], "schedulers": ["EDF"], "seeds": 5}', "[]", "{not json"],
    )
    def test_malformed_spec_file_is_a_usage_error(self, tmp_path, capsys, text):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(text)
        store = tmp_path / "s.jsonl"
        rc = main(["fleet", "run", "--spec", str(spec_path), "--store", str(store)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not store.exists()


class TestFleetStatus:
    def test_status_before_and_after(self, store, capsys):
        rc = main(["fleet", "status", *ARGS, "--store", store])
        out = capsys.readouterr().out
        assert rc == 1 and "done    : 0/4" in out and out.count("pending") == 4
        main(["fleet", "run", *ARGS, "--store", store])
        capsys.readouterr()
        rc = main(["fleet", "status", *ARGS, "--store", store])
        assert rc == 0
        assert "done    : 4/4" in capsys.readouterr().out


class TestFleetReport:
    def test_report_from_store(self, store, capsys):
        main(["fleet", "run", *ARGS, "--store", store])
        capsys.readouterr()
        rc = main(["fleet", "report", "--store", store])
        out = capsys.readouterr().out
        assert rc == 0
        assert "speed_error_rms over 2 seed(s)" in out
        assert "per seed" in out

    def test_report_no_chart_and_metric(self, store, capsys):
        main(["fleet", "run", *ARGS, "--store", store])
        capsys.readouterr()
        rc = main(
            ["fleet", "report", "--store", store, "--metric", "overall_miss_ratio",
             "--no-chart"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "overall_miss_ratio" in out and "per seed" not in out

    def test_list_mentions_fleet(self, capsys):
        main(["list"])
        assert "hcperf fleet" in capsys.readouterr().out


class TestFleetStorePath:
    def test_non_jsonl_store_is_rejected_untouched(self, tmp_path, capsys):
        existing = tmp_path / "results.sqlite"
        content = b"SQLite format 3\x00" + bytes(range(256))
        existing.write_bytes(content)
        for command in (
            ["run", *ARGS],
            ["status", *ARGS],
            ["report"],
        ):
            rc = main(["fleet", *command, "--store", str(existing)])
            err = capsys.readouterr().err
            assert rc == 2, command
            assert err.startswith("error: ") and str(existing) in err
            assert existing.read_bytes() == content
        assert sorted(p.name for p in tmp_path.iterdir()) == ["results.sqlite"]
