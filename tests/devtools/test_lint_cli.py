"""``hcperf lint`` CLI: exit codes, rule listing, and the JSON golden.

The golden below is the byte-exact ``--format json`` output over the
violation fixture tree.  CI annotation tooling consumes this shape; any
change to it (field names, ordering, message text of a shipped rule)
must bump ``JSON_FORMAT_VERSION`` and update the golden deliberately.
"""

from __future__ import annotations

import json

from repro.cli import main as hcperf_main
from repro.devtools.lint.cli import main as lint_main

GOLDEN_JSON = """\
{
  "counts": {
    "error": 6,
    "warning": 1
  },
  "diagnostics": [
    {
      "col": 21,
      "line": 1,
      "message": "mutable default argument in collect(); the default is evaluated once and shared across calls \\u2014 use None and materialize inside",
      "path": "repro/core/bad_defaults.py",
      "rule": "HC004",
      "severity": "error"
    },
    {
      "col": 12,
      "line": 4,
      "message": "unseeded random.Random(); pass the run seed explicitly",
      "path": "repro/faults/bad_model.py",
      "rule": "HC002",
      "severity": "error"
    },
    {
      "col": 5,
      "line": 4,
      "message": "bare except: catches SystemExit/KeyboardInterrupt and hides worker failures; name the exception type",
      "path": "repro/fleet/bad_worker.py",
      "rule": "HC005",
      "severity": "error"
    },
    {
      "col": 12,
      "line": 4,
      "message": "wall-clock read time.time; simulation results must be a pure function of the run seed (time host cost from the benchmarks/e2e tracer, outside src/)",
      "path": "repro/rt/bad_clock.py",
      "rule": "HC001",
      "severity": "error"
    },
    {
      "col": 5,
      "line": 7,
      "message": "TypoPolicy.on_windows looks like an executor hook but is not one (known hooks: eligible, on_dispatch_round, on_window, prepare, rank, ranked); it would never be called",
      "path": "repro/schedulers/bad_policy.py",
      "rule": "HC003",
      "severity": "error"
    },
    {
      "col": 12,
      "line": 2,
      "message": "exact float equality on time quantity ('deadline', 'now'); use repro.rt.timeutil.times_close(a, b) or is_zero_time(x) to make the tolerance explicit",
      "path": "repro/vehicle/bad_eq.py",
      "rule": "HC006",
      "severity": "warning"
    },
    {
      "col": 12,
      "line": 4,
      "message": "process-global RNG call random.random; draw from an explicitly seeded random.Random instead",
      "path": "repro/workloads/bad_rng.py",
      "rule": "HC002",
      "severity": "error"
    }
  ],
  "version": 1
}
"""

def test_json_golden_output(violation_tree, capsys):
    exit_code = lint_main(
        ["--root", str(violation_tree), "--format", "json", str(violation_tree)]
    )
    assert exit_code == 1
    assert capsys.readouterr().out == GOLDEN_JSON
    # and it really is valid, versioned JSON
    payload = json.loads(GOLDEN_JSON)
    assert payload["version"] == 1
    assert payload["counts"] == {"error": 6, "warning": 1}


def test_clean_tree_exits_zero(tmp_path, capsys):
    (tmp_path / "repro").mkdir()
    (tmp_path / "repro" / "clean.py").write_text(
        "def double(x):\n    return 2 * x\n", encoding="utf-8"
    )
    exit_code = lint_main(["--root", str(tmp_path), str(tmp_path)])
    assert exit_code == 0
    assert "clean" in capsys.readouterr().out


def test_linting_is_read_only(violation_tree, capsys):
    # Every run is a fresh analysis: no cache or report file is left
    # behind under the root it was pointed at.
    before = sorted(violation_tree.rglob("*"))
    assert lint_main(["--root", str(violation_tree), str(violation_tree)]) == 1
    assert sorted(violation_tree.rglob("*")) == before


def test_unknown_rule_is_a_usage_error(tmp_path, capsys):
    exit_code = lint_main(["--rule", "HC999", str(tmp_path)])
    assert exit_code == 2
    assert "unknown rule" in capsys.readouterr().err


def test_rule_filter_and_severity_filter(violation_tree, capsys):
    exit_code = lint_main(
        ["--root", str(violation_tree), "--rule", "HC001", str(violation_tree)]
    )
    out = capsys.readouterr().out
    assert exit_code == 1
    assert "HC001" in out and "HC002" not in out

    exit_code = lint_main(
        [
            "--root",
            str(violation_tree),
            "--severity",
            "error",
            "--rule",
            "HC006",
            str(violation_tree),
        ]
    )
    assert exit_code == 0  # HC006 is warning-severity, filtered out


def test_list_rules_names_every_rule(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in (
        "HC001",
        "HC002",
        "HC003",
        "HC004",
        "HC005",
        "HC006",
    ):
        assert rule_id in out
    for gone in ("HC007", "HC008", "HC009", "HC010", "HC011"):
        assert gone not in out


def test_hcperf_lint_subcommand_is_wired(violation_tree, capsys):
    exit_code = hcperf_main(
        ["lint", "--root", str(violation_tree), str(violation_tree)]
    )
    assert exit_code == 1
    assert "HC001" in capsys.readouterr().out


def test_missing_directory_is_a_usage_error(tmp_path, capsys):
    assert lint_main([str(tmp_path / "no_such_dir")]) == 2
    assert "hclint: error: no such file or directory" in capsys.readouterr().err


def test_missing_python_file_is_a_usage_error(tmp_path, capsys):
    assert lint_main([str(tmp_path / "gone.py")]) == 2
    assert "hclint: error: no such file or directory" in capsys.readouterr().err


def test_non_python_file_is_a_usage_error(tmp_path, capsys):
    readme = tmp_path / "README.md"
    readme.write_text("# notes\n", encoding="utf-8")
    assert lint_main([str(readme)]) == 2
    assert "hclint: error: not a Python file" in capsys.readouterr().err
