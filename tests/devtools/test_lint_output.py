"""SARIF export (CI uploads it to code scanning)."""

from __future__ import annotations

import json

from repro.devtools.lint import format_sarif, run_lint
from repro.devtools.lint.cli import main as lint_main

# ---------------------------------------------------------------------------
# SARIF
# ---------------------------------------------------------------------------


def test_sarif_document_shape(violation_tree):
    diags = run_lint([violation_tree], root=violation_tree)
    doc = json.loads(format_sarif(diags))
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "hclint"
    declared = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert {"HC001", "HC007", "HC010", "HC011"} <= declared
    assert len(run["results"]) == len(diags)
    by_rule = {r["ruleId"]: r for r in run["results"]}
    hc001 = by_rule["HC001"]
    loc = hc001["locations"][0]["physicalLocation"]
    assert loc["artifactLocation"]["uri"] == "repro/rt/bad_clock.py"
    assert loc["region"]["startLine"] == 4
    assert hc001["level"] == "error"
    hc006 = by_rule["HC006"]
    assert hc006["level"] == "warning"


def test_sarif_output_is_deterministic(violation_tree):
    diags = run_lint([violation_tree], root=violation_tree)
    assert format_sarif(diags) == format_sarif(list(reversed(diags)))


def test_cli_format_sarif(violation_tree, capsys):
    exit_code = lint_main(
        ["--root", str(violation_tree), "--format", "sarif", str(violation_tree)]
    )
    assert exit_code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["runs"][0]["results"]
