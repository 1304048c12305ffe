"""Engine-level behavior: severity filtering, rule selection, parse errors,
and the registry."""

from __future__ import annotations

import pytest

from repro.devtools.lint import (
    PARSE_ERROR_RULE,
    Severity,
    get_rules,
    lint_file,
    rule_ids,
    run_lint,
)
from repro.devtools.lint.engine import _REGISTRY, register

from .conftest import VIOLATION_FIXTURES, write_tree


def test_shipped_rule_ids():
    assert rule_ids() == [
        "HC001",
        "HC002",
        "HC003",
        "HC004",
        "HC005",
        "HC006",
        "HC007",
    ]


def test_severity_filter_drops_warnings(violation_tree):
    errors = run_lint(
        [violation_tree], root=violation_tree, min_severity=Severity.ERROR
    )
    # HC006 is the only warning-severity rule in the fixture tree.
    assert sorted(d.rule for d in errors) == sorted(
        rule
        for _, rule, _ in VIOLATION_FIXTURES.values()
        if rule != "HC006"
    )


def test_rule_selection_restricts_and_rejects_unknown(violation_tree):
    only = run_lint([violation_tree], root=violation_tree, rules=["hc001"])
    assert [d.rule for d in only] == ["HC001"]
    with pytest.raises(ValueError, match="HC999"):
        run_lint([violation_tree], root=violation_tree, rules=["HC999"])


def test_syntax_error_yields_hc000(tmp_path):
    write_tree(tmp_path, {"repro/rt/broken.py": "def f(:\n"})
    diags = lint_file(tmp_path / "repro/rt/broken.py", root=tmp_path)
    assert [d.rule for d in diags] == [PARSE_ERROR_RULE]
    assert "syntax error" in diags[0].message


def test_diagnostics_are_sorted_and_stable(violation_tree):
    diags = run_lint([violation_tree], root=violation_tree)
    assert diags == sorted(diags)
    assert diags == run_lint([violation_tree], root=violation_tree)


def test_register_rejects_duplicate_rule_ids():
    get_rules()  # ensure built-ins are registered

    with pytest.raises(ValueError, match="duplicate rule id"):

        @register
        class Clash:  # noqa — minimal stand-in; only .id is consulted
            id = "HC001"

            def __init__(self) -> None:
                pass

    assert "HC001" in _REGISTRY  # original registration untouched


def test_files_outside_a_repro_package_only_get_unscoped_rules(tmp_path):
    write_tree(
        tmp_path,
        {
            "scripts/helper.py": (
                "import time\n"
                "\n"
                "def f(xs=[]):\n"
                "    return time.time()\n"
            )
        },
    )
    diags = run_lint([tmp_path], root=tmp_path)
    # HC004 applies everywhere; HC001 only under a repro package.
    assert [d.rule for d in diags] == ["HC004"]
