"""``hcperf lint`` — the command-line front-end of hclint.

Exit codes: 0 clean, 1 diagnostics reported, 2 usage error.  The JSON
format is version-pinned and golden-tested so CI annotation tooling can
rely on it byte-for-byte; ``--format sarif`` emits SARIF 2.1.0 for code
scanning.  Every run is the same whole-tree, two-pass :func:`run_lint`
the tier-1 gate calls; the CLI only selects rules, filters severity and
formats the result.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .diagnostics import Diagnostic, Severity
from .engine import get_rules, run_lint
from .sarif import format_sarif

__all__ = ["build_lint_parser", "format_text", "format_json", "main"]

#: Bump when the JSON shape changes; consumers pin on it.
JSON_FORMAT_VERSION = 1


def build_lint_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hcperf lint",
        description=(
            "hclint: two-pass whole-program invariant checks (determinism, "
            "scheduler contracts, lock discipline, taint into recorded "
            "results) over the reproduction's source tree"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: the repro package tree)",
    )
    parser.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="ID",
        help="restrict to this rule id (repeatable, e.g. --rule HC001)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default text)",
    )
    parser.add_argument(
        "--severity",
        choices=("warning", "error"),
        default="warning",
        help="minimum severity to report (default warning = everything)",
    )
    parser.add_argument(
        "--root",
        default=None,
        help="directory diagnostic paths are relative to (default: the "
        "directory containing the repro package)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list registered rules and exit"
    )
    return parser


def format_text(diagnostics: List[Diagnostic]) -> str:
    if not diagnostics:
        return "hclint: clean (no diagnostics)"
    lines = [d.format() for d in diagnostics]
    n_err = sum(1 for d in diagnostics if d.severity is Severity.ERROR)
    n_warn = len(diagnostics) - n_err
    lines.append(f"hclint: {n_err} error(s), {n_warn} warning(s)")
    return "\n".join(lines)


def format_json(diagnostics: List[Diagnostic]) -> str:
    payload = {
        "version": JSON_FORMAT_VERSION,
        "counts": {
            "error": sum(1 for d in diagnostics if d.severity is Severity.ERROR),
            "warning": sum(
                1 for d in diagnostics if d.severity is Severity.WARNING
            ),
        },
        "diagnostics": [d.to_dict() for d in diagnostics],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _list_rules() -> str:
    lines = ["Registered hclint rules:"]
    for rule in get_rules():
        scope = ", ".join(rule.scope) if rule.scope else "everywhere"
        lines.append(f"  {rule.id}  {rule.name:24s} [{rule.severity}]")
        lines.append(f"         {rule.description}")
        lines.append(f"         scope: {scope}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_lint_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        print(_list_rules())
        return 0

    try:
        diagnostics = run_lint(
            paths=args.paths or None,
            rules=args.rule,
            root=args.root,
            min_severity=Severity.parse(args.severity),
        )
    except ValueError as exc:
        print(f"hclint: error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(format_json(diagnostics))
    elif args.format == "sarif":
        print(format_sarif(diagnostics))
    else:
        print(format_text(diagnostics))
    return 1 if diagnostics else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
