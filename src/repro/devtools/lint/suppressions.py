"""Inline suppression comments.

Two forms, mirroring the established lint-comment idiom:

* ``# hclint: disable=HC001`` (or ``disable=HC001,HC006`` or
  ``disable=all``) on the line a diagnostic is anchored to suppresses the
  named rules for that line only.  For a multi-line statement the anchor
  is the line the diagnostic reports (the AST node's ``lineno``).
* ``# hclint: disable-file=HC001`` anywhere in the file (conventionally
  in the module docstring area) suppresses the named rules for the whole
  file.

Suppressions are parsed from raw source lines, not the AST, so they work
on lines the parser does not attribute comments to.  Unknown rule ids in
a suppression are tolerated — a suppression must never crash the lint —
but suppressing nothing is reported by ``--format text`` as a no-op is
invisible by design (lint output stays quiet on clean files).
"""

from __future__ import annotations

import re
from typing import Dict, Sequence, Set

from .diagnostics import Diagnostic

__all__ = ["FileSuppressions", "parse_suppressions"]

_PRAGMA = re.compile(
    r"#\s*hclint:\s*(?P<kind>disable(?:-file)?)\s*=\s*(?P<rules>[A-Za-z0-9_,\s]+|all)"
)

#: Sentinel rule set meaning "every rule".
_ALL = frozenset({"all"})


class FileSuppressions:
    """Parsed suppression state of one file."""

    def __init__(self) -> None:
        #: line number -> set of rule ids (or the ``all`` sentinel)
        self.by_line: Dict[int, Set[str]] = {}
        #: file-wide suppressed rule ids (or the ``all`` sentinel)
        self.file_wide: Set[str] = set()

    def suppresses(self, diag: Diagnostic) -> bool:
        for rules in (self.file_wide, self.by_line.get(diag.line, set())):
            if "all" in rules or diag.rule in rules:
                return True
        return False


def _parse_rules(raw: str) -> Set[str]:
    if raw.strip().lower() == "all":
        return set(_ALL)
    return {token.strip().upper() for token in raw.split(",") if token.strip()}


def parse_suppressions(source_lines: Sequence[str]) -> FileSuppressions:
    """Extract suppression pragmas from a file's source lines."""
    result = FileSuppressions()
    for lineno, line in enumerate(source_lines, start=1):
        if "hclint" not in line:  # fast path: almost every line
            continue
        match = _PRAGMA.search(line)
        if match is None:
            continue
        rules = _parse_rules(match.group("rules"))
        if match.group("kind") == "disable-file":
            result.file_wide |= rules
        else:
            result.by_line.setdefault(lineno, set()).update(rules)
    return result
