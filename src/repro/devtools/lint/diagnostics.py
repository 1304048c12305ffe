"""Diagnostic model: severities and the per-finding record.

A :class:`Diagnostic` is deliberately flat and JSON-trivial: CI
annotations consume ``hcperf lint --format json`` and its golden test
pins this shape, so every field is a plain string or int and the sort
order is total and content-derived (no ids, no timestamps).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Union


class Severity(enum.IntEnum):
    """Diagnostic severity; higher value = more severe."""

    WARNING = 1
    ERROR = 2

    @classmethod
    def parse(cls, name: str) -> "Severity":
        try:
            return cls[name.upper()]
        except KeyError:
            raise ValueError(
                f"unknown severity {name!r} (choose from "
                f"{', '.join(s.name.lower() for s in cls)})"
            ) from None

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One finding: rule, where, and what.

    ``path`` is stored POSIX-relative to the lint root so output is
    machine-stable across checkouts (the JSON golden test depends on it).
    """

    path: str
    line: int
    col: int
    rule: str
    severity: Severity
    message: str

    def to_dict(self) -> Dict[str, Union[str, int]]:
        return {
            "rule": self.rule,
            "severity": str(self.severity),
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def format(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} [{self.severity}] {self.message}"
        )
