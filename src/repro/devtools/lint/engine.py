"""The hclint engine: rule registry and file walking.

A :class:`Rule` inspects one parsed module at a time and yields
:class:`Diagnostic` records.  Rules are pure over ``(tree, ctx)`` — no
rule may read files itself — which keeps the engine trivially testable
against fixture trees and makes a whole-repo run a flat map over files.

Scoping: repo-specific rules (wall-clock, scheduler contract, …) only
apply under certain packages.  A rule declares ``scope`` as path prefixes
relative to the directory *containing* the ``repro`` package; the engine
normalizes every linted file to that coordinate system (so fixture trees
in tests scope identically to the real source tree).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .diagnostics import Diagnostic, Severity

__all__ = [
    "FileContext",
    "Rule",
    "register",
    "get_rules",
    "rule_ids",
    "default_root",
    "iter_python_files",
    "lint_file",
    "run_lint",
    "PARSE_ERROR_RULE",
]

#: Rule id used for files the parser rejects (not a registered Rule —
#: a syntax error is a finding of the engine itself).
PARSE_ERROR_RULE = "HC000"


@dataclass
class FileContext:
    """Everything a rule may know about the file under inspection."""

    #: Absolute path on disk.
    path: Path
    #: POSIX path relative to the lint root (diagnostic coordinate).
    relpath: str


class Rule:
    """Base class for one invariant check.

    Subclasses set the class attributes and implement :meth:`check`.
    ``scope`` limits the rule to path prefixes relative to the directory
    containing the ``repro`` package (``None`` = every linted file);
    entries may name a package directory (``repro/rt``) or a single file
    (``repro/fleet/worker.py``).
    """

    id: str = "HC999"
    name: str = "unnamed"
    severity: Severity = Severity.ERROR
    description: str = ""
    scope: Optional[Tuple[str, ...]] = None

    def applies_to(self, relpath: str) -> bool:
        if self.scope is None:
            return True
        normalized = _normalize_scope_path(relpath)
        if normalized is None:
            return False
        return any(
            normalized == prefix or normalized.startswith(prefix + "/")
            for prefix in self.scope
        )

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Diagnostic]:
        raise NotImplementedError

    def diagnostic(self, ctx: FileContext, node: ast.AST, message: str) -> Diagnostic:
        return Diagnostic(
            path=ctx.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.id,
            severity=self.severity,
            message=message,
        )


def _normalize_scope_path(relpath: str) -> Optional[str]:
    """Rebase ``relpath`` onto the ``repro`` package root, if it has one.

    ``src/repro/rt/executor.py`` and a fixture's ``repro/rt/bad.py`` both
    normalize to ``repro/rt/...``; paths without a ``repro`` component are
    outside every scoped rule's jurisdiction.
    """
    parts = Path(relpath).parts
    for i, part in enumerate(parts):
        if part == "repro":
            return "/".join(parts[i:])
    return None


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Rule] = {}


def register(rule_cls: type) -> type:
    """Class decorator adding a rule (by id) to the global registry."""
    rule = rule_cls()
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id}")
    _REGISTRY[rule.id] = rule
    return rule_cls


def get_rules(only: Optional[Iterable[str]] = None) -> List[Rule]:
    """Registered rules sorted by id, optionally restricted to ``only`` ids."""
    _ensure_builtin_rules()
    if only is None:
        return [rule for _, rule in sorted(_REGISTRY.items())]
    wanted = {rule_id.upper() for rule_id in only}
    unknown = wanted - set(_REGISTRY)
    if unknown:
        raise ValueError(
            f"unknown rule id(s): {', '.join(sorted(unknown))} "
            f"(known: {', '.join(sorted(_REGISTRY))})"
        )
    return [rule for rule_id, rule in sorted(_REGISTRY.items()) if rule_id in wanted]


def rule_ids() -> List[str]:
    _ensure_builtin_rules()
    return sorted(_REGISTRY)


def _ensure_builtin_rules() -> None:
    # Importing the rules package registers the built-in rules; deferred to
    # first use so engine <-> rules imports stay acyclic.
    from . import rules  # noqa: F401


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------
def default_root() -> Path:
    """The directory containing the ``repro`` package (``src/`` in a checkout)."""
    return Path(__file__).resolve().parents[3]


def iter_python_files(paths: Sequence[Union[str, Path]]) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated ``.py`` list.

    Raises ``ValueError`` for a path that does not exist or a file that is
    not Python source: a typo must not lint nothing and report clean.
    """
    seen = set()
    result: List[Path] = []
    for entry in paths:
        p = Path(entry)
        candidates: Iterable[Path]
        if p.is_dir():
            candidates = sorted(p.rglob("*.py"))
        elif not p.exists():
            raise ValueError(f"no such file or directory: {entry}")
        elif p.suffix == ".py":
            candidates = [p]
        else:
            raise ValueError(f"not a Python file: {entry}")
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                result.append(resolved)
    return result


def _relpath(path: Path, root: Path) -> str:
    try:
        return path.relative_to(root).as_posix()
    except ValueError:
        return path.as_posix()


def _parse_error_diag(relpath: str, exc: SyntaxError) -> Diagnostic:
    return Diagnostic(
        path=relpath,
        line=exc.lineno or 1,
        col=(exc.offset or 0) + 1,
        rule=PARSE_ERROR_RULE,
        severity=Severity.ERROR,
        message=f"syntax error: {exc.msg}",
    )


def lint_file(
    path: Union[str, Path],
    root: Optional[Path] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> List[Diagnostic]:
    """Run the rules over one file; an unparsable file yields a single HC000."""
    path = Path(path).resolve()
    root = (root or default_root()).resolve()
    active = list(rules) if rules is not None else get_rules()
    ctx = FileContext(path=path, relpath=_relpath(path, root))
    try:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    except SyntaxError as exc:
        return [_parse_error_diag(ctx.relpath, exc)]
    found: List[Diagnostic] = []
    for rule in active:
        if rule.applies_to(ctx.relpath):
            found.extend(rule.check(tree, ctx))
    return sorted(found)


def run_lint(
    paths: Optional[Sequence[Union[str, Path]]] = None,
    rules: Optional[Iterable[str]] = None,
    root: Optional[Union[str, Path]] = None,
    min_severity: Severity = Severity.WARNING,
) -> List[Diagnostic]:
    """Lint ``paths`` (default: the ``repro`` package tree), one file at a time.

    This is the only way hclint runs: the CLI is a thin front end over
    it, and the repo-clean gate is ``assert run_lint() == []``.

    Parameters
    ----------
    paths:
        Files and/or directories; ``None`` lints the whole ``repro``
        package this module was imported from.
    rules:
        Rule ids to restrict to (default: all registered rules).
    root:
        Directory diagnostics paths are made relative to, and the anchor
        for rule scoping (default: the directory containing ``repro``).
    min_severity:
        Drop diagnostics below this severity.
    """
    root_path = Path(root).resolve() if root is not None else default_root()
    if paths is None:
        paths = [root_path / "repro"]
    active = get_rules(only=list(rules) if rules is not None else None)
    return sorted(
        diag
        for path in iter_python_files(paths)
        for diag in lint_file(path, root_path, active)
        if diag.severity >= min_severity
    )
