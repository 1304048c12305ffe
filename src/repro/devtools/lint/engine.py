"""The hclint engine: rule registry, file walking, suppression filtering.

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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .diagnostics import Diagnostic, Severity
from .suppressions import parse_suppressions

__all__ = [
    "FileContext",
    "Rule",
    "ProjectRule",
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
    #: Raw source split into lines (1-indexed via ``line(n)``).
    source_lines: Sequence[str] = field(default_factory=list)

    def line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.source_lines):
            return self.source_lines[lineno - 1]
        return ""


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


class ProjectRule(Rule):
    """A whole-program rule: runs over the :class:`ProjectIndex`, not files.

    Project rules participate in the same registry, id space, scoping and
    suppression machinery as per-file rules, but their unit of analysis is
    the linked index built by pass 1 (see ``index.py``).  ``check`` is a
    deliberate no-op — ``lint_file`` skips these — and subclasses
    implement :meth:`check_project` instead.  The engine applies
    ``applies_to`` and per-file suppressions to whatever they yield, so a
    rule may emit for any module and let scoping do the filtering.
    """

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Diagnostic]:
        return iter(())

    def check_project(self, index: "ProjectIndex") -> Iterator[Diagnostic]:
        raise NotImplementedError

    def project_diagnostic(
        self, relpath: str, lineno: int, col: int, message: str
    ) -> Diagnostic:
        return Diagnostic(
            path=relpath,
            line=lineno,
            col=col + 1,
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
    """Expand files/directories into a sorted, de-duplicated ``.py`` list."""
    seen = set()
    result: List[Path] = []
    for entry in paths:
        p = Path(entry)
        candidates: Iterable[Path]
        if p.is_dir():
            candidates = sorted(p.rglob("*.py"))
        elif p.suffix == ".py":
            candidates = [p]
        else:
            continue
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
    """Run the *per-file* rules over one file (project rules are skipped —
    they need the whole-program index; use :func:`run_lint` for those).
    Unparsable files yield a single HC000 diagnostic."""
    path = Path(path).resolve()
    root = (root or default_root()).resolve()
    active = list(rules) if rules is not None else get_rules()
    ctx = FileContext(path=path, relpath=_relpath(path, root))

    source = path.read_text(encoding="utf-8")
    ctx.source_lines = source.splitlines()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [_parse_error_diag(ctx.relpath, exc)]

    found: List[Diagnostic] = []
    for rule in active:
        if isinstance(rule, ProjectRule) or not rule.applies_to(ctx.relpath):
            continue
        found.extend(rule.check(tree, ctx))

    suppressions = parse_suppressions(ctx.source_lines)
    return sorted(d for d in found if not suppressions.suppresses(d))


def _analyze_file(
    path: Path,
    relpath: str,
    source: str,
    file_rules: Sequence[Rule],
) -> "Tuple[List[Diagnostic], ModuleSummary, FileSuppressions]":
    """Pass 1 for one file: per-file diagnostics + module summary."""
    from .index import ModuleSummary, summarize_module

    ctx = FileContext(path=path, relpath=relpath)
    ctx.source_lines = source.splitlines()
    suppressions = parse_suppressions(ctx.source_lines)
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        summary = ModuleSummary(module="", relpath=relpath, parse_failed=True)
        return [_parse_error_diag(relpath, exc)], summary, suppressions

    found: List[Diagnostic] = []
    for rule in file_rules:
        if not rule.applies_to(ctx.relpath):
            continue
        found.extend(rule.check(tree, ctx))
    diagnostics = sorted(d for d in found if not suppressions.suppresses(d))
    return diagnostics, summarize_module(tree, relpath), suppressions


def run_lint(
    paths: Optional[Sequence[Union[str, Path]]] = None,
    rules: Optional[Iterable[str]] = None,
    root: Optional[Union[str, Path]] = None,
    min_severity: Severity = Severity.WARNING,
) -> List[Diagnostic]:
    """Two-pass lint of ``paths`` (default: the ``repro`` package tree).

    Pass 1 maps over files: per-file rules run on each AST and a
    :class:`ModuleSummary` is extracted.  Pass 2 links the summaries into
    a :class:`ProjectIndex` and runs the whole-program rules (HC009+).
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
    file_rules = [r for r in active if not isinstance(r, ProjectRule)]
    project_rules = [r for r in active if isinstance(r, ProjectRule)]

    diagnostics: List[Diagnostic] = []
    summaries = []
    supp_by_path: Dict[str, "FileSuppressions"] = {}

    for path in iter_python_files(paths):
        relpath = _relpath(path, root_path)
        source = path.read_text(encoding="utf-8")
        file_diags, summary, suppressions = _analyze_file(
            path, relpath, source, file_rules
        )
        diagnostics.extend(file_diags)
        summaries.append(summary)
        supp_by_path[relpath] = suppressions

    if project_rules:
        from .index import ProjectIndex

        index = ProjectIndex([s for s in summaries if not s.parse_failed])
        for rule in project_rules:
            for diag in rule.check_project(index):
                if not rule.applies_to(diag.path):
                    continue
                supp = supp_by_path.get(diag.path)
                if supp is not None and supp.suppresses(diag):
                    continue
                diagnostics.append(diag)

    return sorted(d for d in diagnostics if d.severity >= min_severity)
