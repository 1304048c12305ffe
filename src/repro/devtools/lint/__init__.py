"""hclint — two-pass whole-program invariant checker for the reproduction.

The paper-level claims rest on invariants no test suite can check
exhaustively (see docs/static_analysis.md): simulation code never reads
the wall clock or global RNG, schedulers honor the ``Scheduler``
contract, fleet code never swallows failures, and nondeterministic values
never flow — even across call edges — into recorded results.

Pass 1 runs per-file AST rules (HC001–HC007, HC011) and extracts a
:class:`ModuleSummary` per file.  Pass 2 links the summaries into a
:class:`ProjectIndex` (symbol tables + approximate call graph) and runs
the whole-program rule (HC010 determinism taint).

Every use runs the same whole-tree analysis:

* CLI: ``hcperf lint [--rule HC001] [--severity error]
  [--format text|json|sarif]`` (or ``python -m repro.devtools.lint``);
* pytest gate: ``from repro.devtools.lint import run_lint;
  assert run_lint() == []`` — part of the tier-1 suite;
* library: :func:`run_lint` / :func:`lint_file` return sorted
  :class:`Diagnostic` lists for further processing.

Inline suppression: ``# hclint: disable=HC001`` on the flagged line,
``# hclint: disable-file=HC001`` for a whole file.
"""

from .diagnostics import Diagnostic, Severity
from .engine import (
    PARSE_ERROR_RULE,
    FileContext,
    ProjectRule,
    Rule,
    default_root,
    get_rules,
    iter_python_files,
    lint_file,
    register,
    rule_ids,
    run_lint,
)
from .index import ModuleSummary, ProjectIndex, summarize_module
from .sarif import format_sarif, to_sarif

__all__ = [
    "Diagnostic",
    "Severity",
    "Rule",
    "ProjectRule",
    "FileContext",
    "register",
    "get_rules",
    "rule_ids",
    "default_root",
    "iter_python_files",
    "lint_file",
    "run_lint",
    "PARSE_ERROR_RULE",
    "ModuleSummary",
    "ProjectIndex",
    "summarize_module",
    "format_sarif",
    "to_sarif",
]
