"""hclint — a per-file invariant checker for the reproduction.

The paper-level claims rest on invariants no test suite can check
exhaustively (see docs/static_analysis.md): simulation code never reads
the wall clock or global RNG, schedulers honor the ``Scheduler``
contract, and fleet code never swallows failures.  Each rule
(HC001–HC006) inspects one parsed file at a time; a run is a plain map
over the files.  That outputs really are a pure function of (scenario,
scheduler, seed) is checked by running the code, in
``tests/test_cross_process_determinism.py``.

Every use runs the same analysis:

* CLI: ``hcperf lint [--rule HC001] [--severity error]
  [--format text|json]`` (or ``python -m repro.devtools.lint``);
* pytest gate: ``from repro.devtools.lint import run_lint;
  assert run_lint() == []`` — part of the tier-1 suite;
* library: :func:`run_lint` / :func:`lint_file` return sorted
  :class:`Diagnostic` lists for further processing.

There are no inline suppressions: every finding is fixed.
"""

from .diagnostics import Diagnostic, Severity
from .engine import (
    PARSE_ERROR_RULE,
    FileContext,
    Rule,
    default_root,
    get_rules,
    iter_python_files,
    lint_file,
    register,
    rule_ids,
    run_lint,
)

__all__ = [
    "Diagnostic",
    "Severity",
    "Rule",
    "FileContext",
    "register",
    "get_rules",
    "rule_ids",
    "default_root",
    "iter_python_files",
    "lint_file",
    "run_lint",
    "PARSE_ERROR_RULE",
]
