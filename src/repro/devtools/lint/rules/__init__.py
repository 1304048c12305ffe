"""Built-in hclint rules.

Importing this package registers every built-in rule with the engine
registry (see :func:`repro.devtools.lint.engine.register`).  Every rule
looks at one file at a time.  Rules are grouped by the invariant family
they protect:

* :mod:`determinism` — HC001 (no wall-clock), HC002 (no global RNG),
  HC007 (both, rebranded for the ``repro.faults`` replay contract);
* :mod:`contracts` — HC003 (scheduler contract);
* :mod:`hygiene` — HC004 (mutable defaults), HC005 (swallowed
  exceptions), HC006 (float equality on time quantities).

To add a rule: subclass :class:`~repro.devtools.lint.engine.Rule` in one
of these modules (or a new one imported here), decorate it with
``@register``, and add a fixture case to
``tests/devtools/test_lint_rules.py`` — see docs/static_analysis.md.
"""

from . import contracts, determinism, hygiene

__all__ = ["contracts", "determinism", "hygiene"]
