"""Contract rule: HC003 — schedulers honor the ``Scheduler`` interface.

The executor is policy-agnostic: it talks to policies exclusively through
the hooks of :class:`repro.schedulers.base.Scheduler` and hands them the
read-only :class:`SystemView`.  Two failure modes silently break the
paper-level comparisons and neither trips a unit test reliably:

* a typo'd hook (``on_windows``, ``on_job_completed``) simply never gets
  called — the policy degrades to its base behavior and the experiment
  "works", just with wrong numbers;
* a policy reaching into executor internals (importing
  ``repro.rt.executor``, poking ``view._something``) couples itself to
  dispatch implementation details, so an executor refactor changes
  policy behavior.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Tuple

from ..diagnostics import Diagnostic, Severity
from ..engine import FileContext, Rule, register
from .common import dotted_chain

__all__ = ["SchedulerContractRule"]

#: Hook name -> positional-parameter count including ``self``.
_HOOKS: Dict[str, int] = {
    "prepare": 3,  # (self, graph, n_processors)
    "rank": 4,  # (self, job, now, view)
    "order": 4,  # (self, jobs, now, view)
    "on_dispatch_round": 3,  # (self, now, view)
    "on_window": 4,  # (self, now, view, window)
    "on_job_complete": 4,  # (self, job, now, view)
    "on_job_miss": 4,  # (self, job, now, view)
    "desired_rates": 1,  # (self)
}


def _base_names(node: ast.ClassDef) -> Tuple[str, ...]:
    names = []
    for base in node.bases:
        chain = dotted_chain(base)
        if chain:
            names.append(chain[-1])
    return tuple(names)


@register
class SchedulerContractRule(Rule):
    """HC003: scheduler subclasses override real hooks and stay decoupled."""

    id = "HC003"
    name = "scheduler-contract"
    severity = Severity.ERROR
    description = (
        "Scheduler subclasses must override rank, use only real hook "
        "names/signatures, and must not import the executor or touch "
        "private executor state"
    )
    scope = ("repro/schedulers",)

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                message = self._executor_import_violation(node)
                if message is not None:
                    yield self.diagnostic(ctx, node, message)
            elif isinstance(node, ast.ClassDef):
                yield from self._check_class(node, ctx)

    @staticmethod
    def _executor_import_violation(node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
        elif isinstance(node, ast.Import):
            module = ",".join(alias.name for alias in node.names)
        else:
            return None
        if "rt.executor" in module or module.endswith(".executor"):
            return (
                "scheduler module imports the executor; policies may depend "
                "only on the Scheduler/SystemView surface"
            )
        return None

    def _check_class(
        self, node: ast.ClassDef, ctx: FileContext
    ) -> Iterator[Diagnostic]:
        bases = _base_names(node)
        if not any(base.endswith("Scheduler") for base in bases):
            return
        is_direct_subclass = "Scheduler" in bases
        methods = {
            item.name: item
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }

        if is_direct_subclass and "rank" not in methods:
            yield self.diagnostic(
                ctx,
                node,
                f"scheduler {node.name} does not override rank(); every "
                "policy must define its dispatch key",
            )

        for name, fn in methods.items():
            if name.startswith("on_") and name not in _HOOKS:
                yield self.diagnostic(
                    ctx,
                    fn,
                    f"{node.name}.{name} looks like an executor hook but is "
                    f"not one (known hooks: {', '.join(sorted(_HOOKS))}); it "
                    "would never be called",
                )
            elif name in _HOOKS and not (fn.args.vararg or fn.args.kwarg):
                expected = _HOOKS[name]
                got = len(fn.args.args) + len(fn.args.posonlyargs)
                if got != expected:
                    yield self.diagnostic(
                        ctx,
                        fn,
                        f"{node.name}.{name} takes {got} positional "
                        f"parameter(s), the {name} hook takes {expected}; the "
                        "executor will call it with the contract signature",
                    )

        yield from self._private_access_violations(node, ctx)

    def _private_access_violations(
        self, node: ast.ClassDef, ctx: FileContext
    ) -> Iterator[Diagnostic]:
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Attribute):
                continue
            if not sub.attr.startswith("_") or sub.attr.startswith("__"):
                continue
            if isinstance(sub.value, ast.Name) and sub.value.id not in (
                "self",
                "cls",
            ):
                yield self.diagnostic(
                    ctx,
                    sub,
                    f"access to private member {sub.value.id}.{sub.attr}; "
                    "schedulers may only use the public SystemView/Job surface",
                )
