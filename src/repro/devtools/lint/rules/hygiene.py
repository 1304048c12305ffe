"""Hygiene rules: HC004 (mutable defaults), HC005 (swallowed exceptions),
HC006 (float equality on time quantities).

These are the failure modes that have historically corrupted scheduling
evaluations quietly: a mutable default argument shared across scenario
instances, a fleet worker that eats the exception that would have told
you half the campaign grid never ran, and an exact ``==`` on a derived
timestamp that holds on one platform's FPU rounding and not another's.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator, Optional, Tuple

from ..diagnostics import Diagnostic, Severity
from ..engine import FileContext, Rule, register
from .common import is_float_constant, name_tokens, terminal_name

__all__ = [
    "NoMutableDefaultRule",
    "NoSwallowedExceptionRule",
    "FloatTimeEqualityRule",
]

_MUTABLE_CALLS = frozenset(
    {"list", "dict", "set", "bytearray", "defaultdict", "OrderedDict", "Counter", "deque"}
)


@register
class NoMutableDefaultRule(Rule):
    """HC004: no mutable default arguments, anywhere.

    A ``def f(xs=[])`` default is evaluated once and shared by every
    call — with scenario factories and schedulers instantiated per run,
    that is cross-run state leakage by construction.  Use ``None`` and
    materialize inside, or a dataclass ``field(default_factory=...)``.
    """

    id = "HC004"
    name = "no-mutable-default"
    severity = Severity.ERROR
    description = "no mutable default arguments (list/dict/set literals or constructors)"
    scope = None  # everywhere

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    where = getattr(node, "name", "<lambda>")
                    yield self.diagnostic(
                        ctx,
                        default,
                        f"mutable default argument in {where}(); the default "
                        "is evaluated once and shared across calls — use "
                        "None and materialize inside",
                    )

    @staticmethod
    def _is_mutable(node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = terminal_name(node.func)
            return name in _MUTABLE_CALLS
        return False


@register
class NoSwallowedExceptionRule(Rule):
    """HC005: fleet code never eats exceptions.

    The fleet engine's resume guarantee is "every job is either in the
    store or pending" — a worker/store code path that swallows an error
    turns a failed job into a silently missing grid point, and the
    aggregate tables average over a hole.  Handlers must either re-raise,
    return an explicit error record, or at minimum do *something*
    (``continue`` past a torn store line is fine; ``pass`` is not).
    """

    id = "HC005"
    name = "no-swallowed-exception"
    severity = Severity.ERROR
    description = (
        "no bare except: and no except-with-only-pass in fleet worker/store/"
        "engine code"
    )
    scope = ("repro/fleet",)

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.diagnostic(
                    ctx,
                    node,
                    "bare except: catches SystemExit/KeyboardInterrupt and "
                    "hides worker failures; name the exception type",
                )
            elif self._swallows(node):
                yield self.diagnostic(
                    ctx,
                    node,
                    "exception swallowed (handler body is only pass/...); a "
                    "failed fleet job must surface, not vanish from the grid",
                )

    @staticmethod
    def _swallows(node: ast.ExceptHandler) -> bool:
        for stmt in node.body:
            if isinstance(stmt, ast.Pass):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
                continue  # docstring or bare ``...``
            return False
        return True


#: Identifier tokens that mark an expression as a time/deadline quantity.
_TIME_TOKENS: FrozenSet[str] = frozenset(
    {
        "time",
        "times",
        "timestamp",
        "deadline",
        "deadlines",
        "release",
        "horizon",
        "period",
        "periods",
        "latency",
        "elapsed",
        "duration",
        "busy",
        "now",
        "dt",
        "t0",
        "t1",
    }
)


@register
class FloatTimeEqualityRule(Rule):
    """HC006: no exact float equality on time/deadline quantities.

    Simulated timestamps are sums of periods, offsets and sampled
    execution times; two independently derived times that are "the same"
    differ in the last ulp depending on summation order.  Exact ``==``
    therefore encodes an accident of evaluation order — use
    :func:`repro.rt.timeutil.times_close` / ``is_zero_time``, which make
    the tolerance explicit.
    """

    id = "HC006"
    name = "float-time-equality"
    severity = Severity.WARNING
    description = (
        "no ==/!= between time-like quantities and floats; use "
        "repro.rt.timeutil.times_close / is_zero_time"
    )
    scope = (
        "repro/rt",
        "repro/schedulers",
        "repro/core",
        "repro/vehicle",
        "repro/workloads",
        "repro/fleet",
    )

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for i, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                lhs, rhs = operands[i], operands[i + 1]
                pair = self._time_equality_pair(lhs, rhs)
                if pair is not None:
                    yield self.diagnostic(
                        ctx,
                        node,
                        f"exact float equality on time quantity {pair!r}; use "
                        "repro.rt.timeutil.times_close(a, b) or "
                        "is_zero_time(x) to make the tolerance explicit",
                    )

    @staticmethod
    def _is_time_like(node: ast.expr) -> Optional[str]:
        name = terminal_name(node)
        if name is None:
            return None
        if any(token in _TIME_TOKENS for token in name_tokens(name)):
            return name
        return None

    def _time_equality_pair(
        self, lhs: ast.expr, rhs: ast.expr
    ) -> Optional[Tuple[str, ...]]:
        lhs_name = self._is_time_like(lhs)
        rhs_name = self._is_time_like(rhs)
        if lhs_name and (rhs_name or is_float_constant(rhs)):
            return (lhs_name,) if not rhs_name else (lhs_name, rhs_name)
        if rhs_name and is_float_constant(lhs):
            return (rhs_name,)
        return None
