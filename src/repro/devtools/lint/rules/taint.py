"""HC010 — inter-procedural determinism taint.

HC001/HC002 ban wall-clock and global-RNG *reads* inside the determinism
boundary, but a read outside the boundary can still poison a recorded
result if its value flows across call edges into a store append, a trace
event, or a benchmark report.  That laundering is exactly what a per-file
rule cannot see:

    def stamp():                  # repro/experiments/... (out of HC001 scope)
        return time.time()
    ...
    store.append({"t": stamp()})  # HC010: tainted value reaches a sink

Sources are :mod:`repro.devtools.lint.taintspec` (the same vocabulary as
HC001/HC002/HC007).  Sinks are recording calls: ``<...store...>.append(x)``,
``recorder`` methods (``annotate``/``record``/``add_event``) and trace
``emit`` callbacks.  Taint propagates through assignments within a
function and through call edges via a whole-program fixpoint over "does
this function return a tainted value".

Scope: everything *except* ``repro/devtools`` — its timing utilities
own the stopwatch by design; their job is to measure wall time.  Functions
in devtools still participate as taint *carriers*, so a simulation-layer
sink that records ``devtools.timing.default_timer()()`` output is caught.

Known approximations (recall, not soundness): taint does not flow through
function *parameters*, attribute fields, or containers passed by
reference; a sink is recognized syntactically.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Set, Tuple

from ..diagnostics import Diagnostic, Severity
from ..engine import ProjectRule, register
from ..index import FunctionSummary, ModuleSummary, ProjectIndex
from ..taintspec import taint_source_kind

__all__ = ["DeterminismTaintRule"]


def _local_tainted(
    fn: FunctionSummary, taints: Dict[str, bool], resolve
) -> Set[str]:
    """Names tainted in *fn*, given the current taint-returning map."""
    tainted = set(fn.tainted_names)
    for name, chains in fn.call_flows.items():
        for chain in chains:
            target = resolve(fn, chain)
            if target is not None and taints.get(target, False):
                tainted.add(name)
                break
    changed = True
    while changed:
        changed = False
        for target, sources in fn.name_flows.items():
            if target not in tainted and sources & tainted:
                tainted.add(target)
                changed = True
    return tainted


def _returns_taint(
    fn: FunctionSummary, tainted: Set[str], taints: Dict[str, bool], resolve
) -> bool:
    if fn.return_direct:
        return True
    if fn.return_names & tainted:
        return True
    for chain in fn.return_calls:
        target = resolve(fn, chain)
        if target is not None and taints.get(target, False):
            return True
    return False


@register
class DeterminismTaintRule(ProjectRule):
    id = "HC010"
    name = "determinism-taint"
    severity = Severity.ERROR
    description = (
        "wall-clock/global-RNG derived values must not flow across call "
        "edges into recorded results, traces, or benchmark reports"
    )
    # Everything except repro/devtools (which owns the stopwatch) and
    # repro/cli.py (argument plumbing, no recording of its own).
    scope = (
        "repro/rt",
        "repro/schedulers",
        "repro/vehicle",
        "repro/perception",
        "repro/workloads",
        "repro/core",
        "repro/obs",
        "repro/fleet",
        "repro/faults",
        "repro/experiments",
        "repro/analysis",
    )

    def check_project(self, index: ProjectIndex) -> Iterator[Diagnostic]:
        resolve_cache: Dict[Tuple[str, str, Tuple[str, ...]], Optional[str]] = {}

        def resolver_for(mod: ModuleSummary):
            def resolve(fn: FunctionSummary, chain: Tuple[str, ...]) -> Optional[str]:
                key = (mod.module, fn.qualname, chain)
                if key not in resolve_cache:
                    resolve_cache[key] = index.resolve_call(mod.module, fn, chain)
                return resolve_cache[key]

            return resolve

        # Whole-program fixpoint: which functions return tainted values?
        # Carriers are computed over *every* module (including devtools);
        # only sink reports are scope-filtered by the engine.
        taints: Dict[str, bool] = {}
        changed = True
        while changed:
            changed = False
            for mod, fn in index.functions():
                resolve = resolver_for(mod)
                qualname = f"{mod.module}:{fn.qualname}"
                tainted = _local_tainted(fn, taints, resolve)
                now = _returns_taint(fn, tainted, taints, resolve)
                if taints.get(qualname, False) != now:
                    taints[qualname] = now
                    changed = True

        for mod in sorted(index.modules.values(), key=lambda m: m.relpath):
            if not self.applies_to(mod.relpath):
                continue
            resolve = resolver_for(mod)
            for fn in mod.functions.values():
                tainted = _local_tainted(fn, taints, resolve)
                for sink in fn.sinks:
                    why = self._sink_taint(fn, sink, tainted, taints, resolve)
                    if why is not None:
                        yield self.project_diagnostic(
                            mod.relpath,
                            sink.lineno,
                            sink.col,
                            f"nondeterministic value reaches recording sink "
                            f"'{sink.label}' in '{fn.qualname}': {why} "
                            f"(results must be a pure function of "
                            f"scenario/scheduler/seed; "
                            f"see docs/static_analysis.md#hc010)",
                        )

    def _sink_taint(
        self,
        fn: FunctionSummary,
        sink,
        tainted: Set[str],
        taints: Dict[str, bool],
        resolve,
    ) -> Optional[str]:
        if sink.direct:
            return "argument reads the wall clock or global RNG directly"
        for name in sink.names:
            if name in tainted:
                return f"'{name}' is derived from a wall-clock/global-RNG read"
        for chain in sink.calls:
            if taint_source_kind(chain):
                return f"'{'.'.join(chain)}()' reads the wall clock or global RNG"
            target = resolve(fn, chain)
            if target is not None and taints.get(target, False):
                callee = target.split(":", 1)[1]
                return (
                    f"'{callee}()' returns a value derived from the wall "
                    f"clock or global RNG"
                )
        return None
