"""Determinism rules: HC001 (no wall-clock), HC002 (no global RNG).

Every headline claim of the reproduction — Eq. 11/12 schedulability
checks, byte-identical ``jobs=4 == jobs=1`` fleet runs, per-seed
repeatable Fig. 13/14 tracking-error curves — requires simulation output
to be a pure function of (scenario, scheduler, seed).  Wall-clock reads
and process-global RNG are the two ways real repos silently lose that
property, so both are banned from the simulation packages outright
rather than hunted per-bug.  The fault-injection package is inside the
boundary too: its contract is that a (spec, seed) pair replays
byte-identically.  A leak from outside these packages into an
output is caught by running the code: the cross-process determinism test
(``tests/test_cross_process_determinism.py``) compares every output's
bytes between two interpreters.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple

from ..diagnostics import Diagnostic, Severity
from ..engine import FileContext, Rule, register
from .common import dotted_chain

__all__ = [
    "NoWallClockRule",
    "NoGlobalRngRule",
    "DETERMINISM_SCOPE",
]

#: The determinism boundary: packages whose output must be seed-pure.
#: (``repro/fleet/worker.py`` runs inside worker processes; the rest of
#: ``fleet/`` is orchestration and may e.g. time a campaign.)
DETERMINISM_SCOPE: Tuple[str, ...] = (
    "repro/rt",
    "repro/schedulers",
    "repro/vehicle",
    "repro/perception",
    "repro/workloads",
    "repro/core",
    "repro/obs",
    "repro/faults",
    "repro/fleet/worker.py",
)

#: ``time`` module members that read (or block on) the wall clock.
_WALL_CLOCK_TIME_ATTRS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
        "clock",
        "sleep",
    }
)

#: ``(owner, attr)`` suffixes of datetime-style wall-clock constructors.
_WALL_CLOCK_DATETIME = frozenset(
    {("datetime", "now"), ("datetime", "utcnow"), ("datetime", "today"), ("date", "today")}
)

#: Process-global sampling functions of the ``random`` module.
_GLOBAL_RANDOM_ATTRS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "randbytes",
        "getrandbits",
        "uniform",
        "triangular",
        "gauss",
        "normalvariate",
        "lognormvariate",
        "expovariate",
        "vonmisesvariate",
        "gammavariate",
        "betavariate",
        "paretovariate",
        "weibullvariate",
        "choice",
        "choices",
        "sample",
        "shuffle",
        "seed",
        "setstate",
    }
)

#: ``numpy.random`` members that are fine to *reference* (constructing an
#: explicit generator); everything else on ``np.random`` is global state.
_NUMPY_RANDOM_OK = frozenset({"Generator", "SeedSequence", "BitGenerator", "PCG64"})


@register
class NoWallClockRule(Rule):
    """HC001: simulation code must not read the wall clock.

    Simulated time is ``executor.now``.  Host timing of a run belongs in
    the end-to-end tracer under ``benchmarks/e2e/``, outside ``src/``.
    """

    id = "HC001"
    name = "no-wall-clock"
    severity = Severity.ERROR
    description = (
        "no wall-clock reads (time.time/monotonic/perf_counter, datetime.now, "
        "time.sleep) inside simulation packages; time runs from the "
        "benchmarks/e2e tracer instead"
    )
    scope = DETERMINISM_SCOPE

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                yield from self._check_import(node, ctx)
            elif isinstance(node, ast.Attribute):
                message = self._attribute_violation(node)
                if message is not None:
                    yield self.diagnostic(ctx, node, message)

    def _check_import(
        self, node: ast.ImportFrom, ctx: FileContext
    ) -> Iterator[Diagnostic]:
        if node.module != "time" or node.level != 0:
            return
        for alias in node.names:
            if alias.name in _WALL_CLOCK_TIME_ATTRS:
                yield self.diagnostic(
                    ctx,
                    node,
                    f"import of wall-clock primitive time.{alias.name}; "
                    "simulation code must use simulated time",
                )

    @staticmethod
    def _attribute_violation(node: ast.Attribute) -> Optional[str]:
        chain = dotted_chain(node)
        if chain is None:
            return None
        if len(chain) == 2 and chain[0] == "time" and chain[1] in _WALL_CLOCK_TIME_ATTRS:
            return (
                f"wall-clock read time.{chain[1]}; simulation results must be a "
                "pure function of the run seed (time host cost from the "
                "benchmarks/e2e tracer, outside src/)"
            )
        if len(chain) >= 2 and (chain[-2], chain[-1]) in _WALL_CLOCK_DATETIME:
            return (
                f"wall-clock read {'.'.join(chain[-2:])}(); simulation code has "
                "no access to calendar time"
            )
        return None


@register
class NoGlobalRngRule(Rule):
    """HC002: randomness must flow from an explicit, seeded generator.

    Process-global RNG (``random.gauss``, ``np.random.normal``) couples
    independent components through hidden shared state: inserting one
    draw anywhere reorders every stream after it, and worker processes
    inherit or reseed it unpredictably.  Every component takes a
    ``random.Random(seed)`` (or seeded numpy ``Generator``) explicitly.
    """

    id = "HC002"
    name = "no-global-rng"
    severity = Severity.ERROR
    description = (
        "no process-global or unseeded RNG (random.*, numpy.random.*, "
        "random.Random()/default_rng() without a seed); pass an explicitly "
        "seeded generator"
    )
    scope = DETERMINISM_SCOPE

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Diagnostic]:
        module_level_lines = self._module_level_rng_lines(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                yield from self._check_import(node, ctx)
                continue
            if isinstance(node, ast.Call):
                message = self._unseeded_constructor_violation(node)
                if message is not None:
                    yield self.diagnostic(ctx, node, message)
            if isinstance(node, ast.Attribute):
                message = self._global_rng_violation(node)
                if message is not None:
                    yield self.diagnostic(ctx, node, message)
        for node in module_level_lines:
            yield self.diagnostic(
                ctx,
                node,
                "module-level RNG construction: a generator created at import "
                "time is shared hidden state across runs; construct it from "
                "the run seed instead",
            )

    def _check_import(
        self, node: ast.ImportFrom, ctx: FileContext
    ) -> Iterator[Diagnostic]:
        if node.level != 0:
            return
        if node.module == "random":
            for alias in node.names:
                if alias.name in _GLOBAL_RANDOM_ATTRS:
                    yield self.diagnostic(
                        ctx,
                        node,
                        f"import of process-global random.{alias.name}; use a "
                        "seeded random.Random instance",
                    )
        elif node.module in ("numpy.random", "numpy"):
            for alias in node.names:
                if alias.name == "random" and node.module == "numpy":
                    yield self.diagnostic(
                        ctx, node, "import of numpy.random global state"
                    )

    @staticmethod
    def _global_rng_violation(node: ast.Attribute) -> Optional[str]:
        chain = dotted_chain(node)
        if chain is None:
            return None
        # random.<sampling fn> on the module itself (root name ``random``).
        if len(chain) == 2 and chain[0] == "random" and chain[1] in _GLOBAL_RANDOM_ATTRS:
            return (
                f"process-global RNG call random.{chain[1]}; draw from an "
                "explicitly seeded random.Random instead"
            )
        # np.random.* / numpy.random.* global-state members.
        if (
            len(chain) >= 3
            and chain[0] in ("np", "numpy")
            and chain[1] == "random"
            and chain[2] not in _NUMPY_RANDOM_OK | {"default_rng", "RandomState"}
        ):
            return (
                f"numpy global RNG {'.'.join(chain)}; use a seeded "
                "numpy.random.default_rng(seed) generator"
            )
        return None

    @staticmethod
    def _unseeded_constructor_violation(node: ast.Call) -> Optional[str]:
        if node.args or node.keywords:
            return None
        chain = dotted_chain(node.func)
        name = ".".join(chain) if chain else None
        if name in ("random.Random", "Random"):
            return "unseeded random.Random(); pass the run seed explicitly"
        if chain and chain[-1] in ("default_rng", "RandomState"):
            return f"unseeded {name}(); pass the run seed explicitly"
        return None

    @staticmethod
    def _module_level_rng_lines(tree: ast.Module) -> list:
        """Calls constructing RNGs in module-scope statements (not defs)."""
        flagged = []
        for stmt in tree.body:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                chain = dotted_chain(node.func)
                if chain is None:
                    continue
                name = ".".join(chain)
                if name in ("random.Random", "Random") or chain[-1] in (
                    "default_rng",
                    "RandomState",
                ):
                    if node.args or node.keywords:  # seeded, but still global
                        flagged.append(node)
        return flagged
