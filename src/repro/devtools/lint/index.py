"""Pass 1 of the whole-program analyzer: per-module summaries + project index.

The two-pass design (docs/static_analysis.md) splits whole-program linting
into a *summary extraction* pass that is pure per file and a cheap
*linking* pass that stitches the summaries into a :class:`ProjectIndex`
with an approximate call graph.  Project rules (HC009/HC010) only ever
see the index, never raw ASTs.

The summaries are deliberately approximate:

* the call graph resolves ``self.m()``, module-local names, ``import x as
  y`` attribute chains, ``from m import f as g`` aliases, and one level of
  constructor binding (``q = JobQueue(...); q.push(...)``) — anything else
  stays an unresolved chain;
* taint facts are flow-insensitive within a function (a name assigned a
  tainted value anywhere is tainted everywhere in that function);
* lock tracking understands ``with self._lock:`` / ``with self._cond:``
  blocks and direct ``self.attr`` accesses.

Those limits are documented per rule; the rules are tuned so the
approximations cost recall, never soundness of the "shipped repo is
clean" gate.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .taintspec import taint_source_kind

__all__ = [
    "AttrAccess",
    "CallSite",
    "ClassSummary",
    "FunctionSummary",
    "ModuleSummary",
    "ProjectIndex",
    "SinkSite",
    "module_name_for",
    "summarize_module",
]

#: Methods that mutate their receiver in place.  A ``self.attr.append(x)``
#: therefore counts as a *write* to ``attr`` for lock-discipline purposes.
MUTATOR_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "insert",
        "extend",
        "remove",
        "discard",
        "pop",
        "popleft",
        "popitem",
        "clear",
        "update",
        "setdefault",
        "sort",
        "reverse",
        "write",
        "writelines",
        "put",
        "put_nowait",
        "get",
        "get_nowait",
        "execute",
        "executemany",
        "executescript",
        "commit",
        "rollback",
    }
)

#: ``heapq`` functions whose first argument is mutated in place.
HEAP_MUTATORS = frozenset({"heappush", "heappop", "heapify", "heappushpop", "heapreplace"})

#: ``threading`` constructors that create a *lock-like* guard: holding one
#: via ``with self.attr:`` protects whatever is accessed inside.
LOCK_CTORS = frozenset({"Lock", "RLock", "Condition"})

#: ``threading``/``queue`` constructors that are synchronization objects in
#: their own right — never *guarded by* a lock, so HC009 must not flag them.
SYNC_CTORS = frozenset(
    {
        "Event",
        "Semaphore",
        "BoundedSemaphore",
        "Barrier",
        "Queue",
        "SimpleQueue",
        "LifoQueue",
        "PriorityQueue",
    }
)


def dotted_chain(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """``a.b.c`` -> ``("a", "b", "c")``; None for non-name-rooted chains."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def module_name_for(relpath: str) -> str:
    """Dotted module name for a normalized relpath (``repro/obs/log.py``)."""
    parts = relpath.replace("\\", "/").split("/")
    if parts[-1] == "__init__.py":
        parts = parts[:-1]
    elif parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    return ".".join(parts)


# --------------------------------------------------------------------------
# Summary dataclasses
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CallSite:
    """One syntactic call: the called chain, as written."""

    chain: Tuple[str, ...]
    lineno: int
    col: int


@dataclass(frozen=True)
class AttrAccess:
    """One ``self.<attr>`` access inside a method, with the locks held."""

    attr: str
    lineno: int
    col: int
    kind: str  # "load" | "store" | "mutate"
    held: Tuple[str, ...]  # lock attrs held via `with self.X:` at this point


@dataclass(frozen=True)
class SinkSite:
    """A call that records data (store append, trace emit, ...).

    ``direct`` means a nondeterminism source appears syntactically in the
    arguments; ``names``/``calls`` carry the argument provenance for the
    inter-procedural pass to resolve.
    """

    label: str
    lineno: int
    col: int
    direct: bool
    names: Tuple[str, ...]
    calls: Tuple[Tuple[str, ...], ...]


#: Attribute names of recording sinks (HC010): calls like
#: ``recorder.annotate(...)`` / ``trace.add_event(...)`` / ``emit(...)``.
SINK_METHOD_ATTRS = frozenset({"add_event", "emit", "annotate", "record"})


def _is_sink_chain(chain: Tuple[str, ...]) -> Optional[str]:
    terminal = chain[-1]
    if terminal in SINK_METHOD_ATTRS:
        return terminal
    if terminal == "append" and len(chain) >= 2 and "store" in chain[-2].lower():
        return f"{chain[-2]}.append"
    return None


@dataclass
class FunctionSummary:
    """Flow-insensitive facts about one function or method."""

    name: str
    qualname: str  # "f" or "Cls.m", module-relative
    cls: Optional[str]
    lineno: int
    calls: List[CallSite] = field(default_factory=list)
    ctor_bindings: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    tainted_names: Set[str] = field(default_factory=set)
    name_flows: Dict[str, Set[str]] = field(default_factory=dict)
    call_flows: Dict[str, List[Tuple[str, ...]]] = field(default_factory=dict)
    return_direct: bool = False
    return_names: Set[str] = field(default_factory=set)
    return_calls: List[Tuple[str, ...]] = field(default_factory=list)
    sinks: List[SinkSite] = field(default_factory=list)


@dataclass
class ClassSummary:
    """Lock inventory and per-method ``self`` access patterns of a class."""

    name: str
    lineno: int
    bases: List[Tuple[str, ...]] = field(default_factory=list)
    lock_attrs: Set[str] = field(default_factory=set)
    sync_attrs: Set[str] = field(default_factory=set)
    accesses: Dict[str, List[AttrAccess]] = field(default_factory=dict)
    self_calls: Dict[str, List[CallSite]] = field(default_factory=dict)
    self_call_held: Dict[str, List[Tuple[str, ...]]] = field(default_factory=dict)
    methods: List[str] = field(default_factory=list)


@dataclass
class ModuleSummary:
    """Everything pass 2 needs to know about one file."""

    module: str
    relpath: str
    imports: Dict[str, str] = field(default_factory=dict)  # alias -> "mod" | "mod:obj"
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)  # by qualname
    classes: Dict[str, ClassSummary] = field(default_factory=dict)
    parse_failed: bool = False


# --------------------------------------------------------------------------
# Extraction
# --------------------------------------------------------------------------


def _resolve_relative(module: str, is_package: bool, level: int, target: str) -> str:
    """Absolute module for ``from ...target import x`` seen inside *module*."""
    parts = module.split(".") if module else []
    if not is_package:
        parts = parts[:-1]
    drop = level - 1
    if drop:
        parts = parts[: -drop] if drop <= len(parts) else []
    if target:
        parts = parts + target.split(".")
    return ".".join(parts)


def _collect_imports(tree: ast.Module, module: str, is_package: bool) -> Dict[str, str]:
    """Alias table over the whole file (function-local imports included)."""
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                # `import a.b.c` binds `a`; `import a.b.c as x` binds the leaf.
                imports[name] = alias.name if alias.asname else alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            base = (
                _resolve_relative(module, is_package, node.level, node.module or "")
                if node.level
                else (node.module or "")
            )
            for alias in node.names:
                if alias.name == "*":
                    continue
                name = alias.asname or alias.name
                imports[name] = f"{base}:{alias.name}"
    return imports


def _expr_facts(
    node: ast.AST,
) -> Tuple[bool, Set[str], List[Tuple[str, ...]]]:
    """Provenance of an expression: (has direct source, names read, calls made)."""
    direct = False
    names: Set[str] = set()
    calls: List[Tuple[str, ...]] = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            chain = dotted_chain(sub.func)
            if chain is None:
                continue
            if taint_source_kind(chain):
                direct = True
            else:
                calls.append(chain)
        elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
    return direct, names, calls


def _assign_target_names(target: ast.AST) -> List[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        out: List[str] = []
        for elt in target.elts:
            out.extend(_assign_target_names(elt))
        return out
    return []


def _extract_function(
    fn: "ast.FunctionDef | ast.AsyncFunctionDef", cls: Optional[str]
) -> FunctionSummary:
    qualname = f"{cls}.{fn.name}" if cls else fn.name
    summary = FunctionSummary(name=fn.name, qualname=qualname, cls=cls, lineno=fn.lineno)

    def record_flow(targets: Sequence[str], value: ast.AST) -> None:
        direct, names, calls = _expr_facts(value)
        for t in targets:
            if direct:
                summary.tainted_names.add(t)
            if names - {t}:
                summary.name_flows.setdefault(t, set()).update(names - {t})
            if calls:
                summary.call_flows.setdefault(t, []).extend(calls)

    for node in ast.walk(fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not fn:
            continue  # nested defs analyzed as part of the body (facts only)
        if isinstance(node, ast.Call):
            chain = dotted_chain(node.func)
            if chain is None:
                continue
            summary.calls.append(CallSite(chain, node.lineno, node.col_offset))
            label = _is_sink_chain(chain)
            if label is not None:
                direct = False
                names: Set[str] = set()
                calls: List[Tuple[str, ...]] = []
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    d, n, c = _expr_facts(arg)
                    direct = direct or d
                    names |= n
                    calls.extend(c)
                summary.sinks.append(
                    SinkSite(
                        label=label,
                        lineno=node.lineno,
                        col=node.col_offset,
                        direct=direct,
                        names=tuple(sorted(names)),
                        calls=tuple(calls),
                    )
                )
        elif isinstance(node, ast.Assign):
            targets: List[str] = []
            for t in node.targets:
                targets.extend(_assign_target_names(t))
            if targets:
                record_flow(targets, node.value)
            if (
                len(targets) == 1
                and isinstance(node.value, ast.Call)
            ):
                ctor = dotted_chain(node.value.func)
                if ctor is not None and ctor[-1][:1].isupper():
                    summary.ctor_bindings[targets[0]] = ctor
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = _assign_target_names(node.target)
            if targets:
                record_flow(targets, node.value)
        elif isinstance(node, ast.AugAssign):
            targets = _assign_target_names(node.target)
            if targets:
                record_flow(targets, node.value)
        elif isinstance(node, ast.Return) and node.value is not None:
            direct, names, calls = _expr_facts(node.value)
            summary.return_direct = summary.return_direct or direct
            summary.return_names |= names
            summary.return_calls.extend(calls)
    return summary


def _self_attr(node: ast.AST) -> Optional[str]:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _scan_lock_inventory(cls_node: ast.ClassDef, summary: ClassSummary) -> None:
    """Find ``self.X = threading.Lock()``-style assignments anywhere in the class."""
    for node in ast.walk(cls_node):
        if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
            continue
        ctor = dotted_chain(node.value.func)
        if ctor is None:
            continue
        for target in node.targets:
            attr = _self_attr(target)
            if attr is None:
                continue
            if ctor[-1] in LOCK_CTORS:
                summary.lock_attrs.add(attr)
            elif ctor[-1] in SYNC_CTORS:
                summary.sync_attrs.add(attr)


def _scan_method_accesses(
    method: "ast.FunctionDef | ast.AsyncFunctionDef", summary: ClassSummary
) -> None:
    """Walk one method tracking which class locks are held at each access."""
    accesses: List[AttrAccess] = []
    self_calls: List[CallSite] = []
    self_call_held: List[Tuple[str, ...]] = []

    def visit(node: ast.AST, held: Tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not method:
            return  # locks held here don't transfer into nested defs
        if isinstance(node, (ast.With, ast.AsyncWith)):
            new_held = held
            for item in node.items:
                attr = _self_attr(item.context_expr)
                if attr is not None and attr in summary.lock_attrs:
                    new_held = new_held + (attr,)
            for item in node.items:
                visit(item.context_expr, held)
            for stmt in node.body:
                visit(stmt, new_held)
            return
        if isinstance(node, ast.Call):
            chain = dotted_chain(node.func)
            if chain is not None and len(chain) == 2 and chain[0] == "self":
                self_calls.append(CallSite(chain, node.lineno, node.col_offset))
                self_call_held.append(held)
            # `self.attr.append(x)` / heapq.heappush(self.attr, x): mutate.
            if isinstance(node.func, ast.Attribute) and node.func.attr in MUTATOR_METHODS:
                attr = _self_attr(node.func.value)
                if attr is not None:
                    accesses.append(
                        AttrAccess(attr, node.lineno, node.col_offset, "mutate", held)
                    )
                    for arg in node.args:
                        visit(arg, held)
                    for kw in node.keywords:
                        visit(kw.value, held)
                    return
            if (
                chain is not None
                and chain[-1] in HEAP_MUTATORS
                and node.args
            ):
                attr = _self_attr(node.args[0])
                if attr is not None:
                    accesses.append(
                        AttrAccess(attr, node.lineno, node.col_offset, "mutate", held)
                    )
                    for arg in node.args[1:]:
                        visit(arg, held)
                    return
        if isinstance(node, ast.Subscript):
            attr = _self_attr(node.value)
            if attr is not None and isinstance(node.ctx, (ast.Store, ast.Del)):
                accesses.append(
                    AttrAccess(attr, node.lineno, node.col_offset, "mutate", held)
                )
                visit(node.slice, held)
                return
        if isinstance(node, ast.AugAssign):
            attr = _self_attr(node.target)
            if attr is not None:
                accesses.append(
                    AttrAccess(attr, node.lineno, node.col_offset, "store", held)
                )
                visit(node.value, held)
                return
        attr = _self_attr(node)
        if attr is not None:
            assert isinstance(node, ast.Attribute)
            kind = "store" if isinstance(node.ctx, (ast.Store, ast.Del)) else "load"
            accesses.append(AttrAccess(attr, node.lineno, node.col_offset, kind, held))
            return
        for child in ast.iter_child_nodes(node):
            visit(child, held)

    for stmt in method.body:
        visit(stmt, ())
    summary.accesses[method.name] = accesses
    summary.self_calls[method.name] = self_calls
    summary.self_call_held[method.name] = self_call_held


def summarize_module(tree: ast.Module, relpath: str) -> ModuleSummary:
    """Extract the :class:`ModuleSummary` for one parsed file."""
    relpath = relpath.replace("\\", "/")
    module = module_name_for(relpath)
    is_package = relpath.endswith("__init__.py")
    summary = ModuleSummary(module=module, relpath=relpath)
    summary.imports = _collect_imports(tree, module, is_package)

    def walk_defs(
        stmts: Sequence[ast.stmt], cls: Optional[str]
    ) -> Iterator[Tuple[Optional[str], "ast.FunctionDef | ast.AsyncFunctionDef"]]:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield cls, stmt
            elif isinstance(stmt, ast.ClassDef) and cls is None:
                yield from walk_defs(stmt.body, stmt.name)

    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            cls_summary = ClassSummary(name=stmt.name, lineno=stmt.lineno)
            cls_summary.bases = [
                b for b in (dotted_chain(base) for base in stmt.bases) if b is not None
            ]
            _scan_lock_inventory(stmt, cls_summary)
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    cls_summary.methods.append(sub.name)
                    _scan_method_accesses(sub, cls_summary)
            summary.classes[stmt.name] = cls_summary

    for cls, fn in walk_defs(tree.body, None):
        fn_summary = _extract_function(fn, cls)
        summary.functions[fn_summary.qualname] = fn_summary
    return summary


# --------------------------------------------------------------------------
# Linking: the project index
# --------------------------------------------------------------------------


class ProjectIndex:
    """Summaries linked into a resolvable whole-program view.

    Qualified names look like ``repro.service.queue:JobQueue.push`` (module,
    colon, module-relative qualname).  ``resolve_call`` maps a syntactic
    chain seen inside a function to such a qualname when the approximate
    resolution rules allow; the call graph is the closure of that over
    every recorded call site.
    """

    def __init__(self, summaries: Sequence[ModuleSummary]) -> None:
        self.modules: Dict[str, ModuleSummary] = {s.module: s for s in summaries}
        self._edges: Optional[Dict[str, Set[str]]] = None
        self._redges: Optional[Dict[str, Set[str]]] = None

    # -- lookup helpers ----------------------------------------------------

    def functions(self) -> Iterator[Tuple[ModuleSummary, FunctionSummary]]:
        for mod in self.modules.values():
            for fn in mod.functions.values():
                yield mod, fn

    def function_at(self, qualname: str) -> Optional[FunctionSummary]:
        if ":" not in qualname:
            return None
        module, local = qualname.split(":", 1)
        mod = self.modules.get(module)
        if mod is None:
            return None
        return mod.functions.get(local)

    def _class_in(self, module: str, name: str) -> Optional[ClassSummary]:
        mod = self.modules.get(module)
        return mod.classes.get(name) if mod else None

    def _resolve_object(self, module: str, name: str) -> Optional[Tuple[str, str]]:
        """Resolve *name* in *module* to ("module", dotted) or ("object", "mod:obj")."""
        mod = self.modules.get(module)
        if mod is None:
            return None
        if name in mod.functions or name in mod.classes:
            return ("object", f"{module}:{name}")
        target = mod.imports.get(name)
        if target is None:
            return None
        if ":" in target:
            base, obj = target.split(":", 1)
            # `from repro.service import store` imports a submodule.
            if f"{base}.{obj}" in self.modules and obj not in (
                self.modules[base].functions if base in self.modules else {}
            ):
                return ("module", f"{base}.{obj}")
            return ("object", f"{base}:{obj}")
        return ("module", target)

    def _method_qualname(self, module: str, cls: str, method: str) -> Optional[str]:
        """Find *method* on *cls* (or a project-resolvable base), as a qualname."""
        seen: Set[Tuple[str, str]] = set()
        stack = [(module, cls)]
        while stack:
            mod_name, cls_name = stack.pop()
            if (mod_name, cls_name) in seen:
                continue
            seen.add((mod_name, cls_name))
            mod = self.modules.get(mod_name)
            if mod is None:
                continue
            local = f"{cls_name}.{method}"
            if local in mod.functions:
                return f"{mod_name}:{local}"
            cls_summary = mod.classes.get(cls_name)
            if cls_summary is None:
                continue
            for base in cls_summary.bases:
                resolved = self._resolve_class_chain(mod_name, base)
                if resolved is not None:
                    stack.append(resolved)
        return None

    def _resolve_class_chain(
        self, module: str, chain: Tuple[str, ...]
    ) -> Optional[Tuple[str, str]]:
        """Resolve a chain that should denote a class -> (module, class)."""
        head = self._resolve_object(module, chain[0])
        rest = chain[1:]
        while head is not None:
            kind, target = head
            if kind == "object":
                mod_name, obj = target.split(":", 1)
                if rest:
                    return None  # attribute of a non-module object
                if self._class_in(mod_name, obj) is not None:
                    return (mod_name, obj)
                # re-exported name: follow one import hop
                mod = self.modules.get(mod_name)
                if mod and obj in mod.imports:
                    head = self._resolve_object(mod_name, obj)
                    continue
                return None
            # module
            if not rest:
                return None
            if len(rest) == 1:
                if self._class_in(target, rest[0]) is not None:
                    return (target, rest[0])
                head = self._resolve_object(target, rest[0])
                rest = ()
                continue
            sub = f"{target}.{rest[0]}"
            if sub in self.modules:
                target_mod = sub
                rest = rest[1:]
                head = ("module", target_mod)
                continue
            return None
        return None

    def resolve_call(
        self, module: str, fn: FunctionSummary, chain: Tuple[str, ...]
    ) -> Optional[str]:
        """Best-effort qualname for a call chain seen inside *fn*."""
        if not chain:
            return None
        if chain[0] == "self" and fn.cls is not None:
            if len(chain) == 2:
                return self._method_qualname(module, fn.cls, chain[1])
            return None
        if len(chain) == 1:
            resolved = self._resolve_object(module, chain[0])
            if resolved is None:
                return None
            kind, target = resolved
            if kind != "object":
                return None
            mod_name, obj = target.split(":", 1)
            mod = self.modules.get(mod_name)
            if mod is None:
                return None
            if obj in mod.functions:
                return f"{mod_name}:{obj}"
            if obj in mod.classes:
                ctor = f"{obj}.__init__"
                return f"{mod_name}:{ctor}" if ctor in mod.functions else f"{mod_name}:{obj}"
            if obj in mod.imports:  # one re-export hop
                nested = self._resolve_object(mod_name, obj)
                if nested is not None and nested[0] == "object":
                    n_mod, n_obj = nested[1].split(":", 1)
                    n = self.modules.get(n_mod)
                    if n and n_obj in n.functions:
                        return f"{n_mod}:{n_obj}"
            return None
        # obj.method() through a constructor binding
        if chain[0] in fn.ctor_bindings and len(chain) == 2:
            resolved_cls = self._resolve_class_chain(module, fn.ctor_bindings[chain[0]])
            if resolved_cls is not None:
                return self._method_qualname(resolved_cls[0], resolved_cls[1], chain[1])
            return None
        # module-rooted chains: walk as deep as the import table allows
        resolved = self._resolve_object(module, chain[0])
        if resolved is None:
            return None
        kind, target = resolved
        idx = 1
        while kind == "module" and idx < len(chain):
            sub = f"{target}.{chain[idx]}"
            if sub in self.modules:
                target = sub
                idx += 1
                continue
            mod = self.modules.get(target)
            if mod is None:
                return None
            remaining = chain[idx:]
            if len(remaining) == 1:
                if remaining[0] in mod.functions:
                    return f"{target}:{remaining[0]}"
                if remaining[0] in mod.classes:
                    ctor = f"{remaining[0]}.__init__"
                    return (
                        f"{target}:{ctor}"
                        if ctor in mod.functions
                        else f"{target}:{remaining[0]}"
                    )
                return None
            if len(remaining) == 2 and remaining[0] in mod.classes:
                return self._method_qualname(target, remaining[0], remaining[1])
            return None
        if kind == "object" and idx < len(chain):
            mod_name, obj = target.split(":", 1)
            remaining = chain[idx:]
            if len(remaining) == 1 and self._class_in(mod_name, obj) is not None:
                return self._method_qualname(mod_name, obj, remaining[0])
        return None

    # -- call graph --------------------------------------------------------

    def _build_edges(self) -> None:
        edges: Dict[str, Set[str]] = {}
        redges: Dict[str, Set[str]] = {}
        for mod, fn in self.functions():
            caller = f"{mod.module}:{fn.qualname}"
            edges.setdefault(caller, set())
            for site in fn.calls:
                callee = self.resolve_call(mod.module, fn, site.chain)
                if callee is None:
                    continue
                edges[caller].add(callee)
                redges.setdefault(callee, set()).add(caller)
        self._edges = edges
        self._redges = redges

    def callees_of(self, qualname: str) -> Set[str]:
        if self._edges is None:
            self._build_edges()
        assert self._edges is not None
        return self._edges.get(qualname, set())

    def callers_of(self, qualname: str) -> Set[str]:
        if self._redges is None:
            self._build_edges()
        assert self._redges is not None
        return self._redges.get(qualname, set())

    def call_graph(self) -> Dict[str, Set[str]]:
        if self._edges is None:
            self._build_edges()
        assert self._edges is not None
        return self._edges
