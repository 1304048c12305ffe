"""Pass-1 project index: summaries, aliasing, call-graph construction.

These tests pin the *resolution rules* of the approximate call graph —
module-local calls, ``import x as y`` attribute chains, ``from m import f
as g`` aliases, ``self.m()`` dispatch, constructor-bound method calls,
and cycles — against fixture mini-packages, because every whole-program
rule inherits exactly these limits.
"""

from __future__ import annotations

import ast

from repro.devtools.lint import ProjectIndex, summarize_module
from repro.devtools.lint.engine import default_root, iter_python_files

from .conftest import write_tree


def _index_of(root, files):
    write_tree(root, files)
    summaries = []
    for path in iter_python_files([root]):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        summaries.append(summarize_module(tree, path.relative_to(root).as_posix()))
    return ProjectIndex(summaries)


def test_module_names_derive_from_relpath(tmp_path):
    index = _index_of(
        tmp_path,
        {
            "repro/pkg/__init__.py": "",
            "repro/pkg/mod.py": "def f():\n    pass\n",
        },
    )
    assert set(index.modules) == {"repro.pkg", "repro.pkg.mod"}
    assert "f" in index.modules["repro.pkg.mod"].functions


def test_local_and_imported_calls_resolve(tmp_path):
    index = _index_of(
        tmp_path,
        {
            "repro/a.py": (
                "def helper():\n"
                "    pass\n"
                "\n"
                "def caller():\n"
                "    helper()\n"
            ),
            "repro/b.py": (
                "from repro.a import helper\n"
                "\n"
                "def via_from():\n"
                "    helper()\n"
            ),
            "repro/c.py": (
                "import repro.a as a\n"
                "\n"
                "def via_module():\n"
                "    a.helper()\n"
            ),
        },
    )
    assert index.callees_of("repro.a:caller") == {"repro.a:helper"}
    assert index.callees_of("repro.b:via_from") == {"repro.a:helper"}
    assert index.callees_of("repro.c:via_module") == {"repro.a:helper"}
    assert index.callers_of("repro.a:helper") == {
        "repro.a:caller",
        "repro.b:via_from",
        "repro.c:via_module",
    }


def test_from_import_with_alias_resolves(tmp_path):
    index = _index_of(
        tmp_path,
        {
            "repro/a.py": "def helper():\n    pass\n",
            "repro/b.py": (
                "from repro.a import helper as h\n"
                "\n"
                "def caller():\n"
                "    h()\n"
            ),
        },
    )
    assert index.callees_of("repro.b:caller") == {"repro.a:helper"}


def test_relative_imports_resolve(tmp_path):
    index = _index_of(
        tmp_path,
        {
            "repro/pkg/__init__.py": "",
            "repro/pkg/a.py": "def helper():\n    pass\n",
            "repro/pkg/b.py": (
                "from .a import helper\n"
                "\n"
                "def caller():\n"
                "    helper()\n"
            ),
        },
    )
    assert index.callees_of("repro.pkg.b:caller") == {"repro.pkg.a:helper"}


def test_self_calls_and_ctor_bound_methods_resolve(tmp_path):
    index = _index_of(
        tmp_path,
        {
            "repro/box.py": (
                "class Box:\n"
                "    def __init__(self):\n"
                "        self.items = []\n"
                "\n"
                "    def push(self, x):\n"
                "        self._push(x)\n"
                "\n"
                "    def _push(self, x):\n"
                "        self.items.append(x)\n"
            ),
            "repro/use.py": (
                "from repro.box import Box\n"
                "\n"
                "def build():\n"
                "    b = Box()\n"
                "    b.push(1)\n"
            ),
        },
    )
    assert index.callees_of("repro.box:Box.push") == {"repro.box:Box._push"}
    assert index.callees_of("repro.use:build") == {
        "repro.box:Box.__init__",
        "repro.box:Box.push",
    }


def test_inherited_method_resolves_through_project_base(tmp_path):
    index = _index_of(
        tmp_path,
        {
            "repro/base.py": (
                "class Base:\n"
                "    def shared(self):\n"
                "        pass\n"
            ),
            "repro/child.py": (
                "from repro.base import Base\n"
                "\n"
                "class Child(Base):\n"
                "    def go(self):\n"
                "        self.shared()\n"
            ),
        },
    )
    assert index.callees_of("repro.child:Child.go") == {"repro.base:Base.shared"}


def test_call_cycles_do_not_diverge(tmp_path):
    index = _index_of(
        tmp_path,
        {
            "repro/a.py": (
                "from repro.b import pong\n"
                "\n"
                "def ping(n):\n"
                "    return pong(n - 1)\n"
            ),
            "repro/b.py": (
                "from repro.a import ping\n"
                "\n"
                "def pong(n):\n"
                "    return ping(n - 1)\n"
            ),
        },
    )
    assert index.callees_of("repro.a:ping") == {"repro.b:pong"}
    assert index.callees_of("repro.b:pong") == {"repro.a:ping"}


def test_unresolvable_calls_are_dropped_not_crashed(tmp_path):
    index = _index_of(
        tmp_path,
        {
            "repro/a.py": (
                "import os\n"
                "\n"
                "def f(cb):\n"
                "    os.getpid()\n"
                "    cb()\n"
                "    (lambda: 0)()\n"
            ),
        },
    )
    assert index.callees_of("repro.a:f") == set()


def test_real_tree_indexes_without_error():
    # The shipped repro package must summarize and link end to end (this
    # is the same pass run_lint's project stage performs).
    root = default_root()
    summaries = []
    for path in iter_python_files([root / "repro"]):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        summaries.append(summarize_module(tree, path.relative_to(root).as_posix()))
    index = ProjectIndex(summaries)
    graph = index.call_graph()
    assert len(graph) > 100  # every function appears as a caller node
    # Spot-check a known edge: a finishing job delivers its output.
    assert "repro.rt.executor:RTExecutor._deliver" in graph.get(
        "repro.rt.executor:RTExecutor._handle_finish", set()
    )
