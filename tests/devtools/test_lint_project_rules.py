"""Whole-program rule HC010 and the path-sensitive HC011.

The violation fixtures in conftest pin that each rule *fires*; these
tests pin the boundary: the sanctioned idioms each rule must accept
(the executor's guarded bind/finalize pattern, devtools owning the
stopwatch) and the inter-procedural cases that motivated the
whole-program engine in the first place.
"""

from __future__ import annotations

from repro.devtools.lint import run_lint

from .conftest import write_tree


def _rules(diags):
    return [(d.path, d.line, d.rule) for d in diags]


# ---------------------------------------------------------------------------
# HC010 — determinism taint
# ---------------------------------------------------------------------------


def test_hc010_cross_module_leak_is_found(tmp_path):
    write_tree(
        tmp_path,
        {
            "repro/fleet/clocks.py": (
                "import time\n"
                "\n"
                "def stamp():\n"
                "    return time.time()\n"
            ),
            "repro/fleet/writer.py": (
                "from repro.fleet.clocks import stamp\n"
                "\n"
                "def record(store):\n"
                "    started = stamp()\n"
                '    store.append({"started": started})\n'
            ),
        },
    )
    diags = run_lint([tmp_path], root=tmp_path)
    assert _rules(diags) == [("repro/fleet/writer.py", 5, "HC010")]
    assert "started" in diags[0].message


def test_hc010_taint_propagates_through_two_call_edges(tmp_path):
    write_tree(
        tmp_path,
        {
            "repro/fleet/deep.py": (
                "import time\n"
                "\n"
                "def raw():\n"
                "    return time.time()\n"
                "\n"
                "def wrapped():\n"
                "    return raw() * 1000.0\n"
                "\n"
                "def record(store):\n"
                '    store.append({"ms": wrapped()})\n'
            ),
        },
    )
    diags = run_lint([tmp_path], root=tmp_path)
    assert _rules(diags) == [("repro/fleet/deep.py", 10, "HC010")]


def test_hc010_clean_counterpart_simulated_time(tmp_path):
    write_tree(
        tmp_path,
        {
            "repro/fleet/ok_writer.py": (
                "def record(store, executor):\n"
                '    store.append({"t": executor.now})\n'
            ),
        },
    )
    assert run_lint([tmp_path], root=tmp_path) == []


def test_hc010_recorder_sinks_are_covered(tmp_path):
    write_tree(
        tmp_path,
        {
            "repro/experiments/ann.py": (
                "import time\n"
                "\n"
                "def note(recorder):\n"
                "    recorder.annotate(when=time.time())\n"
            ),
        },
    )
    diags = run_lint([tmp_path], root=tmp_path)
    assert _rules(diags) == [("repro/experiments/ann.py", 4, "HC010")]


def test_hc010_devtools_owns_the_stopwatch(tmp_path):
    # Developer tooling may measure wall time and record it by design;
    # repro/devtools is out of HC010 scope.
    write_tree(
        tmp_path,
        {
            "repro/devtools/runner.py": (
                "import time\n"
                "\n"
                "def measure(store, fn):\n"
                "    t0 = time.perf_counter()\n"
                "    fn()\n"
                '    store.append({"wall_s": time.perf_counter() - t0})\n'
            ),
        },
    )
    assert run_lint([tmp_path], root=tmp_path) == []


def test_hc010_suppression_works_on_the_sink_line(tmp_path):
    write_tree(
        tmp_path,
        {
            "repro/fleet/supp.py": (
                "import time\n"
                "\n"
                "def stamp():\n"
                "    return time.time()\n"
                "\n"
                "def record(store):\n"
                '    store.append({"t": stamp()})  # hclint: disable=HC010\n'
            ),
        },
    )
    assert run_lint([tmp_path], root=tmp_path) == []


# ---------------------------------------------------------------------------
# HC011 — span pairing
# ---------------------------------------------------------------------------


def test_hc011_accepts_the_guarded_executor_idiom(tmp_path):
    write_tree(
        tmp_path,
        {
            "repro/rt/okguard.py": (
                "class Runner:\n"
                "    def run(self):\n"
                "        if self.recorder is not None:\n"
                "            self.recorder.bind_run(self)\n"
                "        result = self.step()\n"
                "        if self.recorder is not None:\n"
                "            self.recorder.finalize_run(result)\n"
                "        return result\n"
            ),
        },
    )
    assert run_lint([tmp_path], root=tmp_path) == []


def test_hc011_accepts_try_finally(tmp_path):
    write_tree(
        tmp_path,
        {
            "repro/rt/okfinally.py": (
                "def run(recorder, fn):\n"
                "    recorder.bind_run(fn)\n"
                "    try:\n"
                "        return fn()\n"
                "    finally:\n"
                "        recorder.finalize_run(fn)\n"
            ),
        },
    )
    assert run_lint([tmp_path], root=tmp_path) == []


def test_hc011_flags_missing_close_at_function_end(tmp_path):
    write_tree(
        tmp_path,
        {
            "repro/rt/noclose.py": (
                "def run(recorder, fn):\n"
                "    recorder.bind_run(fn)\n"
                "    fn()\n"
            ),
        },
    )
    diags = run_lint([tmp_path], root=tmp_path)
    assert _rules(diags) == [("repro/rt/noclose.py", 2, "HC011")]


def test_hc011_flags_close_on_only_one_branch(tmp_path):
    write_tree(
        tmp_path,
        {
            "repro/rt/onebranch.py": (
                "def run(recorder, fn, fast):\n"
                "    recorder.bind_run(fn)\n"
                "    if fast:\n"
                "        recorder.finalize_run(fn)\n"
                "        return 1\n"
                "    return 0\n"
            ),
        },
    )
    diags = run_lint([tmp_path], root=tmp_path)
    assert _rules(diags) == [("repro/rt/onebranch.py", 2, "HC011")]


def test_hc011_different_guards_do_not_discharge(tmp_path):
    # Opening under one condition and closing under a *different* one is
    # exactly the bug the canonical-guard matching must not excuse.
    write_tree(
        tmp_path,
        {
            "repro/rt/mismatch.py": (
                "class Runner:\n"
                "    def run(self):\n"
                "        if self.recorder is not None:\n"
                "            self.recorder.bind_run(self)\n"
                "        result = self.step()\n"
                "        if self.verbose:\n"
                "            self.recorder.finalize_run(result)\n"
                "        return result\n"
            ),
        },
    )
    diags = run_lint([tmp_path], root=tmp_path)
    assert _rules(diags) == [("repro/rt/mismatch.py", 4, "HC011")]


def test_hc011_loop_balanced_open_close_is_clean(tmp_path):
    write_tree(
        tmp_path,
        {
            "repro/rt/loop.py": (
                "def run_all(recorder, jobs):\n"
                "    for job in jobs:\n"
                "        recorder.bind_run(job)\n"
                "        job()\n"
                "        recorder.finalize_run(job)\n"
                "    return len(jobs)\n"
            ),
        },
    )
    assert run_lint([tmp_path], root=tmp_path) == []


def test_hc011_raise_paths_are_not_flagged(tmp_path):
    # Exception exits are the runtime trace checker's department.
    write_tree(
        tmp_path,
        {
            "repro/rt/raising.py": (
                "def run(recorder, fn):\n"
                "    recorder.bind_run(fn)\n"
                "    if fn is None:\n"
                "        raise ValueError(\"no fn\")\n"
                "    out = fn()\n"
                "    recorder.finalize_run(fn)\n"
                "    return out\n"
            ),
        },
    )
    assert run_lint([tmp_path], root=tmp_path) == []
