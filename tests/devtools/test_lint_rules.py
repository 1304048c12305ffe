"""One deliberate violation per shipped rule, plus clean counterparts.

The fixture tree (see conftest) is the executable specification of what
each rule catches; the clean-counterpart tests pin what each rule must
*not* catch (the sanctioned idioms the diagnostics point people at).
"""

from __future__ import annotations

import inspect

from repro.devtools.lint import Severity, run_lint
from repro.devtools.lint.rules.contracts import _HOOKS
from repro.schedulers import Scheduler

from .conftest import VIOLATION_FIXTURES, write_tree


def test_every_rule_fires_once_on_its_fixture(violation_tree):
    # Every rule is per-file, so each fixture file is linted on its own.
    for relpath, (_, rule, line) in VIOLATION_FIXTURES.items():
        diags = run_lint([violation_tree / relpath], root=violation_tree)
        assert [(d.rule, d.line) for d in diags] == [(rule, line)], relpath


def test_full_tree_run_reports_all_rules(violation_tree):
    diags = run_lint([violation_tree], root=violation_tree)
    assert sorted(d.rule for d in diags) == sorted(
        rule for _, rule, _ in VIOLATION_FIXTURES.values()
    )


def test_rules_scope_to_simulation_packages(tmp_path):
    # The same wall-clock read is legal outside the determinism boundary
    # (analysis/ post-processes results; devtools/ is explicitly exempt).
    source = "import time\n\ndef stamp():\n    return time.time()\n"
    write_tree(
        tmp_path,
        {
            "repro/analysis/ok_clock.py": source,
            "repro/devtools/ok_clock.py": source,
            "repro/rt/bad_clock.py": source,
        },
    )
    diags = run_lint([tmp_path], root=tmp_path)
    assert [(d.path, d.rule) for d in diags] == [("repro/rt/bad_clock.py", "HC001")]


def test_hc001_flags_wall_clock_imports_and_datetime(tmp_path):
    write_tree(
        tmp_path,
        {
            "repro/rt/clocks.py": (
                "from time import perf_counter\n"
                "from datetime import datetime\n"
                "\n"
                "def wall():\n"
                "    return datetime.now()\n"
            )
        },
    )
    diags = run_lint([tmp_path], root=tmp_path)
    assert [d.rule for d in diags] == ["HC001", "HC001"]
    assert diags[0].line == 1  # the from-import itself
    assert diags[1].line == 5  # datetime.now()


def test_hc002_seeded_generators_are_clean(tmp_path):
    write_tree(
        tmp_path,
        {
            "repro/rt/good_rng.py": (
                "import random\n"
                "\n"
                "def make(seed):\n"
                "    return random.Random(seed)\n"
            )
        },
    )
    assert run_lint([tmp_path], root=tmp_path) == []


def test_hc002_flags_unseeded_and_module_level_generators(tmp_path):
    write_tree(
        tmp_path,
        {
            "repro/rt/unseeded.py": (
                "import random\n"
                "\n"
                "def make():\n"
                "    return random.Random()\n"
            ),
            "repro/rt/module_level.py": (
                "import random\n"
                "\n"
                "RNG = random.Random(42)\n"
            ),
        },
    )
    diags = run_lint([tmp_path], root=tmp_path)
    assert sorted((d.path, d.rule) for d in diags) == [
        ("repro/rt/module_level.py", "HC002"),
        ("repro/rt/unseeded.py", "HC002"),
    ]


def test_hc003_missing_rank_and_executor_import(tmp_path):
    write_tree(
        tmp_path,
        {
            "repro/schedulers/norank.py": (
                "from .base import Scheduler\n"
                "from ..rt.executor import RTExecutor\n"
                "\n"
                "class NoRank(Scheduler):\n"
                "    pass\n"
            )
        },
    )
    diags = run_lint([tmp_path], root=tmp_path)
    assert [d.rule for d in diags] == ["HC003", "HC003"]
    messages = " / ".join(d.message for d in diags)
    assert "imports the executor" in messages
    assert "does not override rank" in messages


def test_hc003_wrong_hook_arity(tmp_path):
    write_tree(
        tmp_path,
        {
            "repro/schedulers/arity.py": (
                "from .base import Scheduler\n"
                "\n"
                "class BadArity(Scheduler):\n"
                "    def rank(self, job):\n"
                "        return 0\n"
            )
        },
    )
    diags = run_lint([tmp_path], root=tmp_path)
    assert len(diags) == 1
    assert "takes 2 positional parameter(s)" in diags[0].message


def test_hc003_ranked_hook_arity(tmp_path):
    write_tree(
        tmp_path,
        {
            "repro/schedulers/short_ranked.py": (
                "from .base import Scheduler\n"
                "\n"
                "class ShortRanked(Scheduler):\n"
                "    def rank(self, job, now, view):\n"
                "        return 0\n"
                "\n"
                "    def ranked(self, jobs, now):\n"
                "        return list(jobs)\n"
            ),
            "repro/schedulers/good_ranked.py": (
                "from .base import Scheduler\n"
                "\n"
                "class GoodRanked(Scheduler):\n"
                "    def rank(self, job, now, view):\n"
                "        return 0\n"
                "\n"
                "    def ranked(self, jobs, now, view):\n"
                "        return list(jobs)\n"
            ),
        },
    )
    diags = run_lint([tmp_path], root=tmp_path)
    assert [(d.path, d.rule) for d in diags] == [("repro/schedulers/short_ranked.py", "HC003")]
    assert "ShortRanked.ranked takes 3 positional parameter(s), the ranked hook takes 4" in (
        diags[0].message
    )


def test_hc003_eligible_hook_arity(tmp_path):
    write_tree(
        tmp_path,
        {
            "repro/schedulers/short_eligible.py": (
                "from .base import Scheduler\n"
                "\n"
                "class ShortEligible(Scheduler):\n"
                "    def rank(self, job, now, view):\n"
                "        return 0\n"
                "\n"
                "    def eligible(self, job):\n"
                "        return True\n"
            ),
        },
    )
    diags = run_lint([tmp_path], root=tmp_path)
    assert [d.rule for d in diags] == ["HC003"]
    assert "ShortEligible.eligible takes 2 positional parameter(s), the eligible hook takes 3" in (
        diags[0].message
    )


def test_hc003_hook_table_matches_the_scheduler_interface():
    # HC003's table is written out by hand; it must name every public
    # method of Scheduler, with the same positional arity.
    positional = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    interface = {
        name: sum(p.kind in positional for p in inspect.signature(fn).parameters.values())
        for name, fn in vars(Scheduler).items()
        if inspect.isfunction(fn) and not name.startswith("_")
    }
    assert _HOOKS == interface


def test_hc006_is_a_warning_and_tolerates_sanctioned_helpers(tmp_path):
    write_tree(
        tmp_path,
        {
            "repro/rt/cmp.py": (
                "from .timeutil import times_close\n"
                "\n"
                "def same(deadline, now):\n"
                "    return times_close(deadline, now)\n"
                "\n"
                "def bad(deadline):\n"
                "    return deadline == 0.0\n"
            )
        },
    )
    diags = run_lint([tmp_path], root=tmp_path)
    assert [(d.rule, d.line, d.severity) for d in diags] == [
        ("HC006", 7, Severity.WARNING)
    ]


def test_hc007_covers_both_leak_kinds_in_faults_only(tmp_path):
    # The fault-injection package is inside the determinism boundary: the
    # wall-clock and global-RNG findings surface there as HC001/HC002, as
    # they do in repro/rt.
    source = (
        "import random\n"
        "import time\n"
        "\n"
        "def draw():\n"
        "    return random.random() + time.time()\n"
    )
    write_tree(
        tmp_path,
        {
            "repro/faults/bad_model.py": source,
            "repro/rt/bad_model.py": source,
        },
    )
    diags = run_lint([tmp_path], root=tmp_path)
    by_path = {}
    for d in diags:
        by_path.setdefault(d.path, []).append(d.rule)
    assert sorted(by_path["repro/faults/bad_model.py"]) == ["HC001", "HC002"]
    assert sorted(by_path["repro/rt/bad_model.py"]) == ["HC001", "HC002"]


def test_hc007_accepts_spec_seeded_streams(tmp_path):
    # The sanctioned idiom — per-fault streams derived from the spec seed —
    # must lint clean.
    write_tree(
        tmp_path,
        {
            "repro/faults/good_model.py": (
                "import random\n"
                "\n"
                "def stream(spec_seed, index):\n"
                "    return random.Random(spec_seed * 1_000_003 + index)\n"
            )
        },
    )
    assert run_lint([tmp_path], root=tmp_path) == []
