"""Fixture trees for the hclint tests.

``violation_tree`` builds a miniature ``repro`` package under ``tmp_path``
with one deliberate violation per shipped rule, at a known file/line, plus
a second HC002 one under ``repro/faults`` (inside the determinism scope).  Linting with ``root=tmp_path`` makes the diagnostics' paths
relative to the tree, so scoping behaves identically to the real source
tree and the JSON golden test is byte-stable.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Tuple

import pytest

#: relpath -> (source, expected rule id, expected line)
VIOLATION_FIXTURES: Dict[str, Tuple[str, str, int]] = {
    "repro/rt/bad_clock.py": (
        "import time\n"
        "\n"
        "def stamp():\n"
        "    return time.time()\n",
        "HC001",
        4,
    ),
    "repro/workloads/bad_rng.py": (
        "import random\n"
        "\n"
        "def jitter():\n"
        "    return random.random()\n",
        "HC002",
        4,
    ),
    "repro/schedulers/bad_policy.py": (
        "from .base import Scheduler\n"
        "\n"
        "class TypoPolicy(Scheduler):\n"
        "    def rank(self, job, now, view):\n"
        "        return job.priority\n"
        "\n"
        "    def on_windows(self, now, view, window):\n"
        "        return None\n",
        "HC003",
        7,
    ),
    "repro/core/bad_defaults.py": (
        "def collect(samples=[]):\n"
        "    return samples\n",
        "HC004",
        1,
    ),
    "repro/fleet/bad_worker.py": (
        "def run_job(job):\n"
        "    try:\n"
        "        return job()\n"
        "    except:\n"
        "        pass\n",
        "HC005",
        4,
    ),
    "repro/vehicle/bad_eq.py": (
        "def same_instant(deadline, now):\n"
        "    return deadline == now\n",
        "HC006",
        2,
    ),
    "repro/faults/bad_model.py": (
        "import random\n"
        "\n"
        "def spin_up():\n"
        "    return random.Random()\n",
        "HC002",
        4,
    ),
}


def write_tree(root: Path, files: Dict[str, str]) -> None:
    for relpath, source in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")


@pytest.fixture
def violation_tree(tmp_path: Path) -> Path:
    """A fixture ``repro`` tree with one violation per rule; returns its root."""
    write_tree(
        tmp_path, {rel: src for rel, (src, _, _) in VIOLATION_FIXTURES.items()}
    )
    return tmp_path
