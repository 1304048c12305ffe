"""Cheap checks of the claims ledger (``benchmarks/test_claims.py``).

The ledger's own check regenerates EXPERIMENTS.md's tables at full horizons,
which takes minutes.  These tests keep it honest without that cost: the doc's
markers and the ledger's sections agree one to one, the doc's Paper column
equals the experiment modules' ``PAPER_TABLE_*`` constants, the comparator
names the section of a one-digit edit, and every row evaluates on a run
that stops shortly after the t = 10 s overload begins.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from collections import Counter
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def ledger():
    """``benchmarks/test_claims.py``, imported by path (it is not a package)."""
    path = REPO / "benchmarks" / "test_claims.py"
    spec = importlib.util.spec_from_file_location("claims_ledger", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def doc(ledger):
    return ledger.DOC.read_text(encoding="utf-8")


def test_markers_and_sections_match_one_to_one(ledger, doc):
    pairs = Counter(ledger.marker_names(doc))
    assert Counter(ledger.opening_marker_names(doc)) == pairs, "unclosed marker"
    assert pairs == Counter(s.name for s in ledger.SECTIONS)


def test_paper_column_equals_module_constants(ledger, doc):
    """Every PAPER_TABLE_* entry appears once in its section's block, and no
    other row of the doc claims a paper value."""
    from repro.experiments import EXPERIMENTS

    blocks = ledger.committed_blocks(doc)
    papered = 0
    for section in ledger.SECTIONS:
        rows = [line.split(" | ") for line in blocks[section.name].splitlines()[2:]]
        cells = {claim.lstrip("| "): paper for claim, paper, _ in rows}
        papered += sum(paper != "—" for paper in cells.values())
        module = EXPERIMENTS.get(section.name)
        for name in dir(module) if module else ():
            if not name.startswith("PAPER_TABLE_"):
                continue
            roman = name[len("PAPER_TABLE_"):]
            for scheme, value in getattr(module, name).items():
                (claim,) = [
                    c for c in cells
                    if c.startswith(f"Table {roman} ") and c.endswith(f", {scheme}")
                ]
                assert cells[claim] == ledger.fmt(value), (section.name, claim)
                papered -= 1
    assert papered == 0, "a paper value in the doc is not read from a constant"


def test_one_digit_edit_is_reported_under_its_section(ledger):
    fresh = {
        "alpha": "| Claim | Paper | Measured |\n|---|---|---|\n| x | — | 0.618 |",
        "beta": "| Claim | Paper | Measured |\n|---|---|---|\n| y | 1.02 | 0.9181 |",
    }
    doc = "# Title\n\nProse.\n\n" + "\n\n".join(
        f"<!-- claims:{n} -->\n{b}\n<!-- /claims:{n} -->" for n, b in fresh.items()
    ) + "\n"
    assert ledger.differences(doc, fresh) == []
    assert ledger.rewrite(doc, fresh) == doc

    planted = doc.replace("0.9181", "0.9184")
    (message,) = ledger.differences(planted, fresh)
    assert message.startswith("beta: ")
    assert "-| y | 1.02 | 0.9184 |" in message and "+| y | 1.02 | 0.9181 |" in message
    assert "python benchmarks/test_claims.py" in message
    assert ledger.rewrite(planted, fresh) == doc


def test_every_row_evaluates_on_a_short_run(ledger):
    for section in ledger.SECTIONS:
        result = section.run(section.quick_horizon)
        for row in section.rows:
            value = ledger.evaluate(row, result)
            if isinstance(row, ledger.Shape):
                assert isinstance(value, bool), (section.name, row.claim)
            else:
                assert isinstance(value, (int, float)) and not isinstance(value, bool)
                assert math.isfinite(value), (section.name, row.quantity)
