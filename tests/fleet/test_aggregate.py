"""Aggregation: store → cells, tables, and the multi-seed bridge."""

import pytest

from repro.fleet import (
    CampaignSpec,
    ResultStore,
    load_groups,
    render_group,
    render_store,
    run_campaign,
    to_multi_seed_result,
)
from repro.fleet.aggregate import CellStats, pick_metric


def synthetic_store(values):
    """Store with records for {(scheduler, seed): metric} of one cell."""
    store = ResultStore(None)
    for (scheduler, seed), value in values.items():
        store.append(
            {
                "job_id": f"{scheduler}-{seed}",
                "job": {
                    "scenario": "fig13",
                    "scheduler": scheduler,
                    "seed": seed,
                    "overrides": {},
                },
                "summary": {"speed_error_rms": value, "overall_miss_ratio": 0.0},
            }
        )
    return store


class TestCellStats:
    def test_statistics(self):
        cell = CellStats(
            scenario="s", scheduler="EDF", overrides={}, seeds=[0, 1, 2],
            values=[1.0, 2.0, 3.0],
        )
        assert cell.mean == 2.0
        assert cell.std == pytest.approx(1.0)
        # t(df=2) = 4.303 -> ci95 = 4.303 * 1.0 / sqrt(3)
        assert cell.ci95 == pytest.approx(4.303 / 3 ** 0.5, rel=1e-6)
        assert cell.min == 1.0 and cell.max == 3.0


class TestLoadGroups:
    def test_groups_and_wins(self):
        store = synthetic_store(
            {
                ("EDF", 0): 2.0, ("EDF", 1): 1.0,
                ("HCPerf", 0): 1.0, ("HCPerf", 1): 2.0,
            }
        )
        (group,) = load_groups(store, schemes=("EDF", "HCPerf"))
        assert group.metric == "speed_error_rms"
        assert group.seeds == [0, 1]
        assert group.wins() == {"EDF": 1, "HCPerf": 1}

    def test_order_independent_of_store_order(self):
        values = {("EDF", 0): 2.0, ("HPF", 0): 1.0, ("EDF", 1): 4.0, ("HPF", 1): 3.0}
        fwd = synthetic_store(values)
        rev = ResultStore(None)
        for record in reversed(fwd.records()):
            rev.append(record)
        assert render_store(fwd) == render_store(rev)

    def test_incomplete_seed_never_wins_by_forfeit(self):
        store = synthetic_store(
            {("EDF", 0): 2.0, ("EDF", 1): 2.0, ("HCPerf", 0): 1.0}
        )
        (group,) = load_groups(store)
        # seed 1 has no HCPerf record yet -> only seed 0 is scored
        assert group.wins() == {"EDF": 0, "HCPerf": 1}

    def test_explicit_metric_and_missing_metric(self):
        store = synthetic_store({("EDF", 0): 2.0})
        (group,) = load_groups(store, metric="overall_miss_ratio")
        assert group.metric == "overall_miss_ratio"
        with pytest.raises(KeyError):
            load_groups(store, metric="no_such_metric")

    def test_pick_metric_preference(self):
        assert pick_metric([{"speed_error_rms": 1, "overall_miss_ratio": 0}]) == (
            "speed_error_rms"
        )
        assert pick_metric([{"lateral_offset_rms": 1}]) == "lateral_offset_rms"
        with pytest.raises(ValueError):
            pick_metric([{"unrelated": 1}])


class TestRender:
    def test_render_marks_winner_and_charts_seeds(self):
        store = synthetic_store(
            {
                ("EDF", 0): 2.0, ("EDF", 1): 2.5,
                ("HCPerf", 0): 1.0, ("HCPerf", 1): 1.5,
            }
        )
        (group,) = load_groups(store, schemes=("EDF", "HCPerf"))
        out = render_group(group)
        assert "HCPerf *" in out and "wins" in out
        assert "per seed" in out  # chart present with >1 seed
        assert "per seed" not in render_group(group, chart=False)

    def test_empty_store(self):
        assert render_store(ResultStore(None)) == "(store is empty)"


class TestMultiSeedBridge:
    def test_matches_serial_multi_seed_exactly(self):
        """fleet report reproduces one serial run_scenario per pair."""
        from repro.experiments.multi_seed import render
        from tests.experiments.test_multi_seed import serial_reference

        schemes = ("EDF", "HCPerf")
        store = ResultStore(None)
        run_campaign(
            CampaignSpec(
                scenarios=["fig13"], schedulers=list(schemes), seeds=[0, 1],
                variants=[{"horizon": 5.0}],
            ),
            store=store,
            jobs=2,
        )
        (group,) = load_groups(store, schemes=schemes)
        assert render(to_multi_seed_result(group)) == render(serial_reference(schemes, [0, 1]))
