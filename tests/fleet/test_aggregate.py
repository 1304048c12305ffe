"""Aggregation: store → cells, tables, and the multi-seed bridge."""

import pytest

from repro.fleet import (
    CampaignSpec,
    ResultStore,
    load_groups,
    render_group,
    render_store,
    run_campaign,
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

    def test_partial_store_counts_only_shared_seeds(self):
        """EDF on seeds 0-2 and HCPerf on seed 0 only compare one seed."""
        store = synthetic_store(
            {("EDF", 0): 2.0, ("EDF", 1): 2.0, ("EDF", 2): 2.0, ("HCPerf", 0): 1.0}
        )
        (group,) = load_groups(store)
        assert group.seeds == [0]
        out = render_group(group)
        assert "over 1 seed(s)" in out
        assert "1/1" in out and "/3" not in out

    def test_empty_store(self):
        assert render_store(ResultStore(None)) == "(store is empty)"


class TestMultiSeedBridge:
    def test_matches_serial_multi_seed_exactly(self):
        """A fleet group holds exactly one serial run_scenario per (scheme, seed)."""
        from repro.experiments import run_scenario
        from repro.workloads import fig13_car_following

        schemes, seeds = ("EDF", "HCPerf"), [0, 1]
        store = ResultStore(None)
        run_campaign(
            CampaignSpec(
                scenarios=["fig13"], schedulers=list(schemes), seeds=seeds,
                variants=[{"horizon": 5.0}],
            ),
            store=store,
            jobs=2,
        )
        (group,) = load_groups(store, schemes=schemes)
        serial = {
            s: [
                run_scenario(fig13_car_following(horizon=5.0), s, seed=seed).speed_error_rms()
                for seed in seeds
            ]
            for s in schemes
        }
        assert {s: c.values for s, c in group.cells.items()} == serial
        expected_wins = {s: 0 for s in schemes}
        for i in range(len(seeds)):
            expected_wins[min(schemes, key=lambda s: serial[s][i])] += 1
        assert group.wins() == expected_wins
