"""Tests for the multi-seed robustness harness."""

import pytest

from repro.experiments import run_scenario
from repro.experiments.multi_seed import (
    MetricSummary,
    MultiSeedResult,
    render,
    run_multi_seed,
)
from repro.workloads import fig13_car_following


def serial_reference(schemes, seeds):
    """Independent in-process reference: one run_scenario per (scheme, seed)."""
    values = {
        s: [
            run_scenario(fig13_car_following(horizon=5.0), s, seed=seed).speed_error_rms()
            for seed in seeds
        ]
        for s in schemes
    }
    wins = {s: 0 for s in schemes}
    for idx in range(len(seeds)):
        wins[min(schemes, key=lambda s: values[s][idx])] += 1
    return MultiSeedResult(
        metric_name="speed_error_rms",
        seeds=list(seeds),
        summaries={s: MetricSummary(scheme=s, values=v) for s, v in values.items()},
        wins=wins,
    )


class TestMetricSummary:
    def test_statistics(self):
        s = MetricSummary(scheme="X", values=[1.0, 2.0, 3.0])
        assert s.mean == 2.0
        assert s.std == pytest.approx(1.0)
        assert s.min == 1.0 and s.max == 3.0

    def test_single_value_std_zero(self):
        assert MetricSummary(scheme="X", values=[5.0]).std == 0.0


class TestRunMultiSeed:
    @pytest.fixture(scope="class")
    def result(self):
        # Short horizon, 3 seeds, 2 schemes: fast but meaningful.
        return run_multi_seed(
            "fig13",
            metric="speed_error_rms",
            metric_name="speed RMS",
            seeds=range(3),
            schemes=("EDF", "HCPerf"),
            overrides={"horizon": 20.0},
        )

    def test_all_schemes_summarized(self, result):
        assert set(result.summaries) == {"EDF", "HCPerf"}
        assert all(len(s.values) == 3 for s in result.summaries.values())

    def test_wins_sum_to_seed_count(self, result):
        assert sum(result.wins.values()) == 3

    def test_win_ratio(self, result):
        total = sum(result.win_ratio(s) for s in result.summaries)
        assert total == pytest.approx(1.0)

    def test_best_scheme(self, result):
        best = result.best_scheme_by_mean()
        assert best in ("EDF", "HCPerf")

    def test_render(self, result):
        out = render(result)
        assert "speed RMS" in out and "wins" in out

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            run_multi_seed("fig13", metric="speed_error_rms", seeds=[])


class TestFleetBackend:
    def test_fleet_form_matches_legacy_serial(self):
        """The fleet-backed harness == one serial run_scenario per pair."""
        fleet = run_multi_seed(
            "fig13",
            metric="speed_error_rms",
            seeds=range(2),
            schemes=("EDF", "HCPerf"),
            overrides={"horizon": 5.0},
            jobs=2,
        )
        assert render(fleet) == render(serial_reference(("EDF", "HCPerf"), [0, 1]))

    def test_fleet_form_persists_and_resumes(self, tmp_path):
        store = tmp_path / "ms.jsonl"
        kwargs = dict(
            metric="speed_error_rms",
            seeds=range(2),
            schemes=("EDF",),
            overrides={"horizon": 5.0},
            store=store,
        )
        first = run_multi_seed("fig13", **kwargs)
        mtime = store.stat().st_mtime_ns
        second = run_multi_seed("fig13", **kwargs)  # all jobs resumed
        assert render(first) == render(second)
        assert store.stat().st_mtime_ns == mtime  # nothing recomputed
