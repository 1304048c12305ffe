"""Smoke + claim tests for every experiment module.

These run the experiments on reduced horizons where possible; the headline
reproduction claims (HCPerf wins, misses regulated to zero, collision in the
motivation) are asserted on horizons long enough for the effects to appear.
"""

import math

import pytest

from repro.experiments import (
    EXPERIMENTS,
    fig04_motivation,
    fig12_exectime,
    fig13_car_following,
    fig14_lane_keeping,
    fig15_hardware,
    fig17_responsiveness,
    fig18_ablation,
    overhead,
)


class TestRegistry:
    def test_all_eleven_registered(self):
        assert len(EXPERIMENTS) == 11
        for module in EXPERIMENTS.values():
            assert hasattr(module, "run") and hasattr(module, "render")

    def test_ids_match_modules(self):
        for exp_id, module in EXPERIMENTS.items():
            assert module.EXPERIMENT_ID == exp_id


class TestFig04:
    @pytest.fixture(scope="class")
    def result(self):
        return fig04_motivation.run(seed=1, horizon=30.0)

    def test_fixed_priority_collides(self, result):
        assert result.collided("Apollo")
        assert result.collision_time("Apollo") is not None

    def test_hcperf_avoids_collision(self, result):
        assert not result.collided("HCPerf")

    def test_miss_ratio_rises_after_braking(self, result):
        series = result.miss_series("Apollo")
        before = [m for t, m in series if t <= 5.0]
        after = [m for t, m in series if 8.0 <= t <= 20.0]
        assert max(before, default=0.0) <= 0.05
        assert max(after) > 0.1

    def test_render(self, result):
        out = fig04_motivation.render(result)
        assert "collision" in out and "Apollo" in out


class TestFig12:
    def test_stats_cover_all_tasks(self):
        result = fig12_exectime.run(seed=0, samples=50)
        assert len(result.stats) == 23
        for lo, mu, hi in result.stats.values():
            assert 0.0 <= lo <= mu <= hi

    def test_fusion_sweep_monotone(self):
        result = fig12_exectime.run(seed=0, samples=100)
        means = [c for _, c in result.fusion_vs_complexity]
        assert means == sorted(means)
        assert means[-1] > 2 * means[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            fig12_exectime.run(samples=0)

    def test_render(self):
        out = fig12_exectime.render(fig12_exectime.run(seed=0, samples=20))
        assert "sensor" in out.lower() and "obstacles" in out


class TestFig13:
    @pytest.fixture(scope="class")
    def result(self):
        # 40 s covers the onset of the elevated window and the adaptation.
        return fig13_car_following.run(seed=1, horizon=40.0)

    def test_hcperf_best_speed_rms(self, result):
        assert result.hcperf_wins()

    def test_hcperf_regulates_misses_to_zero(self, result):
        miss = dict(result.miss_series()["HCPerf"])
        late = [m for t, m in miss.items() if t > 15.0]
        assert sum(late) / len(late) < 0.01

    def test_baselines_miss_during_window(self, result):
        for scheme in ("HPF", "EDF", "EDF-VD", "Apollo"):
            window = [m for t, m in result.miss_series()[scheme] if 12.0 < t <= 40.0]
            assert sum(window) / len(window) > 0.01, scheme

    def test_distance_rms_ordering(self, result):
        dist = result.distance_rms()
        assert dist["HCPerf"] == min(dist.values())

    def test_render(self, result):
        out = fig13_car_following.render(result)
        assert "Table II" in out and "Table III" in out and "HCPerf" in out


class TestFig14:
    @pytest.fixture(scope="class")
    def result(self):
        return fig14_lane_keeping.run(seed=1, horizon=70.0)

    def test_hcperf_best_offset(self, result):
        assert result.hcperf_wins()

    def test_offsets_concentrated_on_turns(self, result):
        for scheme in ("HPF", "EDF", "EDF-VD", "HCPerf"):
            assert result.turn_offset_rms()[scheme] >= result.offset_rms()[scheme] * 0.9

    def test_apollo_worst(self, result):
        rms = result.offset_rms()
        assert rms["Apollo"] == max(rms.values())

    def test_render(self, result):
        out = fig14_lane_keeping.render(result)
        assert "Table IV" in out


class TestFig15:
    @pytest.fixture(scope="class")
    def result(self):
        return fig15_hardware.run(seed=1, horizon=20.0)

    def test_hcperf_best(self, result):
        assert result.hcperf_wins()

    def test_hcperf_zero_misses_after_adjustment(self, result):
        series = result.miss_series()["HCPerf"]
        late = [m for t, m in series if t > 5.0]
        assert sum(late) / len(late) < 0.01

    def test_baselines_miss_throughout(self, result):
        for scheme in ("HPF", "EDF", "EDF-VD", "Apollo"):
            series = [m for _, m in result.miss_series()[scheme]]
            assert sum(series) / len(series) > 0.003, scheme

    def test_render(self, result):
        out = fig15_hardware.render(result)
        assert "Table V" in out and "Table VI" in out


class TestFig17:
    @pytest.fixture(scope="class")
    def result(self):
        return fig17_responsiveness.run(seed=1, horizon=40.0)

    def test_error_spikes_then_mitigated(self, result):
        assert result.phase("during").peak_error > result.phase("before").peak_error
        assert result.error_mitigated()

    def test_control_stays_responsive(self, result):
        assert result.responsive_during_jam()

    def test_gamma_rises_with_the_error(self, result):
        assert result.gamma_raised_during_jam()

    def test_throughput_sacrificed_during_jam(self, result):
        assert result.phase("during").throughput < result.phase("before").throughput

    def test_discomfort_recovers_after_jam(self, result):
        assert result.phase("after").discomfort < result.phase("during").discomfort

    def test_render(self, result):
        out = fig17_responsiveness.render(result)
        assert "jam" in out

    @pytest.mark.parametrize("horizon", [10.5, 39.9, math.nan])
    def test_horizon_short_of_the_last_phase_rejected(self, horizon):
        # A phase past the horizon used to read 0 ms response, 0 commands/s.
        with pytest.raises(ValueError, match="every phase"):
            fig17_responsiveness.run(seed=1, horizon=horizon)


class TestFig18:
    @pytest.fixture(scope="class")
    def result(self):
        return fig18_ablation.run(seed=1, horizon=40.0)

    def test_external_coordinator_regulates_misses(self, result):
        assert result.external_helps()
        assert result.steady_miss_ratio()["HCPerf (full)"] < 0.01

    def test_internal_only_keeps_low_persistent_misses(self, result):
        internal = result.steady_miss_ratio()["Internal only"]
        assert 0.0 < internal < 0.2

    def test_render(self, result):
        out = fig18_ablation.render(result)
        assert "External Coordinator" in out


class TestOverhead:
    def test_overhead_small(self):
        result = overhead.run(seed=0, queue_depth=24, iterations=50)
        # The paper reports < 5 ms per 1 s period; allow slack for slow CI.
        assert result.per_second_budget() < 0.050
        assert result.coordination_step > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            overhead.run(queue_depth=0)
        with pytest.raises(ValueError):
            overhead.OverheadResult(
                queue_depth=1, iterations=1, mfc_step=0.0,
                gamma_resolve=0.0, rate_adapter_step=0.0,
            ).per_second_budget(0.0)

    def test_render(self):
        out = overhead.render(overhead.run(seed=0, iterations=10))
        assert "5 ms" in out


class TestFig13Charts:
    def test_render_charts(self):
        result = fig13_car_following.run(seed=1, horizon=15.0)
        out = fig13_car_following.render_charts(result)
        assert "Fig. 13(a)" in out and "Fig. 13(b)" in out
        assert "lead" in out and "HCPerf" in out


class TestResilience:
    def test_smoke_and_claims(self):
        from repro.experiments import resilience

        result = resilience.run(seed=0, horizon=40.0)
        assert set(result.reports) == {"EDF", "HCPerf"}
        out = resilience.render(result)
        assert "Recovery claims" in out
        assert "Recovery curves" in out

    def test_full_horizon_claims_hold(self):
        # The acceptance claims of the resilience story, at the canonical
        # suite's intended 90 s horizon.
        from repro.experiments import resilience

        result = resilience.run(seed=0)
        assert result.hcperf_no_slower()
        assert result.hcperf_degrades_less()
