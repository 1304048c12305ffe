"""Unit tests for scenario factories and their scene-complexity timelines."""

import math

import pytest

from repro.vehicle import CarFollowingPlant, LaneKeepingPlant
from repro.workloads import (
    SCENARIOS,
    Scenario,
    fig13_car_following,
    hardware_car_following,
    lane_keeping_loop,
    motivation_red_light,
    ramp_timeline,
    spike_timeline,
    traffic_jam_responsiveness,
)


ALL_FACTORIES = [
    fig13_car_following,
    motivation_red_light,
    hardware_car_following,
    traffic_jam_responsiveness,
    lane_keeping_loop,
]


class TestRegistry:
    def test_registry_complete(self):
        assert set(SCENARIOS) == {
            "fig13", "motivation", "hardware", "traffic_jam", "lane_keeping",
        }

    def test_registry_factories_work(self):
        for factory in SCENARIOS.values():
            assert isinstance(factory(), Scenario)


class TestFactories:
    @pytest.mark.parametrize("factory", ALL_FACTORIES)
    def test_builds_valid_scenario(self, factory):
        sc = factory()
        assert sc.kind in ("car_following", "lane_keeping")
        graph = sc.graph_factory()
        graph.validate()
        plant = sc.plant_factory(0)
        if sc.kind == "car_following":
            assert isinstance(plant, CarFollowingPlant)
        else:
            assert isinstance(plant, LaneKeepingPlant)
        assert sc.complexity(0.0) >= 0.0

    @pytest.mark.parametrize("factory", ALL_FACTORIES)
    def test_graphs_are_fresh_per_call(self, factory):
        sc = factory()
        assert sc.graph_factory() is not sc.graph_factory()

    def test_horizon_parameter(self):
        sc = fig13_car_following(horizon=12.5)
        assert sc.sim.horizon == 12.5

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            Scenario(
                name="bad", kind="flying", graph_factory=lambda: None,
                plant_factory=lambda s: None,
            )

    def test_invalid_dt_rejected(self):
        with pytest.raises(ValueError, match="plant_dt"):
            Scenario(
                name="bad", kind="car_following", graph_factory=lambda: None,
                plant_factory=lambda s: None, plant_dt=0.0,
            )


class TestScenarioDetails:
    def test_fig13_complexity_flat(self):
        sc = fig13_car_following()
        assert sc.complexity(50.0) == 0.0  # load comes from the step model

    def test_motivation_complexity_ramps(self):
        sc = motivation_red_light()
        assert sc.complexity(20.0) > sc.complexity(0.0)

    def test_traffic_jam_spike(self):
        sc = traffic_jam_responsiveness()
        assert sc.complexity(15.0) > sc.complexity(5.0)
        assert sc.complexity(25.0) == sc.complexity(5.0)

    def test_hardware_plant_is_noisy_scaled_car(self):
        plant = hardware_car_following().plant_factory(0)
        assert plant.speed_noise is not None
        assert plant.dynamics.actuator_lag > 0.0
        assert plant.gap < 5.0  # scaled-car distances

    def test_hardware_noise_varies_with_seed(self):
        p1 = hardware_car_following().plant_factory(1)
        p2 = hardware_car_following().plant_factory(2)
        p1.step(0.1)
        p2.step(0.1)
        c1 = p1.compute_command(0.1, 0.1)
        c2 = p2.compute_command(0.1, 0.1)
        assert c1.accel != c2.accel


RAMP = dict(n_base=8.0, n_peak=34.0, t_start=5.0, t_ramp=8.0)
SPIKE = dict(n_base=8.0, n_peak=26.0, t_on=10.0, t_off=20.0)
NON_FINITE = [math.nan, math.inf, -math.inf]


class TestTimelines:
    def test_ramp(self):
        fn = ramp_timeline(n_base=5, n_peak=25, t_start=10.0, t_ramp=10.0)
        assert fn(0.0) == 5
        assert fn(10.0) == 5
        assert fn(15.0) == pytest.approx(15.0)
        assert fn(20.0) == 25
        assert fn(99.0) == 25

    def test_ramp_validation(self):
        with pytest.raises(ValueError):
            ramp_timeline(5, 25, 0.0, 0.0)

    def test_spike(self):
        fn = spike_timeline(n_base=5, n_peak=30, t_on=10.0, t_off=20.0)
        assert fn(5.0) == 5
        assert fn(10.0) == 30
        assert fn(19.9) == 30
        assert fn(20.0) == 5

    def test_spike_validation(self):
        with pytest.raises(ValueError):
            spike_timeline(5, 30, 10.0, 5.0)

    # Unchecked, a NaN t_ramp makes the ramp a step at t_start (min(1.0, nan)
    # is 1.0), a NaN t_on keeps the spike off forever, and an infinite n_peak
    # is no obstacle count: every parameter must be finite.
    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("name", sorted(RAMP))
    def test_ramp_rejects_non_finite(self, name, bad):
        with pytest.raises(ValueError, match=name):
            ramp_timeline(**{**RAMP, name: bad})

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("name", sorted(SPIKE))
    def test_spike_rejects_non_finite(self, name, bad):
        with pytest.raises(ValueError, match=name):
            spike_timeline(**{**SPIKE, name: bad})
