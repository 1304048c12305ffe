"""Unit tests for the synthetic scene generator."""

import pytest

from repro.perception import Obstacle, SceneGenerator, ramp_timeline, spike_timeline


class TestObstacle:
    def test_advance(self):
        o = Obstacle(obstacle_id=0, x=0.0, y=0.0, vx=2.0, vy=-1.0)
        o.advance(0.5)
        assert o.position() == (1.0, -0.5)

    def test_speed(self):
        o = Obstacle(obstacle_id=0, x=0, y=0, vx=3.0, vy=4.0)
        assert o.speed() == pytest.approx(5.0)


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


class TestGenerator:
    def test_population_follows_timeline(self):
        gen = SceneGenerator(spike_timeline(5, 20, 1.0, 2.0), seed=0)
        assert gen.at(0.0).complexity == 5
        assert gen.at(1.0).complexity == 20
        assert gen.at(2.5).complexity == 5

    def test_complexity_shortcut(self):
        gen = SceneGenerator(lambda t: 7.4, seed=0)
        assert gen.complexity(0.0) == 7.0

    def test_obstacles_move_between_queries(self):
        gen = SceneGenerator(lambda t: 3, seed=1, speed_scale=2.0)
        before = [(o.x, o.y) for o in gen.at(0.0).obstacles]
        after = [(o.x, o.y) for o in gen.at(1.0).obstacles]
        assert before != after

    def test_ids_unique_across_respawns(self):
        gen = SceneGenerator(spike_timeline(2, 6, 1.0, 2.0), seed=2)
        ids = {o.obstacle_id for o in gen.at(0.0).obstacles}
        ids |= {o.obstacle_id for o in gen.at(1.0).obstacles}
        gen.at(2.5)
        ids |= {o.obstacle_id for o in gen.at(3.0).obstacles}
        # Every spawned obstacle got a fresh id.
        assert len(ids) >= 6

    def test_validation(self):
        with pytest.raises(ValueError):
            SceneGenerator(lambda t: 1, region=0.0)
        with pytest.raises(ValueError):
            SceneGenerator(lambda t: 1, speed_scale=-1.0)

    def test_spawn_within_region(self):
        gen = SceneGenerator(lambda t: 50, region=10.0, seed=3)
        for o in gen.at(0.0).obstacles:
            assert -10.0 <= o.x <= 10.0 and -10.0 <= o.y <= 10.0

    def test_deterministic_by_seed(self):
        a = SceneGenerator(lambda t: 5, seed=7).at(0.0)
        b = SceneGenerator(lambda t: 5, seed=7).at(0.0)
        assert [(o.x, o.y) for o in a.obstacles] == [(o.x, o.y) for o in b.obstacles]
