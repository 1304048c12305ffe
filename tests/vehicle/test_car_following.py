"""Unit tests for the car-following plant."""

import pytest

from repro.vehicle import (
    ACCController,
    CarFollowingPlant,
    ConstantSpeed,
    GaussianNoise,
    LongitudinalDynamics,
    PiecewiseLinearSpeed,
    SineSpeed,
)


def make_plant(profile=None, **kwargs):
    return CarFollowingPlant(
        lead_profile=profile or ConstantSpeed(10.0),
        controller=ACCController(),
        dynamics=LongitudinalDynamics(),
        initial_gap=kwargs.pop("initial_gap", 30.0),
        **kwargs,
    )


def drive(plant, t_end, dt=0.01, command_period=0.1):
    """Step the plant while closing the loop at a fixed command rate."""
    t, next_cmd = 0.0, 0.0
    while t < t_end:
        t = round(t + dt, 10)
        plant.step(t)
        if t >= next_cmd:
            plant.apply_command(plant.compute_command(t, t))
            next_cmd += command_period
    return plant


class TestConstruction:
    def test_initial_state(self):
        p = make_plant()
        assert p.gap == pytest.approx(30.0)
        assert p.follower.speed == pytest.approx(10.0)  # starts at lead speed
        assert not p.collided

    def test_invalid_gap(self):
        with pytest.raises(ValueError):
            make_plant(initial_gap=0.0)

    def test_invalid_timeout(self):
        with pytest.raises(ValueError):
            make_plant(command_timeout=0.0)


class TestStepping:
    def test_time_must_be_monotone(self):
        p = make_plant()
        p.step(1.0)
        with pytest.raises(ValueError, match="backwards"):
            p.step(0.5)

    def test_same_time_is_noop(self):
        p = make_plant()
        p.step(1.0)
        n = len(p.times())
        p.step(1.0)
        assert len(p.times()) == n

    def test_lead_position_integrates_profile(self):
        p = make_plant(ConstantSpeed(10.0))
        drive(p, 1.0)
        assert p.lead_position == pytest.approx(30.0 + 10.0, rel=1e-6)

    def test_gap_constant_at_equal_speeds_without_commands(self):
        p = make_plant(ConstantSpeed(10.0))
        for k in range(1, 101):
            p.step(k * 0.01)  # no commands; both at 10 m/s
        assert p.gap == pytest.approx(30.0, abs=1e-6)


class TestClosedLoop:
    def test_tracks_constant_lead(self):
        p = drive(make_plant(ConstantSpeed(12.0)), 30.0)
        assert abs(p.tracking_error()) < 0.05
        assert p.gap == pytest.approx(p.controller.desired_gap(12.0), abs=0.5)

    def test_tracks_sine_lead(self):
        p = drive(make_plant(SineSpeed(lo=10.0, hi=14.0, period=7.0),
                             initial_gap=25.0), 20.0)
        assert abs(p.tracking_error()) < 2.0
        assert not p.collided

    def test_collision_on_stopped_lead_without_commands(self):
        profile = PiecewiseLinearSpeed([(0.0, 10.0), (1.0, 10.0), (3.0, 0.0)])
        p = CarFollowingPlant(
            lead_profile=profile,
            initial_gap=10.0,
            command_timeout=100.0,  # disable the watchdog
        )
        t = 0.0
        while t < 10.0 and not p.collided:
            t += 0.01
            p.step(t)
        assert p.collided
        assert p.collision_time is not None
        assert min(g for _, g in p.gap_series()) <= 0.0

    def test_watchdog_coasts_without_commands(self):
        p = make_plant(ConstantSpeed(10.0), command_timeout=0.3)
        # Issue one hard-acceleration command, then go silent.
        from repro.vehicle.longitudinal import ACCCommand

        p.apply_command(ACCCommand(accel=3.0, computed_at=0.0, sense_time=0.0))
        drive_speeds = []
        for k in range(1, 301):
            p.step(k * 0.01)
            drive_speeds.append(p.follower.speed)
        # After the timeout the acceleration freezes out (coast).
        assert p.follower.accel == pytest.approx(0.0)
        assert p.follower.speed < 10.0 + 3.0 * 0.5  # bounded runaway


class TestSnapshots:
    def test_snapshot_at_returns_past_state(self):
        p = make_plant(PiecewiseLinearSpeed([(0.0, 10.0), (1.0, 20.0)]))
        drive(p, 1.0)
        old = p.snapshot_at(0.0)
        recent = p.snapshot_at(1.0)
        assert old.v_lead == pytest.approx(10.0)
        assert recent.v_lead == pytest.approx(20.0, abs=0.2)

    def test_snapshot_before_history_clamps_to_first(self):
        p = make_plant()
        snap = p.snapshot_at(-5.0)
        assert snap.t == 0.0

    def test_stale_command_uses_old_lead_state(self):
        p = make_plant(PiecewiseLinearSpeed([(0.0, 10.0), (2.0, 20.0)]))
        drive(p, 2.0)
        fresh = p.compute_command(sense_time=2.0, now=2.0)
        stale = p.compute_command(sense_time=0.0, now=2.0)
        # The stale command thinks the lead is still slow -> brakes harder.
        assert stale.accel < fresh.accel

    def test_noise_applied_to_perception_only(self):
        p = make_plant(speed_noise=GaussianNoise(sigma=0.5, seed=1))
        p.step(0.1)
        cmds = {p.compute_command(0.1, 0.1).accel for _ in range(5)}
        assert len(cmds) > 1  # noisy perception -> varying commands
        # Ground-truth series stay exact.
        assert all(v == pytest.approx(10.0) for _, v, _ in
                   [(s.t, s.v_lead, s.v_follow) for s in [p.snapshot_at(0.1)]])


class TestSeries:
    def test_series_lengths_match(self):
        p = drive(make_plant(), 1.0)
        n = len(p.times())
        assert len(p.speed_error_series()) == n
        assert len(p.distance_error_series()) == n
        assert len(p.gap_series()) == n
        assert len(p.accel_series()) == n
        assert len(p.speed_series()) == n

    def test_distance_error_is_mean_centred(self):
        p = drive(make_plant(SineSpeed(10.0, 14.0, 7.0)), 10.0)
        errors = [e for _, e in p.distance_error_series()]
        assert sum(errors) / len(errors) == pytest.approx(0.0, abs=1e-9)

    def test_mean_gap_positive(self):
        p = drive(make_plant(), 1.0)
        assert p.mean_gap() > 0.0

