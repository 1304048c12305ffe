"""Unit tests for the lane-keeping plant."""

import hashlib
import math

import pytest

from repro.vehicle import LaneKeepingPlant, OvalTrack


def make_plant(**kwargs):
    return LaneKeepingPlant(
        track=OvalTrack(straight_length=60.0, radius=15.0),
        speed=5.0,
        **kwargs,
    )


def drive(plant, t_end, dt=0.01, command_period=0.05):
    t, next_cmd = 0.0, 0.0
    while t < t_end:
        t = round(t + dt, 10)
        plant.step(t)
        if t >= next_cmd:
            plant.apply_command(plant.compute_command(t, t))
            next_cmd += command_period
    return plant


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_plant(command_timeout=0.0)
        with pytest.raises(ValueError):
            make_plant(max_offset=0.0)
        with pytest.raises(ValueError):
            LaneKeepingPlant(speed=0.0)

    @pytest.mark.parametrize("field", ["speed", "command_timeout", "max_offset", "initial_offset"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_inputs_rejected(self, field, value):
        # NaN compares false with everything, so a bare "<= 0" check let it in.
        with pytest.raises(ValueError, match=field):
            LaneKeepingPlant(**{field: value})

    def test_initial_offset_applied(self):
        p = make_plant(initial_offset=0.5)
        assert p.tracking_error() == pytest.approx(0.5, abs=0.02)

    def test_time_monotone(self):
        p = make_plant()
        p.step(0.5)
        with pytest.raises(ValueError):
            p.step(0.1)


class TestClosedLoop:
    def test_straight_driving_stays_centred(self):
        p = drive(make_plant(), 5.0)  # still on the first straight
        assert abs(p.tracking_error()) < 0.01

    def test_recovers_from_initial_offset(self):
        p = drive(make_plant(initial_offset=0.8), 8.0)
        assert abs(p.tracking_error()) < 0.05

    def test_survives_the_turns(self):
        # One full lap with frequent fresh commands.
        p = make_plant()
        lap_time = p.track.length / p.speed
        drive(p, lap_time)
        assert not p.departed
        assert max(abs(o) for _, o in p.offset_series()) < 1.0

    def test_turn_offsets_nonzero_straights_zero(self):
        p = make_plant()
        lap_time = p.track.length / p.speed
        drive(p, lap_time)
        turn = p.turn_offsets()
        assert turn, "the lap crosses the turns"
        from repro.analysis.stats import rms

        # Offsets are larger on the turns than on the first straight.
        first_straight = [o for s, o in p.offset_by_arc_series() if s < 50.0]
        assert rms(turn) > rms(first_straight)


class TestFailureModes:
    def test_departure_flag_and_saturation(self):
        # No commands at all: the car goes straight and leaves at the turn.
        p = make_plant(command_timeout=1e9, max_offset=3.0)
        t = 0.0
        while t < 30.0:
            t = round(t + 0.01, 10)
            p.step(t)
        assert p.departed
        assert p.departure_time is not None
        assert max(abs(o) for _, o in p.offset_series()) <= 3.0 + 1e-9

    def test_watchdog_recentres_steering(self):
        from repro.vehicle.lateral import SteeringCommand

        p = make_plant(command_timeout=0.2)
        p.apply_command(SteeringCommand(steering=0.5, computed_at=0.0, sense_time=0.0))
        for k in range(1, 101):
            p.step(k * 0.01)
        # After the watchdog fires, the actual wheel returns to ~0.
        assert abs(p.state.steering) < 0.05


class TestSnapshots:
    def test_snapshot_at_past(self):
        p = drive(make_plant(initial_offset=0.5), 3.0)
        old = p.snapshot_at(0.0)
        assert old.lateral_offset == pytest.approx(0.5, abs=0.05)

    def test_stale_command_differs_from_fresh(self):
        p = drive(make_plant(initial_offset=0.5), 3.0)
        fresh = p.compute_command(3.0, 3.0)
        stale = p.compute_command(0.0, 3.0)
        assert fresh.steering != pytest.approx(stale.steering)

    def test_series_accessors(self):
        p = drive(make_plant(), 2.0)
        assert len(p.offset_series()) == len(p.times())
        assert len(p.offset_by_arc_series()) == len(p.times())


class TestGolden:
    # sha256 of repr(offset_by_arc_series()) after one lap of the 60/15 track
    # from a 0.5 m initial offset, recorded before OvalTrack.project was
    # inlined (when it still scored each candidate through pose()).  Any
    # change here is a change of lane-keeping output; never regenerate it to
    # make a speed-up pass.
    LAP_SHA256 = "96ec332b8eebab7ce01f0d0920fd7488c40d80f001908417feabf0a1a3bb0f0c"

    def test_one_lap_is_byte_identical(self):
        p = make_plant(initial_offset=0.5)
        drive(p, p.track.length / p.speed)
        series = p.offset_by_arc_series()
        assert len(series) == 4286
        assert hashlib.sha256(repr(series).encode()).hexdigest() == self.LAP_SHA256
