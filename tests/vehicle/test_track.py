"""Unit tests for the oval track geometry."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.vehicle import OvalTrack

TRACK = OvalTrack(straight_length=60.0, radius=15.0)


class TestGeometry:
    def test_validation(self):
        with pytest.raises(ValueError):
            OvalTrack(straight_length=0.0, radius=10.0)
        with pytest.raises(ValueError):
            OvalTrack(straight_length=10.0, radius=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_dimensions_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            OvalTrack(straight_length=value, radius=10.0)
        with pytest.raises(ValueError, match="finite"):
            OvalTrack(straight_length=10.0, radius=value)

    def test_length(self):
        assert TRACK.length == pytest.approx(2 * 60.0 + 2 * math.pi * 15.0)

    def test_wrap(self):
        assert TRACK.wrap(TRACK.length + 5.0) == pytest.approx(5.0)
        assert TRACK.wrap(-1.0) == pytest.approx(TRACK.length - 1.0)

    def test_pose_at_origin(self):
        x, y, h = TRACK.pose(0.0)
        assert (x, y, h) == (0.0, 0.0, 0.0)

    def test_pose_on_top_straight(self):
        s = 60.0 + math.pi * 15.0 + 30.0  # middle of the top straight
        x, y, h = TRACK.pose(s)
        assert y == pytest.approx(30.0)
        assert h == pytest.approx(math.pi)
        assert x == pytest.approx(30.0)

    def test_pose_continuity(self):
        # Walk the whole loop; consecutive poses must be ~ds apart.
        ds = 0.1
        prev = TRACK.pose(0.0)
        s = ds
        while s <= TRACK.length + ds:
            cur = TRACK.pose(s)
            dist = math.hypot(cur[0] - prev[0], cur[1] - prev[1])
            assert dist == pytest.approx(ds, rel=0.05)
            prev = cur
            s += ds

    def test_closes_the_loop(self):
        x0, y0, _ = TRACK.pose(0.0)
        x1, y1, _ = TRACK.pose(TRACK.length)
        assert math.hypot(x1 - x0, y1 - y0) < 1e-6


class TestCurvature:
    def test_zero_on_straights(self):
        assert TRACK.curvature(30.0) == 0.0
        top = 60.0 + math.pi * 15.0 + 30.0
        assert TRACK.curvature(top) == 0.0

    def test_one_over_r_on_turns(self):
        first_turn = 60.0 + 1.0
        assert TRACK.curvature(first_turn) == pytest.approx(1.0 / 15.0)

    def test_on_turn_flag(self):
        assert not TRACK.on_turn(30.0)
        assert TRACK.on_turn(60.0 + 1.0)


class TestProjection:
    @given(s=st.floats(min_value=0.0, max_value=2 * 60.0 + 2 * math.pi * 15.0))
    @settings(max_examples=60, deadline=None)
    def test_centerline_points_project_to_zero_offset(self, s):
        x, y, _ = TRACK.pose(s)
        s_hat, offset = TRACK.project(x, y, s_hint=s)
        assert abs(offset) < 0.02
        # Arc length recovered up to wrap-around.
        delta = min(abs(s_hat - TRACK.wrap(s)), TRACK.length - abs(s_hat - TRACK.wrap(s)))
        assert delta < 0.05

    def test_left_offset_is_positive(self):
        # On the bottom straight heading +x, "left" is +y.
        s_hat, offset = TRACK.project(30.0, 1.5, s_hint=30.0)
        assert offset == pytest.approx(1.5, abs=0.02)
        s_hat, offset = TRACK.project(30.0, -1.5, s_hint=30.0)
        assert offset == pytest.approx(-1.5, abs=0.02)

    def test_projection_with_coarse_hint(self):
        x, y, _ = TRACK.pose(45.0)
        s_hat, offset = TRACK.project(x, y, s_hint=40.0)  # 5 m stale hint
        assert s_hat == pytest.approx(45.0, abs=0.1)


def reference_project(track, x, y, s_hint):
    """The ``pose``-based coarse-to-fine search that ``project`` inlines."""

    def dist2(s):
        cx, cy, _ = track.pose(s)
        return (x - cx) ** 2 + (y - cy) ** 2

    best_s = track.wrap(s_hint)
    best_d2 = dist2(best_s)
    for step, half_span in ((1.0, 8.0), (0.1, 1.5), (0.01, 0.2)):
        center = best_s
        k = int(half_span / step)
        for i in range(-k, k + 1):
            s = track.wrap(center + i * step)
            d2 = dist2(s)
            if d2 < best_d2:
                best_d2 = d2
                best_s = s
    cx, cy, heading = track.pose(best_s)
    dx, dy = x - cx, y - cy
    return best_s, -math.sin(heading) * dx + math.cos(heading) * dy


# The default track, the lane-keeping scenario's track, and a tiny one whose
# ±8 m search window wraps past s = 0 and spans all four segments.
TRACKS = [OvalTrack(), TRACK, OvalTrack(straight_length=3.0, radius=0.7)]


def off_line_point(track, s, e):
    """The point ``e`` metres left of the centerline at arc length ``s``."""
    cx, cy, h = track.pose(s)
    return cx - e * math.sin(h), cy + e * math.cos(h)


class TestProjectionIsBitExact:
    @given(
        track=st.sampled_from(TRACKS),
        frac=st.floats(min_value=0.0, max_value=1.0),
        e=st.floats(min_value=-12.0, max_value=12.0),
        hint_error=st.floats(min_value=-12.0, max_value=12.0),
        laps=st.integers(min_value=-2, max_value=2),
    )
    @settings(max_examples=600, deadline=None)
    # -1e-300 % length rounds up to length itself, which pose() wraps again.
    @example(track=TRACK, frac=0.0, e=0.5, hint_error=-1e-300, laps=0)
    @example(track=TRACKS[2], frac=0.0, e=0.0, hint_error=0.0, laps=-1)
    # The stage-1 window [center - 8, center + 8] just fits above s = 0, just
    # wraps past it, and ends exactly at the loop length.
    @example(track=TRACK, frac=0.0, e=0.5, hint_error=8.0, laps=0)
    @example(track=TRACK, frac=0.0, e=0.5, hint_error=7.999, laps=0)
    @example(track=TRACK, frac=1.0, e=0.5, hint_error=-8.0, laps=1)
    # The foot point on the edge of the stage-1 window, and just beyond it.
    @example(track=TRACK, frac=0.25, e=1.0, hint_error=8.0, laps=0)
    @example(track=TRACK, frac=0.25, e=1.0, hint_error=-8.0, laps=0)
    @example(track=TRACK, frac=0.25, e=1.0, hint_error=8.001, laps=0)
    # Offset plus step at half the radius for steps 1, 0.1 and 0.01 (R = 15
    # and 20), and just past it; the tiny track's stage 2 is never monotone.
    @example(track=TRACK, frac=0.1, e=6.5, hint_error=0.3, laps=0)
    @example(track=TRACK, frac=0.1, e=-6.5000001, hint_error=0.3, laps=0)
    @example(track=TRACK, frac=0.1, e=7.4, hint_error=0.3, laps=0)
    @example(track=TRACK, frac=0.1, e=7.49, hint_error=0.3, laps=0)
    @example(track=TRACKS[0], frac=0.3, e=-9.0, hint_error=0.3, laps=0)
    @example(track=TRACKS[2], frac=0.5, e=0.34, hint_error=0.05, laps=0)
    # A departed car, inside and outside a turn.
    @example(track=TRACK, frac=0.4, e=12.0, hint_error=0.0, laps=0)
    @example(track=TRACK, frac=0.4, e=-12.0, hint_error=3.0, laps=0)
    def test_matches_pose_based_search(self, track, frac, e, hint_error, laps):
        s = frac * track.length
        x, y = off_line_point(track, s, e)
        s_hint = s + hint_error + laps * track.length
        assert track.project(x, y, s_hint) == reference_project(track, x, y, s_hint)

    def test_first_of_two_tied_candidates_wins(self):
        # x lies exactly halfway between the finest-grid candidates 30.01 and
        # 30.02 on the bottom straight, so both score the same d2.
        lo, hi = 30.0 + 1 * 0.01, 30.0 + 2 * 0.01
        x = (lo + hi) / 2
        assert x - lo == hi - x
        assert TRACK.project(x, 1.0, 30.0) == reference_project(TRACK, x, 1.0, 30.0)
        assert TRACK.project(x, 1.0, 30.0)[0] == lo


STAGES = ((1.0, 8), (0.1, 15), (0.01, 20))


class TestCandidatePruningIsSound:
    """Every candidate ``_kept`` drops scores strictly worse than one it keeps.

    Checked on the float d2 of :meth:`OvalTrack.pose`, the scores the search
    compares, without running the search: the foot point comes from
    :func:`analytic_projection` and the window centre from a random hint.
    """

    @given(
        track=st.sampled_from(TRACKS),
        frac=st.floats(min_value=0.0, max_value=1.0),
        junction=st.sampled_from([None, 0, 1, 2, 3]),
        near=st.floats(min_value=-1.0, max_value=1.0),
        e=st.floats(min_value=-12.0, max_value=12.0),
        stage=st.sampled_from(STAGES),
        shift=st.floats(min_value=-1.5, max_value=1.5),
    )
    @settings(max_examples=600, deadline=None)
    # 0.06 m into the top straight and 3 m inside the loop: the candidate
    # 0.52 m back on the turn scores lower than the one 0.48 m ahead.
    @example(
        track=TRACK, frac=0.0, junction=2, near=0.06, e=3.0, stage=STAGES[0], shift=-0.19
    )
    def test_dropped_candidates_cannot_win(self, track, frac, junction, near, e, stage, shift):
        L, R, length = track.straight_length, track.radius, track.length
        step, k = stage
        s = frac * length
        if junction is not None:  # where a straight meets a turn, D is lopsided
            s = ((0.0, L, L + math.pi * R, 2 * L + math.pi * R)[junction] + near * step) % length
        x, y = off_line_point(track, s, e)
        s_star, e_star = analytic_projection(track, x, y)
        center = (s + shift * k * step) % length  # a hint up to 1.5 windows off
        kept = track._kept(s_star, abs(e_star), center, step, k, length)

        assert list(kept) == sorted(set(kept)) and set(kept) <= set(range(-k, k + 1))
        d2 = {}
        for i in range(-k, k + 1):
            cx, cy, _ = track.pose((center + i * step) % length)
            d2[i] = (x - cx) ** 2 + (y - cy) ** 2
        best = min((d2[i] for i in kept), default=math.inf)
        assert all(d2[i] > best for i in d2 if i not in kept)


def analytic_projection(track, x, y):
    """Closed-form ``(s, offset)`` of a point within reach of the centerline.

    Between the turn centres the foot point lies on a straight (offset ``y``
    on the bottom one, ``2R - y`` on the top one); beyond them it lies on a
    turn, at offset ``R - |p - c|``.
    """
    L, R = track.straight_length, track.radius
    if 0.0 <= x <= L:
        if y < R:
            return x, y
        return L + math.pi * R + (L - x), 2.0 * R - y
    if x > L:  # right turn, centre (L, R), pose = c + R(sin t, -cos t)
        d = math.hypot(x - L, y - R)
        return L + R * math.atan2(x - L, R - y), R - d
    # left turn, centre (0, R), pose = c + R(-sin t, cos t)
    d = math.hypot(x, y - R)
    return 2.0 * L + math.pi * R + R * math.atan2(-x, y - R), R - d


class TestProjectionMatchesClosedForm:
    # Tolerances, derived rather than fitted.  With h = 0.01 the finest grid
    # step, e the true offset and D = s - s* the arc length from the foot
    # point s*, the squared distance d2(s) exceeds e**2 by D**2 on a straight
    # and by 2R(R -/+ |e|)(1 - cos(D/R)) on a turn, so by between
    # (1 - |e|/R) D**2 and (1 + |e|/R) D**2.  Some grid point lies within h/2
    # of s*, hence the winner has |D| <= (h/2) sqrt((1 + |e|/R) / (1 - |e|/R)).
    # The offset is read along the normal at the winner, turned by at most
    # |D|/R from the normal at s*, which errs by at most
    # |D| sin(|D|/R) + (R + |e|)(1 - cos(|D|/R)) <= D**2 (1 + |e|/R) / R.
    # FLOAT covers rounding in coordinates of up to ~250 m.
    H = 0.01
    FLOAT = 1e-9

    @given(
        track=st.sampled_from(TRACKS[:2]),
        frac=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        e=st.floats(min_value=-3.0, max_value=3.0),
        hint_error=st.floats(min_value=-6.0, max_value=6.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_offset_and_arc_length(self, track, frac, e, hint_error):
        R = track.radius
        x, y = off_line_point(track, frac * track.length, e)
        s_star, e_star = analytic_projection(track, x, y)
        s_hat, offset = track.project(x, y, frac * track.length + hint_error)

        ratio = abs(e_star) / R
        d_max = self.H / 2 * math.sqrt((1 + ratio) / (1 - ratio))
        gap = abs(s_hat - s_star) % track.length
        assert min(gap, track.length - gap) <= d_max + self.FLOAT
        assert abs(offset - e_star) <= d_max**2 * (1 + ratio) / R + self.FLOAT
