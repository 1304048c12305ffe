"""Each invariant of the catalog fires on a targeted bad recording."""

from repro.obs.events import (
    DropEvent,
    GammaEvent,
    RateEvent,
    ReleaseEvent,
    SpanEvent,
    UnresolvedEvent,
    WindowEvent,
)
from repro.obs.invariants import INVARIANTS, check_recording
from repro.obs.recorder import Recorder


def codes(violations):
    return sorted({v.code for v in violations})


def span(task="a", cycle=0, proc=0, start=0.0, finish=0.01, release=0.0,
         deadline=0.1, outcome="complete"):
    return SpanEvent(t=finish, task=task, cycle=cycle, processor=proc,
                     start=start, finish=finish, release=release,
                     deadline=deadline, outcome=outcome)


def recording(*events):
    rec = Recorder()
    for e in events:
        rec.emit(e)
    return rec


class TestCatalog:
    def test_catalog_is_complete(self):
        assert sorted(INVARIANTS) == [f"OBS00{i}" for i in range(1, 10)]
        for code, (description, fn) in INVARIANTS.items():
            assert description and callable(fn)

    def test_empty_recording_is_clean(self):
        assert check_recording(Recorder()) == []


class TestOBS001Overlap:
    def test_overlap_on_one_processor_fires(self):
        rec = recording(
            span(cycle=0, start=0.0, finish=0.02),
            span(cycle=1, start=0.01, finish=0.03, release=0.01),
        )
        assert "OBS001" in codes(INVARIANTS["OBS001"][1](rec))

    def test_same_window_on_two_processors_is_fine(self):
        rec = recording(
            span(cycle=0, proc=0, start=0.0, finish=0.02),
            span(cycle=1, proc=1, start=0.0, finish=0.02, release=0.0),
        )
        assert INVARIANTS["OBS001"][1](rec) == []

    def test_touching_intervals_are_fine(self):
        rec = recording(
            span(cycle=0, start=0.0, finish=0.02),
            span(cycle=1, start=0.02, finish=0.03, release=0.01),
        )
        assert INVARIANTS["OBS001"][1](rec) == []


class TestOBS002TimeOrder:
    def test_dispatch_before_release_fires(self):
        rec = recording(span(start=0.0, release=0.5, finish=0.6, deadline=1.0))
        assert "OBS002" in codes(INVARIANTS["OBS002"][1](rec))

    def test_backwards_stream_fires(self):
        rec = recording(
            GammaEvent(t=1.0), GammaEvent(t=0.5)
        )
        assert "OBS002" in codes(INVARIANTS["OBS002"][1](rec))


class TestOBS003Bijection:
    def test_unresolved_release_fires(self):
        rec = recording(ReleaseEvent(t=0.0, task="a", cycle=0, deadline=0.1))
        out = INVARIANTS["OBS003"][1](rec)
        assert "OBS003" in codes(out) and "nothing" in str(out[0])

    def test_double_resolution_fires(self):
        rec = recording(
            ReleaseEvent(t=0.0, task="a", cycle=0, deadline=0.1),
            span(outcome="complete"),
            DropEvent(t=0.05, task="a", cycle=0, reason="expired"),
        )
        assert "OBS003" in codes(INVARIANTS["OBS003"][1](rec))

    def test_resolution_without_release_fires(self):
        rec = recording(span())
        assert "OBS003" in codes(INVARIANTS["OBS003"][1](rec))

    def test_each_resolution_kind_accepted(self):
        rec = recording(
            ReleaseEvent(t=0.0, task="a", cycle=0, deadline=0.1),
            span(cycle=0),
            ReleaseEvent(t=0.0, task="a", cycle=1, deadline=0.1),
            DropEvent(t=0.05, task="a", cycle=1, reason="evicted"),
            ReleaseEvent(t=0.0, task="a", cycle=2, deadline=0.1),
            UnresolvedEvent(t=1.0, task="a", cycle=2, state="ready"),
        )
        assert INVARIANTS["OBS003"][1](rec) == []


class TestOBS004OutcomeDeadline:
    def test_late_complete_fires(self):
        rec = recording(span(finish=0.2, deadline=0.1, outcome="complete"))
        assert "OBS004" in codes(INVARIANTS["OBS004"][1](rec))

    def test_early_miss_fires(self):
        rec = recording(span(finish=0.05, deadline=0.1, outcome="miss"))
        assert "OBS004" in codes(INVARIANTS["OBS004"][1](rec))

    def test_kill_is_exempt(self):
        rec = recording(span(finish=0.05, deadline=0.1, outcome="kill"))
        assert INVARIANTS["OBS004"][1](rec) == []


class TestOBS005GammaBounds:
    def test_negative_gamma_fires(self):
        rec = recording(GammaEvent(t=0.0, gamma=-0.01, gamma_max=0.02))
        assert "OBS005" in codes(INVARIANTS["OBS005"][1](rec))

    def test_gamma_above_gamma_max_fires(self):
        rec = recording(GammaEvent(t=0.0, gamma=0.03, gamma_max=0.02))
        assert "OBS005" in codes(INVARIANTS["OBS005"][1](rec))

    def test_meta_cap_enforced(self):
        rec = recording(GammaEvent(t=0.0, gamma=0.05, gamma_max=0.06))
        rec.meta["gamma_cap"] = 0.02
        assert "OBS005" in codes(INVARIANTS["OBS005"][1](rec))


class TestOBS006OverloadFlags:
    def test_flag_without_infeasibility_fires(self):
        rec = recording(GammaEvent(t=0.0, gamma=0.0, gamma_max=0.02, overloaded=True))
        assert "OBS006" in codes(INVARIANTS["OBS006"][1](rec))

    def test_overloaded_with_nonzero_gamma_fires(self):
        rec = recording(GammaEvent(t=0.0, gamma=0.01, gamma_max=None, overloaded=True))
        assert "OBS006" in codes(INVARIANTS["OBS006"][1](rec))

    def test_proper_overload_is_clean(self):
        rec = recording(GammaEvent(t=0.0, gamma=0.0, gamma_max=None, overloaded=True))
        assert INVARIANTS["OBS006"][1](rec) == []


class TestOBS007WindowTiling:
    def test_gap_between_windows_fires(self):
        rec = recording(
            WindowEvent(t=0.5, t_start=0.0),
            WindowEvent(t=1.5, t_start=1.0),  # gap [0.5, 1.0)
        )
        assert "OBS007" in codes(INVARIANTS["OBS007"][1](rec))

    def test_backwards_window_fires(self):
        rec = recording(WindowEvent(t=0.2, t_start=0.5))
        assert "OBS007" in codes(INVARIANTS["OBS007"][1](rec))

    def test_tiling_windows_clean(self):
        rec = recording(
            WindowEvent(t=0.5, t_start=0.0), WindowEvent(t=1.0, t_start=0.5)
        )
        assert INVARIANTS["OBS007"][1](rec) == []


class TestOBS008WindowCounts:
    def test_counter_mismatch_fires(self):
        rec = recording(
            ReleaseEvent(t=0.0, task="a", cycle=0, deadline=0.1),
            span(finish=0.01),
            WindowEvent(t=0.5, t_start=0.0, completed=5, missed=0),
        )
        assert "OBS008" in codes(INVARIANTS["OBS008"][1](rec))

    def test_boundary_event_gets_slack(self):
        # A span finishing exactly at the final window close may be counted
        # on either side of the boundary (heap tie-break) — both tallies are
        # accepted.
        for counted in (0, 1):
            rec = recording(
                ReleaseEvent(t=0.0, task="a", cycle=0, deadline=1.0),
                span(finish=0.5, deadline=1.0),
                WindowEvent(t=0.5, t_start=0.0, completed=counted, missed=0),
            )
            assert INVARIANTS["OBS008"][1](rec) == []

    def test_post_window_events_ignored(self):
        rec = recording(
            ReleaseEvent(t=0.0, task="a", cycle=0, deadline=1.0),
            WindowEvent(t=0.5, t_start=0.0, completed=0, missed=0),
            span(start=0.6, finish=0.7, deadline=1.0),
        )
        assert INVARIANTS["OBS008"][1](rec) == []


class TestOBS009RateRanges:
    def _meta(self, rec):
        rec.meta["tasks"] = [
            {"name": "src", "rate": 20.0, "rate_range": [10.0, 50.0]},
            {"name": "fixed", "rate": 5.0, "rate_range": None},
        ]

    def test_out_of_range_fires(self):
        rec = recording(RateEvent(t=0.5, task="src", rate=60.0))
        self._meta(rec)
        assert "OBS009" in codes(INVARIANTS["OBS009"][1](rec))

    def test_unknown_task_fires(self):
        rec = recording(RateEvent(t=0.5, task="ghost", rate=10.0))
        self._meta(rec)
        assert "OBS009" in codes(INVARIANTS["OBS009"][1](rec))

    def test_in_range_and_rangeless_clean(self):
        rec = recording(
            RateEvent(t=0.5, task="src", rate=50.0),
            RateEvent(t=0.5, task="fixed", rate=99.0),
        )
        self._meta(rec)
        assert INVARIANTS["OBS009"][1](rec) == []


def test_check_recording_aggregates_all_codes():
    rec = recording(
        span(start=0.0, release=0.5, finish=0.6, deadline=0.1, outcome="complete"),
        GammaEvent(t=0.7, gamma=-1.0, gamma_max=None, overloaded=False),
    )
    found = codes(check_recording(rec))
    # one bad span + one bad gamma event trips several families at once
    assert {"OBS002", "OBS003", "OBS004", "OBS005", "OBS006"} <= set(found)
