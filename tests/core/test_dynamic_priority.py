"""Unit and property tests for the Dynamic Priority Scheduler core."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DynamicPriorityConfig, DynamicPriorityPolicy
from repro.core.dynamic_priority import _breakpoints, _eq11_holds
from repro.rt import ConstantExecTime, ExecTimeObserver, Job, TaskSpec


def job(name="t", priority=1, release=0.0, exec_time=0.01, deadline=0.1):
    spec = TaskSpec(
        name=name,
        priority=priority,
        relative_deadline=deadline,
        exec_model=ConstantExecTime(exec_time),
    )
    return Job(task=spec, release_time=release, exec_time=exec_time)


POLICY = DynamicPriorityPolicy()
EST = lambda name, c: c


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            DynamicPriorityConfig(gamma_cap=-1.0)
        with pytest.raises(ValueError):
            DynamicPriorityConfig(resolution=1)

    # A NaN cap used to run a whole HCPerf simulation with NaN keys.
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_gamma_cap_nan_or_infinite_rejected(self, value):
        with pytest.raises(ValueError, match="gamma_cap"):
            DynamicPriorityConfig(gamma_cap=value)

    @pytest.mark.parametrize("value", [64.0, 2.5, "64"])
    def test_resolution_must_be_an_int(self, value):
        with pytest.raises(ValueError, match="resolution"):
            DynamicPriorityConfig(resolution=value)

    def test_defaults_sane(self):
        cfg = DynamicPriorityConfig()
        assert cfg.gamma_cap > 0 and cfg.resolution >= 2


class TestPriorityArithmetic:
    def test_scheduling_slack(self):
        j = job(release=1.0, exec_time=0.03, deadline=0.1)
        # latest start = 1.0 + 0.1 - 0.03 = 1.07; at now = 1.0 slack = 0.07
        assert POLICY.scheduling_slack(j, 1.0, 0.03) == pytest.approx(0.07)

    def test_slack_negative_when_doomed(self):
        j = job(release=0.0, exec_time=0.05, deadline=0.1)
        assert POLICY.scheduling_slack(j, 0.2, 0.05) < 0

    def test_gamma_zero_is_pure_slack_order(self):
        urgent = job("urgent", priority=9, release=0.0, deadline=0.05, exec_time=0.02)
        relaxed = job("relaxed", priority=1, release=0.0, deadline=0.5, exec_time=0.01)
        p_urgent = POLICY.dynamic_priority(urgent, 0.0, 0.0, 0.02)
        p_relaxed = POLICY.dynamic_priority(relaxed, 0.0, 0.0, 0.01)
        assert p_urgent < p_relaxed  # smaller P dispatches first

    def test_large_gamma_is_priority_order(self):
        urgent = job("urgent", priority=9, release=0.0, deadline=0.05, exec_time=0.02)
        relaxed = job("relaxed", priority=1, release=0.0, deadline=0.5, exec_time=0.01)
        gamma = 10.0  # dwarfs the slack difference
        p_urgent = POLICY.dynamic_priority(urgent, gamma, 0.0, 0.02)
        p_relaxed = POLICY.dynamic_priority(relaxed, gamma, 0.0, 0.01)
        assert p_relaxed < p_urgent

    def test_eq10_formula(self):
        j = job(priority=4, release=0.0, exec_time=0.02, deadline=0.1)
        p = POLICY.dynamic_priority(j, gamma=0.01, now=0.0, exec_estimate=0.02)
        assert p == pytest.approx(0.01 * 4 + 0.08)


class TestFeasibility:
    def test_empty_queue_feasible(self):
        assert POLICY.is_feasible(0.0, [], 0.0, EST, 0.0, 1)

    def test_single_fitting_job_feasible(self):
        jobs = [job(exec_time=0.01, deadline=0.1)]
        assert POLICY.is_feasible(0.0, jobs, 0.0, EST, 0.0, 1)

    def test_impossible_job_infeasible(self):
        jobs = [job(exec_time=0.2, deadline=0.1)]
        assert not POLICY.is_feasible(0.0, jobs, 0.0, EST, 0.0, 1)

    def test_busy_processors_consume_budget(self):
        jobs = [job(exec_time=0.05, deadline=0.1)]
        assert POLICY.is_feasible(0.0, jobs, 0.0, EST, busy_remaining=0.0, n_processors=1)
        # 0.06 s of in-flight work pushes the start past the latest-start point.
        assert not POLICY.is_feasible(
            0.0, jobs, 0.0, EST, busy_remaining=0.06, n_processors=1
        )

    def test_higher_priority_workload_blocks(self):
        first = job("a", priority=1, exec_time=0.06, deadline=1.0)
        tight = job("b", priority=9, exec_time=0.05, deadline=0.1)
        jobs = [first, tight]
        # Huge gamma puts 'a' ahead of 'b'; its 0.06 s then breaks b's 0.1 s
        # deadline (0.06 + 0.05 > 0.1).
        assert not POLICY.is_feasible(10.0, jobs, 0.0, EST, 0.0, 1)
        # gamma = 0: slack ordering runs 'b' first; both fit.
        assert POLICY.is_feasible(0.0, jobs, 0.0, EST, 0.0, 1)

    def test_tied_jobs_count_queue_order_ahead(self):
        # Two identical jobs tie on P_i.  The dispatcher runs them one after
        # the other, so the second waits for the first: 0.06 + 0.06 > 0.1 on
        # one processor.  Two processors run them side by side.
        a = job("a", priority=1, exec_time=0.06, deadline=0.1)
        b = job("b", priority=1, exec_time=0.06, deadline=0.1)
        assert not POLICY.is_feasible(0.0, [a, b], 0.0, EST, 0.0, 1)
        assert POLICY.is_feasible(0.0, [a, b], 0.0, EST, 0.0, 2)

    def test_more_processors_help(self):
        jobs = [
            job("a", priority=1, exec_time=0.06, deadline=0.1),
            job("b", priority=9, exec_time=0.05, deadline=0.1),
        ]
        assert not POLICY.is_feasible(10.0, jobs, 0.0, EST, 0.0, 1)
        assert POLICY.is_feasible(10.0, jobs, 0.0, EST, 0.0, 2)


class TestGammaMax:
    def test_nan_execution_time_never_reaches_the_search(self):
        # Two 40 ms jobs due in 50 ms overload one unit.  A NaN c_i passes
        # every Eq. (11) comparison, so one queued NaN job used to make the
        # search return the cap; neither a job nor the observer takes one.
        jobs = [job("a", exec_time=0.04, deadline=0.05), job("b", exec_time=0.04, deadline=0.05)]
        assert POLICY.gamma_max(jobs, 0.0, EST, 0.0, 1) is None
        with pytest.raises(ValueError):
            Job(task=jobs[0].task, release_time=0.0, exec_time=math.nan)
        observer = ExecTimeObserver()
        with pytest.raises(ValueError):
            observer.observe("a", math.nan)
        assert POLICY.gamma_max(jobs, 0.0, observer.estimate, 0.0, 1) is None

    def test_empty_queue_returns_cap(self):
        policy = DynamicPriorityPolicy(DynamicPriorityConfig(gamma_cap=0.02))
        assert policy.gamma_max([], 0.0, EST, 0.0, 2) == pytest.approx(0.02)

    def test_overload_returns_none(self):
        jobs = [job(exec_time=0.2, deadline=0.1)]
        assert POLICY.gamma_max(jobs, 0.0, EST, 0.0, 1) is None

    def test_relaxed_queue_allows_cap(self):
        policy = DynamicPriorityPolicy(DynamicPriorityConfig(gamma_cap=0.02))
        jobs = [job(f"t{i}", priority=i + 1, exec_time=0.001, deadline=1.0) for i in range(4)]
        assert policy.gamma_max(jobs, 0.0, EST, 0.0, 2) == pytest.approx(0.02)

    def test_contended_queue_bounds_gamma(self):
        # 'heavy' (low priority) must run first or 'tight' dies; large gamma
        # would re-order them, so gamma_max must be small.
        policy = DynamicPriorityPolicy(DynamicPriorityConfig(gamma_cap=1.0, resolution=101))
        heavy = job("heavy", priority=9, exec_time=0.05, deadline=0.06)
        light = job("light", priority=1, exec_time=0.05, deadline=1.0)
        gmax = policy.gamma_max([heavy, light], 0.0, EST, 0.0, 1)
        assert gmax is not None
        # At the feasible gamma, heavy must still outrank light.
        p_heavy = policy.dynamic_priority(heavy, gmax, 0.0, 0.05)
        p_light = policy.dynamic_priority(light, gmax, 0.0, 0.05)
        assert p_heavy < p_light

    def test_one_estimate_per_job(self):
        # The contended queue walks many grid points, yet each job's
        # execution time is estimated once per search.
        calls = []

        def estimate(name, default):
            calls.append((name, default))
            return default

        policy = DynamicPriorityPolicy(DynamicPriorityConfig(gamma_cap=1.0, resolution=101))
        heavy = job("heavy", priority=9, exec_time=0.05, deadline=0.06)
        light = job("light", priority=1, exec_time=0.05, deadline=1.0)
        assert policy.gamma_max([heavy, light], 0.0, estimate, 0.0, 1) < 1.0
        assert calls == [("heavy", 0.05), ("light", 0.05)]


class TestClamp:
    def test_eq12_cases(self):
        assert DynamicPriorityPolicy.clamp_gamma(-1.0, 0.5) == 0.0
        assert DynamicPriorityPolicy.clamp_gamma(0.3, 0.5) == pytest.approx(0.3)
        assert DynamicPriorityPolicy.clamp_gamma(0.9, 0.5) == pytest.approx(0.5)

    def test_overload_forces_zero(self):
        assert DynamicPriorityPolicy.clamp_gamma(0.3, None) == 0.0

    @given(
        u=st.floats(min_value=-100.0, max_value=100.0),
        gmax=st.floats(min_value=0.0, max_value=50.0),
    )
    @settings(max_examples=100)
    def test_clamp_always_within_bounds(self, u, gmax):
        gamma = DynamicPriorityPolicy.clamp_gamma(u, gmax)
        assert 0.0 <= gamma <= gmax


class TestResolve:
    def test_resolve_feasible(self):
        jobs = [job(exec_time=0.001, deadline=1.0)]
        result = POLICY.resolve(0.005, jobs, 0.0, EST, 0.0, 2)
        assert result.feasible and not result.overloaded
        assert result.gamma == pytest.approx(0.005)

    def test_resolve_overloaded(self):
        jobs = [job(exec_time=0.2, deadline=0.1)]
        result = POLICY.resolve(0.005, jobs, 0.0, EST, 0.0, 1)
        assert result.overloaded and result.gamma == 0.0 and not result.feasible


def _grid_scan(policy, jobs, now, busy, n_p):
    """Brute force: the largest grid γ that ``is_feasible`` accepts."""
    cfg = policy.config
    if not jobs:
        return cfg.gamma_cap
    step = cfg.gamma_cap / (cfg.resolution - 1)
    accepted = [
        i * step
        for i in range(cfg.resolution)
        if policy.is_feasible(i * step, jobs, now, EST, busy, n_p)
    ]
    return accepted[-1] if accepted else None


def _assert_matches_scan(jobs, now, busy, n_p, **overrides):
    policy = DynamicPriorityPolicy(DynamicPriorityConfig(**overrides))
    result = policy.resolve(0.01, jobs, now, EST, busy, n_p)
    # Bitwise equality, not approx: both test the same grid points.
    assert result.gamma_max == _grid_scan(policy, jobs, now, busy, n_p)
    return result


class TestSearchModeAgreement:
    """The γ_max search against a brute-force scan of the whole grid."""

    def test_empty_queue(self):
        result = _assert_matches_scan([], 0.0, 0.0, 2)
        assert result.gamma_max == DynamicPriorityConfig().gamma_cap

    def test_exact_equal_priority_ties(self):
        # Identical triplets: P_i ties exactly at every γ, so each tied job
        # counts the ones queued before it.
        jobs = [job(f"t{i}", priority=2, exec_time=0.04, deadline=0.1) for i in range(3)]
        jobs += [job(f"u{i}", priority=5, exec_time=0.01, deadline=0.3) for i in range(2)]
        _assert_matches_scan(jobs, 0.0, 0.0, 1)

    def test_overloaded_queue(self):
        jobs = [job(f"t{i}", priority=i % 3, exec_time=0.2, deadline=0.1) for i in range(4)]
        result = _assert_matches_scan(jobs, 0.0, 0.0, 1)
        assert result.overloaded

    def test_grid_point_on_breakpoint(self):
        # Two jobs whose P_i crossing lands near a coarse grid point.
        a = job("a", priority=3, exec_time=0.01, deadline=0.1)
        b = job("b", priority=1, exec_time=0.01, deadline=0.12)
        _assert_matches_scan([a, b], 0.0, 0.0, 1, gamma_cap=0.02, resolution=5)

    def test_backlog_makes_every_gamma_infeasible(self):
        # Each job fits alone, so the early exit does not fire; the grid
        # walk must reject every point because one always runs behind the other.
        a = job("a", priority=1, exec_time=0.06, deadline=0.1)
        b = job("b", priority=1, exec_time=0.06, deadline=0.11)
        for alone in (a, b):
            assert POLICY.is_feasible(0.0, [alone], 0.0, EST, 0.0, 1)
        result = _assert_matches_scan([a, b], 0.0, 0.0, 1)
        assert result.overloaded

    def test_single_job_missing_alone(self):
        # In-flight work alone brings 'tight' to its deadline exactly, and
        # Eq. (11) is strict: the early exit returns None.
        relaxed = [job(f"r{i}", priority=i, exec_time=0.001, deadline=1.0) for i in range(3)]
        tight = job("tight", priority=2, exec_time=0.05, deadline=0.1)
        result = _assert_matches_scan(relaxed + [tight], 0.0, 0.1, 2)
        assert result.overloaded
        # A little less in-flight work and the same queue fits.
        assert not _assert_matches_scan(relaxed + [tight], 0.0, 0.09, 2).overloaded

    @given(
        specs=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),      # priority (ties likely)
                st.floats(min_value=0.001, max_value=0.15), # exec time
                st.floats(min_value=0.01, max_value=0.4),   # relative deadline
                st.floats(min_value=0.0, max_value=0.05),   # release
            ),
            min_size=0,
            max_size=20,
        ),
        now=st.floats(min_value=0.0, max_value=0.2),
        busy=st.floats(min_value=0.0, max_value=0.1),
        n_p=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_randomized_queues(self, specs, now, busy, n_p):
        jobs = [
            job(f"t{i}", priority=p, exec_time=c, deadline=d, release=r)
            for i, (p, c, d, r) in enumerate(specs)
        ]
        _assert_matches_scan(jobs, now, busy, n_p)


def _table(rows):
    """Hand-built ``(p, slack, c, D − now)`` rows as search entries; each
    row's job is its queue index, so an order reads as a list of indices."""
    return [(*row, i) for i, row in enumerate(rows)]


def _keys(gamma, rows):
    """``rank``'s keys ``γ·p + slack`` of hand-built rows."""
    return [gamma * p + slack for p, slack, _, _ in rows]


def _holds(gamma, rows, base, n_p):
    """Eq. (11) at one γ over hand-built rows: passes or not."""
    return _eq11_holds(_table(rows), _keys(gamma, rows), base, n_p) is not None


def _search(policy, rows, busy, n_p):
    """``policy``'s search over hand-built rows: ``(γ_max, order)``.

    The top-point keys and the early-exit verdict are the ones
    :func:`repro.core.dynamic_priority._table` builds from jobs.
    """
    cfg = policy.config
    n_p = max(1, n_p)
    base = busy / n_p
    top = cfg.resolution - 1
    doomed = any(c + base >= rem for _, _, c, rem in rows)
    return policy._search(
        _table(rows), _keys(top * (cfg.gamma_cap / top), rows), doomed, base, n_p
    )


def _gmax(policy, rows, busy, n_p):
    """γ_max of ``policy``'s search over hand-built rows."""
    return _search(policy, rows, busy, n_p)[0]


#: The default grid: ``resolution`` points over ``[0, gamma_cap]``.
_CFG = DynamicPriorityConfig()
_STEP = _CFG.gamma_cap / (_CFG.resolution - 1)


def _reference_order(gamma, rows, base, n_p):
    """Eq. (11) at one γ, written out apart from the module: the row
    indices in stable ``γ·p + slack`` order if every job fits, else ``None``."""
    order = sorted(range(len(rows)), key=lambda i: gamma * rows[i][0] + rows[i][1])
    ahead = 0.0
    for i in order:
        c, rem = rows[i][2], rows[i][3]
        if c + base + ahead / n_p >= rem:
            return None
        ahead += c
    return order


def _reference_walk(entries, busy, n_p, cfg=_CFG):
    """γ_max by brute force: :func:`_reference_order` at every grid point."""
    if not entries:
        return cfg.gamma_cap
    n_p = max(1, n_p)
    step = cfg.gamma_cap / (cfg.resolution - 1)
    passing = [
        k
        for k in range(cfg.resolution)
        if _reference_order(k * step, entries, busy / n_p, n_p) is not None
    ]
    return passing[-1] * step if passing else None


def _few_or_any(values, lo, hi):
    """A few fixed values (so exact key ties are common) or any float in range."""
    return st.one_of(st.sampled_from(values), st.floats(min_value=lo, max_value=hi))


def _nudge(x, ulps):
    """``x`` moved by ``ulps`` units in the last place (either sign)."""
    toward = math.inf if ulps > 0 else -math.inf
    for _ in range(abs(ulps)):
        x = math.nextafter(x, toward)
    return x


def _planted_pair(draw, n_p, base, step, top):
    """A pair whose keys cross inside the grid, on a grid point or anywhere.

    ``heavy`` (larger ``p``, less slack) runs first below the crossover γ*
    and meets its deadline; above γ*, ``light`` runs first and its
    ``c / n_p`` pushes ``heavy`` past its deadline by at least 1 ms / n_p.
    ``light``'s slack is moved by up to 3 ulps, so the float keys may tie
    at γ* or cross one grid point either side of it.
    """
    p_light = draw(st.integers(min_value=0, max_value=2))
    p_heavy = draw(st.integers(min_value=p_light + 1, max_value=3))
    slack_h = base + draw(st.floats(min_value=0.005, max_value=0.05))
    if draw(st.booleans()):
        crossover = draw(st.integers(min_value=1, max_value=top - 1)) * step
    else:
        crossover = draw(st.floats(min_value=step, max_value=(top - 1) * step))
    slack_l = _nudge(
        slack_h + (p_heavy - p_light) * crossover, draw(st.integers(min_value=-3, max_value=3))
    )
    c_h = n_p * (slack_h - base) * draw(st.floats(min_value=0.0, max_value=0.9))
    c_l = n_p * (slack_h - base) + 0.001
    return [(p_heavy, slack_h, c_h, c_h + slack_h), (p_light, slack_l, c_l, c_l + slack_l)]


@st.composite
def _interior_queue(draw):
    """A queue whose top grid point fails and whose γ = 0 passes.

    A planted pair (:func:`_planted_pair`) crosses inside the default grid.
    Filler jobs have at least 1 s of slack, so they rank behind the pair at
    every γ and always fit.
    """
    n_p = draw(st.integers(min_value=1, max_value=3))
    busy = draw(st.floats(min_value=1e-4, max_value=0.02))
    entries = _planted_pair(draw, n_p, busy / n_p, _STEP, _CFG.resolution - 1)
    fillers = draw(
        st.lists(
            st.builds(
                lambda p, slack, c: (p, slack, c, c + slack),
                st.integers(min_value=0, max_value=3),
                _few_or_any([1.0, 1.25, 1.5], 1.0, 2.0),
                _few_or_any([0.005, 0.01, 0.02], 0.0, 0.02),
            ),
            max_size=18,
        )
    )
    return draw(st.permutations(fillers + entries)), busy, n_p


@st.composite
def _walk_queue(draw, resolution):
    """A planted pair (top point fails) plus jobs that stress the walk's marks.

    Each extra job copies one of the pair's priority and slack, then moves
    the slack by up to 3 ulps: an exact tie, or a near-tie that one rounding
    of ``γ·p + slack`` merges at some γ and not at others.  Its ``c`` is of
    the pair's scale, so which of two near-tied jobs runs first can decide
    the verdict.  Returns ``(entries, ΣT_p, n_p)``.
    """
    top = resolution - 1
    step = _CFG.gamma_cap / top
    n_p = draw(st.integers(min_value=1, max_value=3))
    busy = draw(st.floats(min_value=1e-4, max_value=0.02))
    base = busy / n_p
    pair = _planted_pair(draw, n_p, base, step, top)
    entries = list(pair)
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        p, slack, _, _ = draw(st.sampled_from(pair))
        slack = _nudge(slack, draw(st.integers(min_value=-3, max_value=3)))
        c = n_p * (pair[0][1] - base) * draw(st.floats(min_value=0.0, max_value=1.5))
        entries.append((p, slack, c, c + slack))
    return draw(st.permutations(entries)), busy, n_p


class TestBatchedGridWalk:
    """``_search``, which tests one point per batch of grid points that share
    a key order, against the reference walk over every point, bit for bit."""

    @given(data=st.data(), resolution=st.sampled_from([64, 16, 4]))
    @settings(max_examples=400, deadline=None)
    def test_every_row_matches_scalar(self, data, resolution):
        cfg = DynamicPriorityConfig(resolution=resolution)
        entries, busy, n_p = data.draw(_walk_queue(resolution))
        got = _gmax(DynamicPriorityPolicy(cfg), entries, busy, n_p)
        assert got == _reference_walk(entries, busy, n_p, cfg)

    @given(data=st.data(), resolution=st.sampled_from([64, 16, 4]))
    @settings(max_examples=200, deadline=None)
    def test_order_is_the_stable_sort_at_gamma_max(self, data, resolution):
        # The order the search keeps is the queue stable-sorted by
        # γ_max·p + slack, the dispatch order of a round that applies γ_max,
        # and never the order of a failed point above it.
        cfg = DynamicPriorityConfig(resolution=resolution)
        rows, busy, n_p = data.draw(_walk_queue(resolution))
        gmax, order = _search(DynamicPriorityPolicy(cfg), rows, busy, n_p)
        if gmax is None:
            assert order is None
        else:
            keys = [gmax * p + slack for p, slack, _, _ in rows]
            assert [e[4] for e in order] == sorted(range(len(rows)), key=keys.__getitem__)

    @given(case=_interior_queue())
    @settings(max_examples=200, deadline=None)
    def test_top_fails_interior_passes(self, case):
        entries, busy, n_p = case
        base = busy / n_p
        assert not _holds((_CFG.resolution - 1) * _STEP, entries, base, n_p)
        assert _holds(0.0, entries, base, n_p)
        assert _gmax(POLICY, entries, busy, n_p) == _reference_walk(entries, busy, n_p)

    def test_rounding_at_the_boundary(self):
        # (0.1 + 0.2) + 0.3 rounds to 0.6000000000000001, while 0.1 + (0.2 + 0.3)
        # and (0.3 + 0.2) + 0.1 give 0.6.  Each last job's deadline sits on
        # that difference, so it fails only if the backlog is summed in the
        # stable key order (the tied jobs in queue order) and (c + base)
        # is added first.
        edge = (0.1 + 0.2) + 0.3
        tied = [(0, 0.0, c, 10.0) for c in (0.1, 0.2, 0.3)] + [(0, 0.0, 0.0, 10.0)] * 15
        by_sum_order = tied + [(0, 1.0, 0.0, edge)]
        assert _reference_walk(by_sum_order, 0.0, 1) is None
        assert _gmax(POLICY, by_sum_order, 0.0, 1) is None
        by_association = [(0, 0.0, 0.3, 10.0), (0, 1.0, 0.1, edge)]
        assert _reference_walk(by_association, 0.2, 1) is None
        assert _gmax(POLICY, by_association, 0.2, 1) is None

    def test_near_tie_merged_by_rounding(self):
        # Equal p, and b's slack is 3 ulps below a's: b runs first while the
        # keys differ, and a's backlog then fits.  From grid point 56 up,
        # γ·3 + slack is large enough that one rounding merges the two keys,
        # the tie keeps queue order, a runs first and b misses.  No pair
        # with unequal p crosses, so only the near-tie rule finds point 55.
        slack_b = _nudge(0.01, -3)
        a = (3, 0.01, 0.01, 0.02)
        b = (3, slack_b, 0.005, 0.005 + slack_b)
        assert _reference_walk([a, b], 0.0, 1) == 55 * _STEP
        assert _gmax(POLICY, [a, b], 0.0, 1) == 55 * _STEP

    def test_close_priorities_walk_every_point(self):
        # Priorities 2⁻³⁰ apart put the keys' rounding error at ~0.4 grid
        # steps, beyond the crossing window, so the walk tests every point.
        # heavy and light cross at γ* = 0.01, between points 31 and 32.
        p_gap = 2.0**-30
        slack_l = 0.02 + p_gap * 0.01
        light = (1, slack_l, 0.021, 0.021 + slack_l)
        heavy = (1 + p_gap, 0.02, 0.01, 0.01 + 0.02)
        top = _CFG.resolution - 1
        assert _breakpoints(_table([light, heavy]), top, _STEP) == range(top - 1, -1, -1)
        assert _reference_walk([light, heavy], 0.0, 1) == 31 * _STEP
        assert _gmax(POLICY, [light, heavy], 0.0, 1) == 31 * _STEP

    def test_zero_cap(self):
        # γ_cap = 0 makes every grid point γ = 0: a failed top point ends it.
        cfg = DynamicPriorityConfig(gamma_cap=0.0)
        tied = [(0, 0.04, 0.06, 0.1), (0, 0.04, 0.06, 0.1)]
        assert _gmax(DynamicPriorityPolicy(cfg), tied, 0.0, 1) is None
        assert _reference_walk(tied, 0.0, 1, cfg) is None

    def test_hand_built_interior_gamma_max(self):
        # heavy (p = 3, slack 0.02 s) and light (p = 0, slack 0.05 s) tie at
        # γ* = 0.01.  Above it light runs first and heavy needs
        # 0.03 + 0.03 >= 0.05; at or below it both fit.  The largest grid
        # point not above 0.01 is 31 · 0.02/63 ≈ 0.00984.
        heavy = job("heavy", priority=3, exec_time=0.03, deadline=0.05)
        light = job("light", priority=0, exec_time=0.03, deadline=0.08)
        relaxed = job("relaxed", priority=1, exec_time=0.001, deadline=1.0)
        jobs = [relaxed, light, heavy]
        assert not POLICY.is_feasible(_CFG.gamma_cap, jobs, 0.0, EST, 0.0, 1)
        assert POLICY.gamma_max(jobs, 0.0, EST, 0.0, 1) == 31 * _STEP


class _RecordingEstimate:
    """``estimate(name, default)``: an observed value per task or the
    default, with every call recorded."""

    def __init__(self, observed):
        self.observed = observed
        self.calls = []

    def __call__(self, name, default):
        self.calls.append((name, default))
        return self.observed.get(name, default)


def _reference_resolve(cfg, u, jobs, now, estimate, busy, n_p):
    """§V written out step by step: ``(γ_max, γ, table rows, order indices)``.

    One estimate per job builds the rows ``(p, slack, c, D − now)``, with the
    slack through ``Job.latest_start``; a job that fails with nothing ahead
    ends the search; otherwise :func:`_reference_walk` tests every one of the
    grid points, and :meth:`DynamicPriorityPolicy.clamp_gamma` applies Eq. (12).
    """
    rows = []
    for j in jobs:
        c = estimate(j.task.name, j.exec_time)
        rows.append((j.task.priority, j.latest_start(c) - now, c, j.absolute_deadline - now))
    n_p = max(1, n_p)
    base = busy / n_p
    if any(c + base >= rem for _, _, c, rem in rows):
        gmax = None
    else:
        gmax = _reference_walk(rows, busy, n_p, cfg)
    order = None if gmax is None else _reference_order(gmax, rows, base, n_p)
    return gmax, DynamicPriorityPolicy.clamp_gamma(u, gmax), rows, order


_TASKS = [
    TaskSpec(f"k{i}", priority=p, relative_deadline=d, exec_model=ConstantExecTime(0.01))
    for i, (p, d) in enumerate([(0, 0.05), (1, 0.05), (1, 0.1), (3, 0.1), (2, 0.5), (3, 0.02)])
]


@st.composite
def _resolve_case(draw):
    """A queue for :meth:`resolve`, its ``now``, ``ΣT_p``, ``n_p`` and estimator.

    Depths 0, 1, 2 and deep; jobs from a few shared tasks at a few release
    instants, so exact key ties are common; a planted pair whose keys cross
    inside the grid (the top point fails, an interior point passes); and a
    job that misses with nothing ahead of it, at any position.
    """
    n_p = draw(st.integers(min_value=1, max_value=3))
    busy = draw(_few_or_any([0.0, 0.005, 0.01], 0.0, 0.02))
    base = busy / n_p
    now = draw(st.sampled_from([0.0, 0.01]))
    jobs = []
    if draw(st.booleans()):
        # Rows of the planted pair as jobs released at ``now``: D = D − now.
        for p, _, c, rem in _planted_pair(draw, n_p, base, _STEP, _CFG.resolution - 1):
            spec = TaskSpec(f"pair{p}", priority=p, relative_deadline=rem,
                            exec_model=ConstantExecTime(c))
            jobs.append(Job(spec, now, c))
    depth = draw(st.one_of(st.sampled_from([0, 1, 1, 2]), st.integers(min_value=3, max_value=24)))
    for _ in range(depth - len(jobs)):
        spec = draw(st.sampled_from(_TASKS))
        release = draw(_few_or_any([0.0, 0.005, 0.01], -0.02, 0.01))
        exec_time = draw(_few_or_any([0.001, 0.002, 0.005], 0.0, 0.01))
        jobs.append(Job(spec, release, exec_time))
    jobs = draw(st.permutations(jobs))
    if draw(st.booleans()):
        # c + ΣT_p/n_p >= D − now, on the boundary or past it.
        spec = TaskSpec("doomed", priority=draw(st.integers(min_value=0, max_value=3)),
                        relative_deadline=draw(st.sampled_from([0.02, 0.05])),
                        exec_model=ConstantExecTime(0.01))
        release = draw(st.sampled_from([0.0, 0.005]))
        rem = (release + spec.relative_deadline) - now
        c = max(0.0, rem - base) + draw(st.sampled_from([0.0, 0.001, 0.05]))
        jobs.insert(draw(st.integers(min_value=0, max_value=len(jobs))), Job(spec, release, c))
    observed = draw(
        st.dictionaries(
            st.sampled_from([t.name for t in _TASKS]),
            _few_or_any([0.002, 0.005, 0.01], 0.0, 0.03),
            max_size=3,
        )
    )
    return jobs, now, busy, n_p, observed


class TestResolveMatchesReference:
    """:meth:`resolve` against §V written out in the test, bit for bit."""

    @given(case=_resolve_case(), u_mode=st.sampled_from(["negative", "below", "at", "above"]),
           frac=st.floats(min_value=0.0, max_value=0.999), extra=st.floats(1e-9, 1.0))
    @settings(max_examples=500, deadline=None)
    def test_resolve_is_the_reference(self, case, u_mode, frac, extra):
        jobs, now, busy, n_p, observed = case
        ref_estimate = _RecordingEstimate(observed)
        gmax, _, rows, _ = _reference_resolve(_CFG, 0.0, jobs, now, ref_estimate, busy, n_p)
        top = _CFG.gamma_cap if gmax is None else gmax
        u = {"negative": -extra, "below": frac * top, "at": top, "above": top + extra}[u_mode]
        gmax, gamma, rows, order = _reference_resolve(
            _CFG, u, jobs, now, _RecordingEstimate(observed), busy, n_p
        )

        estimate = _RecordingEstimate(observed)
        result = POLICY.resolve(u, jobs, now, estimate, busy, n_p)

        assert estimate.calls == ref_estimate.calls == [(j.task.name, j.exec_time) for j in jobs]
        assert (result.gamma_max, result.gamma, result.overloaded) == (gmax, gamma, gmax is None)
        assert [e[:4] for e in result.entries] == rows
        assert all(e[4] is j for e, j in zip(result.entries, jobs))
        assert len(result.entries) == len(jobs)
        if order is None:
            assert result.order is None
        else:
            assert len(result.order) == len(order)
            assert all(e[4] is jobs[i] for e, i in zip(result.order, order))

    def test_doomed_single_job(self):
        # Depth 1 passes the top point without a sort only because the early
        # exit has already tested its one constraint.
        doomed = job("d", exec_time=0.1, deadline=0.1)
        result = POLICY.resolve(0.01, [doomed], 0.0, EST, 0.0, 1)
        assert result.overloaded and result.order is None
        fits = job("f", exec_time=0.05, deadline=0.1)
        result = POLICY.resolve(0.01, [fits], 0.0, EST, 0.0, 1)
        assert result.gamma_max == _CFG.gamma_cap and [e[4] for e in result.order] == [fits]


def _list_schedule_finishes(gamma, entries, remaining):
    """Finish times of ``entries`` run non-preemptively in stable ``P_i`` order.

    Each job starts, at the earliest, on the processor that frees up first;
    ``remaining`` is each processor's time left on its current job.
    """
    free = list(remaining)
    order = sorted(range(len(entries)), key=lambda i: gamma * entries[i][0] + entries[i][1])
    finishes = [0] * len(entries)
    for i in order:
        unit = free.index(min(free))
        free[unit] += entries[i][2]
        finishes[i] = free[unit]
    return finishes


class TestListScheduleOracle:
    """What Eq. (11) promises: an admitted queue meets every deadline.

    Run the queue non-preemptively in stable ``P_i`` order, each job on the
    processor that frees up first.  When job ``j`` starts, the processors'
    free times sum to ``ΣT_p`` plus the ``c`` of every job before ``j`` in
    that order (each started job adds its own ``c`` to one processor).  The
    minimum of ``n_p`` numbers is at most their mean, so ``j`` starts by
    ``ΣT_p/n_p + ahead_j/n_p`` and finishes by ``c_j`` more: Eq. (11) at
    ``j`` bounds that by ``D_j``.  The argument needs ``ahead_j`` to hold
    every job that runs before ``j``, tied ones included; with the paper's
    strict ``P_i < P_j`` two tied jobs never count each other and the
    second can miss.

    The draws are whole numbers (milliseconds), so the schedule is exact
    and ties are common: integer slacks at the half-integer γ grid below.
    Eq. (11) divides by ``n_p`` in floats, which can admit a job whose
    exact bound equals its deadline, so "meets" is ``finish <= D``.
    """

    #: γ grid {0, 0.5, …, 3}: keys γ·p + slack are exact and often tie.
    _POLICY = DynamicPriorityPolicy(DynamicPriorityConfig(gamma_cap=3.0, resolution=7))

    @given(
        jobs=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),   # priority
                st.integers(min_value=0, max_value=8),   # c_i
                st.integers(min_value=1, max_value=30),  # D_i − now
            ),
            min_size=1,
            max_size=8,
        ),
        remaining=st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=3),
    )
    @settings(max_examples=400, deadline=None)
    def test_admitted_queue_meets_every_deadline(self, jobs, remaining):
        entries = [(float(p), float(rem - c), float(c), float(rem)) for p, c, rem in jobs]
        n_p = len(remaining)
        base = sum(remaining) / n_p
        step = 0.5
        for k in range(7):
            if _holds(k * step, entries, base, n_p):
                finishes = _list_schedule_finishes(k * step, entries, remaining)
                assert all(f <= e[3] for f, e in zip(finishes, entries))
        gmax = _gmax(self._POLICY, entries, float(sum(remaining)), n_p)
        if gmax is not None:
            assert _holds(gmax, entries, base, n_p)

    def test_two_tied_jobs_on_one_processor(self):
        # c = 6 ms and D = 10 ms each, tied on P_i: the second finishes at
        # 12 ms, and Eq. (11) now rejects the queue.
        tied = [(0.0, 4.0, 6.0, 10.0), (0.0, 4.0, 6.0, 10.0)]
        assert _list_schedule_finishes(0.0, tied, [0]) == [6, 12]
        assert not _holds(0.0, tied, 0.0, 1)
        assert _gmax(self._POLICY, tied, 0.0, 1) is None


class TestGammaMaxMetamorphic:
    """γ_max never rises when the platform gets less room for the same queue.

    The ranking keys ``γ·p_i + slack_i`` do not involve ``n_p`` or ``ΣT_p``,
    so at every γ the sorted order and each job's ``ahead`` sum stay bit for
    bit the same.  Only ``(c + ΣT_p/n_p) + ahead/n_p`` changes, and it cannot
    fall: ``ΣT_p`` and ``ahead`` are non-negative, IEEE division and
    addition round correctly, and a correctly rounded monotone function is
    monotone, so a larger ``ΣT_p`` or a smaller ``n_p`` never gives a
    smaller left-hand side.  Every job that failed
    still fails (the early exit too), so the passing grid points shrink to
    a subset and their maximum cannot rise.  ``None`` ranks below every
    grid point.
    """

    @staticmethod
    def _rank(gamma_max):
        return -1.0 if gamma_max is None else gamma_max

    @given(
        specs=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.sampled_from([0.005, 0.01, 0.02, 0.04]),
                st.sampled_from([0.05, 0.08, 0.1, 0.2]),
                st.sampled_from([0.0, 0.01, 0.02]),
            ),
            min_size=1,
            max_size=20,
        ),
        busy=st.floats(min_value=0.0, max_value=0.1),
        extra=st.floats(min_value=0.0, max_value=0.1),
        n_p=st.integers(min_value=1, max_value=4),
        fewer=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=150, deadline=None)
    def test_less_room_never_raises_gamma_max(self, specs, busy, extra, n_p, fewer):
        jobs = [
            job(f"t{i}", priority=p, exec_time=c, deadline=d, release=r)
            for i, (p, c, d, r) in enumerate(specs)
        ]
        now = 0.02
        gmax = POLICY.gamma_max(jobs, now, EST, busy, n_p)
        fewer_procs = POLICY.gamma_max(jobs, now, EST, busy, max(1, n_p - fewer))
        more_busy = POLICY.gamma_max(jobs, now, EST, busy + extra, n_p)
        assert self._rank(fewer_procs) <= self._rank(gmax)
        assert self._rank(more_busy) <= self._rank(gmax)
