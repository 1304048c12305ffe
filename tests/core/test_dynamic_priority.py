"""Unit and property tests for the Dynamic Priority Scheduler core."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DynamicPriorityConfig, DynamicPriorityPolicy
from repro.rt import ConstantExecTime, Job, TaskSpec


def job(name="t", priority=1, release=0.0, exec_time=0.01, deadline=0.1):
    spec = TaskSpec(
        name=name,
        priority=priority,
        relative_deadline=deadline,
        exec_model=ConstantExecTime(exec_time),
    )
    return Job(task=spec, release_time=release, exec_time=exec_time)


POLICY = DynamicPriorityPolicy()
EST = lambda j: j.exec_time


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            DynamicPriorityConfig(gamma_cap=-1.0)
        with pytest.raises(ValueError):
            DynamicPriorityConfig(resolution=1)

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

    def test_equal_priority_jobs_do_not_block_each_other(self):
        # Two identical jobs: with strict P_i < P_j neither counts against
        # the other, so each only needs its own time.
        a = job("a", priority=1, exec_time=0.06, deadline=0.1)
        b = job("b", priority=1, exec_time=0.06, deadline=0.1)
        assert POLICY.is_feasible(0.0, [a, b], 0.0, EST, 0.0, 1)

    def test_more_processors_help(self):
        jobs = [
            job("a", priority=1, exec_time=0.06, deadline=0.1),
            job("b", priority=9, exec_time=0.05, deadline=0.1),
        ]
        assert not POLICY.is_feasible(10.0, jobs, 0.0, EST, 0.0, 1)
        assert POLICY.is_feasible(10.0, jobs, 0.0, EST, 0.0, 2)


class TestGammaMax:
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

        def estimate(j):
            calls.append(j)
            return j.exec_time

        policy = DynamicPriorityPolicy(DynamicPriorityConfig(gamma_cap=1.0, resolution=101))
        heavy = job("heavy", priority=9, exec_time=0.05, deadline=0.06)
        light = job("light", priority=1, exec_time=0.05, deadline=1.0)
        assert policy.gamma_max([heavy, light], 0.0, estimate, 0.0, 1) < 1.0
        assert calls == [heavy, light]


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
        # Identical triplets: P_i ties exactly at every γ, exercising the
        # equal-P grouping (strict inequality in Eq. 11).
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
            max_size=8,
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
