"""Oracles for the once-per-round dispatch ranking.

The executor asks the scheduler once per dispatch round for the round's
dispatch order (``Scheduler.ranked``), and lets each free processor take the
first job of that order it may run (``ReadyQueue.pop_best``).  Three oracles
pin that this changes nothing:

* the ranked walk picks, processor by processor, exactly the job that a
  per-processor stable ``min(key)`` over the eligible jobs picks — the
  dispatch rule the walk replaced, re-implemented here;
* ``ranked`` is the queue stable-sorted by ``rank``, job for job, for every
  registered policy (HCPerf after its ``on_dispatch_round``);
* HCPerf's ``ranked``, which reuses the γ search's passing Eq. (11) sort
  when the applied γ is γ_max, stays that stable sort when ``u`` lies
  above, at or below γ_max or is negative, on queues whose search walks
  below the top grid point or finds none, with exact ``P_i`` ties, and when
  a subclass rewrites γ after the search.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DynamicPriorityConfig, DynamicPriorityPolicy
from repro.core.mfc import MFCConfig
from repro.rt import (
    ConstantExecTime,
    Criticality,
    ExecTimeObserver,
    Job,
    ProcessorState,
    ReadyQueue,
    TaskGraph,
    TaskSpec,
)
from repro.rt.view import SystemView
from repro.schedulers import SCHEDULERS, HCPerfConfig, HCPerfScheduler, Scheduler

UNIT_TYPES = ("CPU", "GPU")
AFFINITIES = (None, frozenset({"CPU"}), frozenset({"GPU"}), frozenset(UNIT_TYPES))


def stable_min_oracle(jobs, key, free, eligible):
    """Per free processor: stable ``min(key)`` over the eligible queued jobs."""
    pool = list(jobs)
    picks = []
    for proc in free:
        if not pool:
            break
        candidates = [j for j in pool if eligible(j, proc)]
        if not candidates:
            picks.append(None)
            continue
        best = min(candidates, key=key)
        pool.remove(best)
        picks.append(best)
    return picks


class Keyed(Scheduler):
    """A policy whose rank is a fixed key per job."""

    def __init__(self, key_of):
        self._key_of = key_of

    def rank(self, job, now, view):
        return self._key_of[job.job_id]


def ranked_walk(queue, key_of, free, eligible):
    """The executor's dispatch round over ``queue`` with fixed keys."""
    ranked = Keyed(key_of).ranked(queue.queued, 0.0, None)
    picks = []
    for proc in free:
        if not queue:
            break
        picks.append(queue.pop_best(ranked, lambda j: eligible(j, proc)))
    return picks


@st.composite
def dispatch_rounds(draw):
    """A queue of jobs with duplicate keys, bindings and typed affinities."""
    n_procs = draw(st.integers(min_value=1, max_value=4))
    units = draw(st.lists(st.sampled_from(UNIT_TYPES), min_size=n_procs, max_size=n_procs))
    procs = [ProcessorState(i, unit_type=u) for i, u in enumerate(units)]
    n_tasks = draw(st.integers(min_value=1, max_value=5))
    tasks = [
        TaskSpec(
            f"t{i}",
            priority=draw(st.integers(min_value=0, max_value=3)),
            relative_deadline=0.1,
            exec_model=ConstantExecTime(0.01),
            # Apollo-style static binding, sometimes to a processor that
            # is not free this round (or does not exist).
            processor_binding=draw(st.one_of(st.none(), st.integers(0, 4))),
            affinity=draw(st.sampled_from(AFFINITIES)),
        )
        for i in range(n_tasks)
    ]
    queue = ReadyQueue()
    keys = []
    for spec in draw(st.lists(st.sampled_from(tasks), max_size=12)):
        queue.push(Job(task=spec, release_time=0.0, exec_time=0.01))
        # Few distinct keys, so ties are common.
        keys.append(draw(st.sampled_from([-1.0, 0.0, 0.5, 0.5, 2.0])))
    order = draw(st.permutations(procs))
    return queue, keys, order[: draw(st.integers(1, n_procs))]


@settings(max_examples=300, deadline=None)
@given(dispatch_rounds())
def test_ranked_walk_matches_per_processor_stable_min(round_):
    queue, keys, free = round_
    key_of = {job.job_id: k for job, k in zip(queue, keys)}
    eligible = Scheduler().eligible
    expected = stable_min_oracle(list(queue.queued), lambda j: key_of[j.job_id], free, eligible)
    assert ranked_walk(queue, key_of, free, eligible) == expected
    assert all(job not in queue for job in expected if job is not None)


# ----------------------------------------------------------------------
# ranked(jobs, now, view) is jobs stable-sorted by rank(j, now, view)
# ----------------------------------------------------------------------
def stable_sort_by_rank(policy, jobs, now, view):
    return sorted(jobs, key=lambda j: policy.rank(j, now, view))


def same_jobs(got, expected):
    """Equal job for job, by identity."""
    return [id(j) for j in got] == [id(j) for j in expected]


def small_graph():
    g = TaskGraph()
    g.add_task(TaskSpec("cam", priority=3, relative_deadline=0.08,
                        exec_model=ConstantExecTime(0.01), rate=20.0,
                        rate_range=(10.0, 30.0)))
    g.add_task(TaskSpec("lidar", priority=2, relative_deadline=0.1,
                        exec_model=ConstantExecTime(0.02), rate=10.0,
                        criticality=Criticality.HIGH))
    g.add_task(TaskSpec("fusion", priority=1, relative_deadline=0.12,
                        exec_model=ConstantExecTime(0.015),
                        criticality=Criticality.HIGH))
    g.add_task(TaskSpec("control", priority=0, relative_deadline=0.05,
                        exec_model=ConstantExecTime(0.005)))
    g.add_edge("cam", "fusion")
    g.add_edge("lidar", "fusion")
    g.add_edge("fusion", "control")
    return g


def make_policy(name, u):
    if SCHEDULERS[name] is HCPerfScheduler:
        return HCPerfScheduler(HCPerfConfig(mfc=MFCConfig(u_initial=u)))
    return SCHEDULERS[name]()


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(sorted(SCHEDULERS)),
    u=st.floats(min_value=0.0, max_value=0.05),
    now=st.floats(min_value=0.0, max_value=1.0),
    releases=st.lists(
        st.tuples(
            st.sampled_from(["cam", "lidar", "fusion", "control"]),
            st.floats(min_value=0.0, max_value=1.0),
            st.floats(min_value=0.0, max_value=0.05),
        ),
        max_size=10,
    ),
    observed=st.lists(
        st.tuples(st.sampled_from(["cam", "fusion"]), st.floats(min_value=0.0, max_value=0.05)),
        max_size=4,
    ),
)
def test_ranked_is_the_stable_sort_by_rank(name, u, now, releases, observed):
    graph = small_graph()
    n_procs = 2
    policy = make_policy(name, u)
    policy.prepare(graph, n_procs)
    observer = ExecTimeObserver(alpha=0.5)
    for task, value in observed:
        observer.observe(task, value)
    queue = ReadyQueue()
    for task, release, exec_time in releases:
        queue.push(Job(task=graph.task(task), release_time=release, exec_time=exec_time))
    view = SystemView(
        graph=graph,
        ready=queue,
        processors=[ProcessorState(i) for i in range(n_procs)],
        observer=observer,
        rates={"cam": 20.0, "lidar": 10.0},
    )
    policy.on_dispatch_round(now, view)
    jobs = queue.queued
    ranked = policy.ranked(jobs, now, view)
    assert same_jobs(ranked, stable_sort_by_rank(policy, jobs, now, view))
    assert ranked is not jobs


# ----------------------------------------------------------------------
# HCPerf: the search's order is reused only when it is the dispatch order
# ----------------------------------------------------------------------
_CFG = DynamicPriorityConfig()
_STEP = _CFG.gamma_cap / (_CFG.resolution - 1)


class RewrittenGamma(HCPerfScheduler):
    """HCPerf whose γ is rewritten after the search, as an ablation pins it."""

    def __init__(self, config, gamma, clamp):
        super().__init__(config)
        self._rewrite = gamma
        self._clamp = clamp

    def on_dispatch_round(self, now, view):
        super().on_dispatch_round(now, view)
        if self._clamp:
            gmax = self.last_result.gamma_max
            self._gamma = self.policy.clamp_gamma(self._rewrite, gmax)
        else:
            self._gamma = self._rewrite


def _row_job(i, p, c, deadline):
    """A job released at 0 whose slack at ``now = 0`` is ``deadline − c``."""
    spec = TaskSpec(f"j{i}", priority=p, relative_deadline=deadline,
                    exec_model=ConstantExecTime(c))
    return Job(task=spec, release_time=0.0, exec_time=c)


@st.composite
def hcperf_queues(draw):
    """Queues that walk below the top grid point, overload, or tie exactly.

    A planted pair crosses inside the γ grid: ``heavy`` (larger ``p``, less
    slack) must run first, so the top point fails and γ_max is the grid
    point below the crossing (on a grid point the keys tie exactly).
    Fillers have about 1 s of slack: they rank behind the pair at every γ,
    always fit, and cross each other inside the grid, so the order at γ_max
    differs from the order below it.  Identical fillers tie exactly at
    every γ.  A doomed job (``c > D``) makes the queue overloaded.
    Returns ``(rows, n_p)`` with ``(p, c, D)`` rows in queue order.
    """
    n_p = draw(st.integers(min_value=1, max_value=3))
    rows = []
    if draw(st.booleans()):
        p_light = draw(st.integers(min_value=0, max_value=2))
        p_heavy = draw(st.integers(min_value=p_light + 1, max_value=3))
        slack_h = draw(st.floats(min_value=0.005, max_value=0.05))
        if draw(st.booleans()):
            crossover = draw(st.integers(min_value=1, max_value=61)) * _STEP
        else:
            crossover = draw(st.floats(min_value=_STEP, max_value=61 * _STEP))
        slack_l = slack_h + (p_heavy - p_light) * crossover
        c_h = n_p * slack_h * draw(st.floats(min_value=0.0, max_value=0.9))
        c_l = n_p * slack_h + 0.001
        rows += [(p_heavy, c_h, c_h + slack_h), (p_light, c_l, c_l + slack_l)]
    rows += draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.sampled_from([0.0, 0.005, 0.01]),
                st.sampled_from([1.0, 1.01, 1.02, 1.05]),
            ),
            max_size=8,
        )
    )
    if draw(st.integers(min_value=0, max_value=4)) == 0:
        rows.append((draw(st.integers(min_value=0, max_value=3)), 0.02, 0.01))
    return draw(st.permutations(rows)), n_p


@st.composite
def nominal_u(draw, gmax):
    """``u`` above, at or below γ_max, or negative."""
    where = draw(st.sampled_from(["above", "at", "below", "negative"]))
    top = 0.0 if gmax is None else gmax
    if where == "above":
        return top + draw(st.floats(min_value=1e-9, max_value=0.05))
    if where == "at":
        return top
    if where == "below":
        if draw(st.booleans()):  # a grid point, where keys may tie as at γ_max
            k_max = round(top / _STEP)
            return draw(st.integers(min_value=0, max_value=max(0, k_max - 1))) * _STEP
        return top * draw(st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    return -draw(st.floats(min_value=1e-9, max_value=1.0))


@settings(max_examples=400, deadline=None)
@given(
    queue_rows=hcperf_queues(),
    data=st.data(),
    rewrite=st.one_of(
        st.none(),
        st.tuples(st.floats(min_value=-0.01, max_value=0.05), st.booleans()),
    ),
)
def test_hcperf_ranked_is_the_stable_sort_by_rank(queue_rows, data, rewrite):
    rows, n_p = queue_rows
    jobs = [_row_job(i, p, c, d) for i, (p, c, d) in enumerate(rows)]
    gmax = DynamicPriorityPolicy().gamma_max(jobs, 0.0, lambda name, c: c, 0.0, n_p)
    config = HCPerfConfig(mfc=MFCConfig(u_initial=data.draw(nominal_u(gmax))))
    if rewrite is None:
        policy = HCPerfScheduler(config)
    else:
        policy = RewrittenGamma(config, *rewrite)
    queue = ReadyQueue()
    for job in jobs:
        queue.push(job)
    view = SystemView(
        graph=TaskGraph(),
        ready=queue,
        processors=[ProcessorState(i) for i in range(n_p)],
        observer=ExecTimeObserver(),
        rates={},
    )
    policy.on_dispatch_round(0.0, view)
    assert policy.last_result.gamma_max == gmax
    ranked = policy.ranked(queue.queued, 0.0, view)
    assert same_jobs(ranked, stable_sort_by_rank(policy, queue.queued, 0.0, view))
    # A fresh list: consuming it leaves the next call's order whole.
    ranked.clear()
    again = policy.ranked(queue.queued, 0.0, view)
    assert same_jobs(again, stable_sort_by_rank(policy, queue.queued, 0.0, view))
