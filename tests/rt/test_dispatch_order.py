"""Oracles for the once-per-round dispatch ranking.

The executor asks the scheduler for one key per queued job per dispatch
round (``Scheduler.order``), stable-sorts the queue once, and lets each free
processor take the first job of that order it may run
(``ReadyQueue.ranked``, ``ReadyQueue.pop_best``).  Two oracles pin that this changes nothing:

* the ranked walk picks, processor by processor, exactly the job that a
  per-processor stable ``min(key)`` over the eligible jobs picks — the
  dispatch rule the walk replaced, re-implemented here;
* ``order`` equals ``rank`` job by job, bit for bit, for every registered
  policy (HCPerf after its ``on_dispatch_round``).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coordinator import HCPerfConfig
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
from repro.schedulers import SCHEDULERS, HCPerfScheduler, Scheduler

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


def ranked_walk(queue, keys, free, eligible):
    """The executor's dispatch round over ``queue`` with precomputed keys."""
    ranked = queue.ranked(keys)
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
    expected = stable_min_oracle(queue.jobs(), lambda j: key_of[j.job_id], free, eligible)
    assert ranked_walk(queue, keys, free, eligible) == expected
    assert all(job not in queue for job in expected if job is not None)


# ----------------------------------------------------------------------
# order(jobs, now, view) == [rank(j, now, view) for j in jobs], bit for bit
# ----------------------------------------------------------------------
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


def bits(values):
    return [float(v).hex() for v in values]


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
def test_order_equals_rank_bit_for_bit(name, u, now, releases, observed):
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
    jobs = queue.jobs()
    keys = policy.order(jobs, now, view)
    assert bits(keys) == bits(policy.rank(j, now, view) for j in jobs)
