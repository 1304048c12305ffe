"""Oracles for the once-per-round dispatch ranking.

The executor asks the scheduler once per dispatch round for the round's
dispatch order (``Scheduler.ranked``), and lets each free processor take the
first job of that order it may run (``ReadyQueue.pop_best``).  Three oracles
pin that this changes nothing:

* the ranked walk, with each unit's admitted task names decided once by
  ``Scheduler.eligible(task, processor)``, picks processor by processor
  exactly the job that a per-processor stable ``min(key)`` over the jobs
  the policy admits, asked job by job, picks — the dispatch rule the walk
  replaced, re-implemented here — under the base rule, Apollo's
  partition, static bindings (to units that are down or do not exist
  included) and a policy that narrows placement, on typed units some of
  which are unavailable;
* ``ranked`` is the queue stable-sorted by ``rank``, job for job, for every
  registered policy (HCPerf after its ``on_dispatch_round``), with exact
  key ties across tasks and jobs of a task the policy was never prepared
  with;
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
from repro.schedulers import (
    SCHEDULERS,
    ApolloScheduler,
    EDFVDScheduler,
    HCPerfConfig,
    HCPerfScheduler,
    Scheduler,
)

UNIT_TYPES = ("CPU", "GPU")
AFFINITIES = (None, frozenset({"CPU"}), frozenset({"GPU"}), frozenset(UNIT_TYPES))


def stable_min_oracle(jobs, key, units, admitted):
    """Per unit: stable ``min(key)`` over the queued jobs ``admitted(job, unit)``.

    Returns ``(unit index, pick)`` pairs, ``None`` where the unit admits
    no queued job; stops, like the executor, once the pool is empty.
    """
    pool = list(jobs)
    picks = []
    for proc in units:
        if not pool:
            break
        candidates = [j for j in pool if admitted(j, proc)]
        if not candidates:
            picks.append((proc.index, None))
            continue
        best = min(candidates, key=key)
        pool.remove(best)
        picks.append((proc.index, best))
    return picks


class Keyed(Scheduler):
    """A policy whose rank is a fixed key per job."""

    def __init__(self, key_of):
        self._key_of = key_of

    def rank(self, job, now, view):
        return self._key_of[job.job_id]


class GPUForFirstTask(Scheduler):
    """Narrower placement than the base rule: the GPU runs task ``t0`` only."""

    def eligible(self, task, processor):
        if processor.unit_type == "GPU" and task.name != "t0":
            return False
        return super().eligible(task, processor)


class Pinned(Scheduler):
    """Static binding through ``eligible``: a task it names runs on that unit only."""

    def __init__(self, binding):
        self._binding = binding

    def eligible(self, task, processor):
        if self._binding.get(task.name, processor.index) != processor.index:
            return False
        return super().eligible(task, processor)


def placement_table(policy, tasks, units):
    """The executor's per-run table: unit index -> names of admitted tasks."""
    return {p.index: frozenset(t.name for t in tasks if policy.eligible(t, p)) for p in units}


def ranked_walk(queue, key_of, units, admits):
    """The executor's dispatch round over ``queue`` with fixed keys."""
    ranked = Keyed(key_of).ranked(queue.queued, 0.0, None)
    picks = []
    for proc in units:
        if not proc.available:
            continue  # a failed unit is never free
        if not queue:
            break
        picks.append((proc.index, queue.pop_best(ranked, admits[proc.index])))
    return picks


@st.composite
def dispatch_rounds(draw):
    """A queue with duplicate keys, bindings, typed affinities and failed units.

    Returns the queue, its keys, the prepared policy, every unit and the
    units in the round's order.
    """
    n_procs = draw(st.integers(min_value=1, max_value=4))
    units = draw(st.lists(st.sampled_from(UNIT_TYPES), min_size=n_procs, max_size=n_procs))
    procs = [
        ProcessorState(i, unit_type=u, available=draw(st.booleans()) or i == 0)
        for i, u in enumerate(units)
    ]
    n_tasks = draw(st.integers(min_value=1, max_value=5))
    tasks = [
        TaskSpec(
            f"t{i}",
            priority=draw(st.integers(min_value=0, max_value=3)),
            relative_deadline=0.1,
            exec_model=ConstantExecTime(0.01),
            rate=10.0,
            affinity=draw(st.sampled_from(AFFINITIES)),
        )
        for i in range(n_tasks)
    ]
    # Static binding, sometimes to a processor that is not free this round
    # or does not exist.
    bound = [draw(st.one_of(st.none(), st.integers(0, 5))) for _ in tasks]
    binding = {spec.name: b for spec, b in zip(tasks, bound) if b is not None}
    policy = draw(
        st.sampled_from([Scheduler, ApolloScheduler, lambda: Pinned(binding), GPUForFirstTask])
    )()
    graph = TaskGraph()
    for spec in tasks:
        graph.add_task(spec)
    policy.prepare(graph, n_procs)
    queue = ReadyQueue()
    keys = []
    for spec in draw(st.lists(st.sampled_from(tasks), max_size=12)):
        queue.push(Job(task=spec, release_time=0.0, exec_time=0.01))
        # Few distinct keys, so ties are common.
        keys.append(draw(st.sampled_from([-1.0, 0.0, 0.5, 0.5, 2.0])))
    order = draw(st.permutations(procs))
    return queue, keys, policy, procs, order[: draw(st.integers(1, n_procs))]


@settings(max_examples=300, deadline=None)
@given(dispatch_rounds())
def test_ranked_walk_matches_per_processor_stable_min(round_):
    queue, keys, policy, procs, order = round_
    key_of = {job.job_id: k for job, k in zip(queue, keys)}
    tasks = {job.task.name: job.task for job in queue}.values()
    admits = placement_table(policy, tasks, procs)
    free = [p for p in order if p.available]
    expected = stable_min_oracle(
        list(queue.queued),
        lambda j: key_of[j.job_id],
        free,
        lambda j, p: policy.eligible(j.task, p),
    )
    assert ranked_walk(queue, key_of, order, admits) == expected
    picked = [(procs[i], job) for i, job in expected if job is not None]
    assert all(job not in queue for _, job in picked)
    # Placement never widens the base rule: no job lands outside its
    # task's affinity set, or where the policy does not admit it.
    assert all(proc.can_run(job.task) and policy.eligible(job.task, proc) for proc, job in picked)


# ----------------------------------------------------------------------
# ranked(jobs, now, view) is jobs stable-sorted by rank(j, now, view)
# ----------------------------------------------------------------------
def stable_sort_by_rank(policy, jobs, now, view):
    return sorted(jobs, key=lambda j: policy.rank(j, now, view))


def same_jobs(got, expected):
    """Equal job for job, by identity."""
    return [id(j) for j in got] == [id(j) for j in expected]


LIDAR_D = 0.125
#: Release instants drawn for the queue.  Every deadline below is a multiple
#: of 1/64 s too, so sums are exact and deadlines tie across tasks.
RELEASE_POOL = (0.0, 0.03125, 0.0625, 0.09375, 0.125)
#: A task no policy is prepared with: ranked through the ``.get`` fallbacks.
STRAY = TaskSpec("stray", priority=2, relative_deadline=0.125, exec_model=ConstantExecTime(0.01))


def small_graph():
    """Four tasks; ``cam`` and ``lidar`` share a priority, and ``control``'s
    deadline is exactly ``lidar``'s EDF-VD virtual deadline."""
    g = TaskGraph()
    g.add_task(TaskSpec("cam", priority=2, relative_deadline=0.0625,
                        exec_model=ConstantExecTime(0.01), rate=20.0,
                        rate_range=(10.0, 30.0)))
    g.add_task(TaskSpec("lidar", priority=2, relative_deadline=LIDAR_D,
                        exec_model=ConstantExecTime(0.02), rate=10.0,
                        criticality=Criticality.HIGH))
    g.add_task(TaskSpec("fusion", priority=1, relative_deadline=0.1875,
                        exec_model=ConstantExecTime(0.015),
                        criticality=Criticality.HIGH))
    g.add_task(TaskSpec("control", priority=0, relative_deadline=EDFVDScheduler().x * LIDAR_D,
                        exec_model=ConstantExecTime(0.005)))
    g.add_edge("cam", "fusion")
    g.add_edge("lidar", "fusion")
    g.add_edge("fusion", "control")
    return g


def test_small_graph_ties_keys_across_tasks():
    """The ties the oracle below relies on exist, exactly."""
    graph = small_graph()
    deadlines = {}
    for spec in graph:
        for release in RELEASE_POOL:
            deadlines.setdefault(release + spec.relative_deadline, set()).add(spec.name)
    # cam and fusion, of different priorities, tie on their deadlines.
    assert any({"cam", "fusion"} <= names for names in deadlines.values())
    edf_vd = EDFVDScheduler()
    edf_vd.prepare(graph, 2)
    lidar, control = (Job(task=graph.task(n), release_time=0.0625, exec_time=0.01)
                      for n in ("lidar", "control"))
    assert edf_vd.rank(lidar, 0.0, None) == edf_vd.rank(control, 0.0, None)
    assert graph.task("cam").priority == graph.task("lidar").priority


def make_policy(name, u):
    if SCHEDULERS[name] is HCPerfScheduler:
        return HCPerfScheduler(HCPerfConfig(mfc=MFCConfig(u_initial=u)))
    return SCHEDULERS[name]()


@settings(max_examples=500, deadline=None)
@given(
    name=st.sampled_from(sorted(SCHEDULERS)),
    u=st.floats(min_value=0.0, max_value=0.05),
    now=st.floats(min_value=0.0, max_value=1.0),
    releases=st.lists(
        st.tuples(
            st.sampled_from(["cam", "lidar", "fusion", "control", STRAY.name]),
            st.sampled_from(RELEASE_POOL),
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
    specs = {spec.name: spec for spec in graph}
    specs[STRAY.name] = STRAY
    n_procs = 2
    policy = make_policy(name, u)
    policy.prepare(graph, n_procs)
    observer = ExecTimeObserver(alpha=0.5)
    for task, value in observed:
        observer.observe(task, value)
    queue = ReadyQueue()
    for task, release, exec_time in releases:
        queue.push(Job(task=specs[task], release_time=release, exec_time=exec_time))
    view = SystemView(
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
