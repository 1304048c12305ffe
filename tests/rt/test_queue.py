"""Unit tests for the ready queue."""

from repro.rt import ConstantExecTime, Job, ProcessorState, ReadyQueue, TaskSpec
from repro.schedulers import Scheduler


class Pinned(Scheduler):
    """Binds the tasks it names to one processor each, as Apollo does."""

    binding = {"bound": 0, "b": 2}

    def eligible(self, task, processor):
        bound = self.binding.get(task.name, processor.index)
        return bound == processor.index and super().eligible(task, processor)


def runs_on(q, index):
    """Processor ``index``'s row of the executor's placement table, over
    the tasks queued in ``q``: the names ``Pinned.eligible`` admits."""
    proc = ProcessorState(index=index)
    return frozenset(j.task.name for j in q if Pinned().eligible(j.task, proc))


def anywhere(q):
    return frozenset(j.task.name for j in q)


def ranked(q, key):
    """A round's dispatch order: ``q`` stable-sorted by ``key``."""
    return sorted(q.queued, key=key)


def job(name="t", priority=1, release=0.0, exec_time=0.01, deadline=0.1):
    spec = TaskSpec(
        name=name,
        priority=priority,
        relative_deadline=deadline,
        exec_model=ConstantExecTime(exec_time),
    )
    return Job(task=spec, release_time=release, exec_time=exec_time)


class TestBasicOps:
    def test_push_len_iter(self):
        q = ReadyQueue()
        assert not q and len(q) == 0
        a, b = job("a"), job("b")
        q.push(a)
        q.push(b)
        assert len(q) == 2 and list(q) == [a, b]
        assert a in q

    def test_remove(self):
        q = ReadyQueue()
        a = job("a")
        q.push(a)
        q.remove(a)
        assert a not in q and len(q) == 0


class TestPopBest:
    def test_pop_best_minimizes_key(self):
        q = ReadyQueue()
        lo = job("lo", priority=1)
        hi = job("hi", priority=5)
        q.push(hi)
        q.push(lo)
        order = ranked(q, lambda j: j.task.priority)
        picked = q.pop_best(order, anywhere(q))
        assert picked is lo
        assert hi in q and order == [hi]

    def test_pop_best_tie_breaks_by_insertion(self):
        q = ReadyQueue()
        first = job("first", priority=2)
        second = job("second", priority=2)
        q.push(first)
        q.push(second)
        assert q.pop_best(ranked(q, lambda j: j.task.priority), anywhere(q)) is first

    def test_pop_best_empty_returns_none(self):
        assert ReadyQueue().pop_best([], frozenset()) is None

    def test_pop_best_respects_binding(self):
        q = ReadyQueue()
        bound = job("bound", priority=1)
        free = job("free", priority=5)
        q.push(bound)
        q.push(free)
        # Processor 1 cannot run the bound job even though it ranks better.
        order = ranked(q, lambda j: j.task.priority)
        on_0, on_1 = runs_on(q, 0), runs_on(q, 1)
        picked = q.pop_best(order, on_1)
        assert picked is free
        # Processor 0 may run it.
        picked0 = q.pop_best(order, on_0)
        assert picked0 is bound

    def test_pop_best_no_eligible_returns_none(self):
        q = ReadyQueue()
        q.push(job("bound"))
        assert q.pop_best(list(q), runs_on(q, 3)) is None
        assert len(q) == 1


class TestEligible:
    def test_eligible_includes_unbound(self):
        q = ReadyQueue()
        a = job("a")
        b = job("b")
        q.push(a)
        q.push(b)
        assert runs_on(q, 2) == {"a", "b"}
        assert runs_on(q, 0) == {"a"}


class TestDropExpired:
    def test_drop_expired_removes_and_returns(self):
        q = ReadyQueue()
        fresh = job("fresh", release=1.0, deadline=1.0)
        stale = job("stale", release=0.0, deadline=0.05)
        q.push(fresh)
        q.push(stale)
        dropped = q.drop_expired(now=0.5)
        assert dropped == [stale]
        assert list(q) == [fresh]

    def test_drop_expired_boundary_is_inclusive(self):
        q = ReadyQueue()
        edge = job("edge", release=0.0, deadline=0.5)
        q.push(edge)
        assert q.drop_expired(now=0.5) == [edge]

    def test_drop_expired_none(self):
        q = ReadyQueue()
        q.push(job("a", release=0.0, deadline=10.0))
        assert q.drop_expired(now=0.1) == []


class TestBoundedPush:
    """One ``push`` admits a release and evicts for the bounded channel."""

    def test_evicts_the_oldest_job_of_the_task_at_the_limit(self):
        q = ReadyQueue()
        spec = job("a").task
        old, mid = (Job(spec, r, 0.01) for r in (0.0, 0.1))
        other = job("b", release=0.05)
        for j in (old, other, mid):
            assert q.push(j, 2) is None
        new = Job(spec, 0.2, 0.01)
        assert q.push(new, 2) is old
        assert list(q) == [other, mid, new]
        assert q.count("a") == 2 and q.count("b") == 1

    def test_below_the_limit_nothing_is_evicted(self):
        q = ReadyQueue()
        spec = job("a").task
        for r in (0.0, 0.1, 0.2):
            assert q.push(Job(spec, r, 0.01), 4) is None
        assert q.count("a") == 3

    def test_eviction_keeps_the_watermark_a_lower_bound(self):
        # The victim held the earliest deadline; the sweep after it still
        # finds the newcomer's, which is earlier than the survivor's.
        q = ReadyQueue()
        victim = job("a", release=0.0, deadline=0.1)
        survivor = job("b", release=0.0, deadline=1.0)
        q.push(victim, 1)
        q.push(survivor, 1)
        newcomer = Job(victim.task, 0.2, 0.01)  # due just after 0.3
        assert q.push(newcomer, 1) is victim
        assert q.drop_expired(now=0.35) == [newcomer]
        assert q.drop_expired(now=0.9) == []
        assert q.drop_expired(now=1.0) == [survivor]
