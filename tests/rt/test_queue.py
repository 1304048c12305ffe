"""Unit tests for the ready queue."""

from repro.rt import ConstantExecTime, Job, ProcessorState, ReadyQueue, TaskSpec


def runs_on(index):
    """The executor's eligibility filter for processor ``index``."""
    proc = ProcessorState(index=index)
    return lambda j: proc.can_run(j.task)


def anywhere(job):
    return True


def ranked(q, key):
    """The executor's once-per-round ranking of ``q`` under ``key``."""
    return q.ranked([key(j) for j in q])


def job(name="t", priority=1, release=0.0, exec_time=0.01, deadline=0.1, binding=None):
    spec = TaskSpec(
        name=name,
        priority=priority,
        relative_deadline=deadline,
        exec_model=ConstantExecTime(exec_time),
        processor_binding=binding,
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

    def test_jobs_snapshot_is_copy(self):
        q = ReadyQueue()
        q.push(job("a"))
        snapshot = q.jobs()
        snapshot.clear()
        assert len(q) == 1

    def test_clear_returns_jobs(self):
        q = ReadyQueue()
        a, b = job("a"), job("b")
        q.push(a)
        q.push(b)
        removed = q.clear()
        assert removed == [a, b] and len(q) == 0


class TestPopBest:
    def test_pop_best_minimizes_key(self):
        q = ReadyQueue()
        lo = job("lo", priority=1)
        hi = job("hi", priority=5)
        q.push(hi)
        q.push(lo)
        order = ranked(q, lambda j: j.task.priority)
        picked = q.pop_best(order, anywhere)
        assert picked is lo
        assert hi in q and order == [hi]

    def test_pop_best_tie_breaks_by_insertion(self):
        q = ReadyQueue()
        first = job("first", priority=2)
        second = job("second", priority=2)
        q.push(first)
        q.push(second)
        assert q.pop_best(ranked(q, lambda j: j.task.priority), anywhere) is first

    def test_pop_best_empty_returns_none(self):
        assert ReadyQueue().pop_best([], anywhere) is None

    def test_pop_best_respects_binding(self):
        q = ReadyQueue()
        bound = job("bound", priority=1, binding=0)
        free = job("free", priority=5)
        q.push(bound)
        q.push(free)
        # Processor 1 cannot run the bound job even though it ranks better.
        order = ranked(q, lambda j: j.task.priority)
        picked = q.pop_best(order, runs_on(1))
        assert picked is free
        # Processor 0 may run it.
        picked0 = q.pop_best(order, runs_on(0))
        assert picked0 is bound

    def test_pop_best_no_eligible_returns_none(self):
        q = ReadyQueue()
        q.push(job("bound", binding=0))
        assert q.pop_best(list(q), runs_on(3)) is None
        assert len(q) == 1


class TestEligible:
    def test_eligible_includes_unbound(self):
        q = ReadyQueue()
        a = job("a")
        b = job("b", binding=2)
        q.push(a)
        q.push(b)
        assert [j for j in q if runs_on(2)(j)] == [a, b]
        assert [j for j in q if runs_on(0)(j)] == [a]


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
