"""Brute-force oracle for the ready queue's O(1) bookkeeping.

Random sequences of ``push`` (unbounded, or on a bounded channel),
``remove``, ``pop_best`` and ``drop_expired`` run against a plain list that
is swept in full at every step:

* the earliest-deadline watermark never lets ``drop_expired`` skip an
  expired job — after every step a probe at a drawn instant (often exactly
  a queued deadline) drops what a full sweep finds, in queue order;
* the per-task counts always equal a recount;
* a bounded push evicts the oldest queued job of the task, the victim the
  executor used to pick as ``[j for j in queue if same task][0]``, and
  leaves the task's count where it was.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rt import ConstantExecTime, Job, ProcessorState, ReadyQueue, TaskSpec
from repro.schedulers import Scheduler

TASKS = [
    TaskSpec(f"t{i}", priority=i, relative_deadline=d, exec_model=ConstantExecTime(0.01),
             affinity=a)
    for i, (d, a) in enumerate([(0.05, None), (0.1, {"GPU"}), (0.3, None), (0.1, {"CPU"})])
]
UNIT_TYPES = ("CPU", "GPU", "NPU")
GRID = [i * 0.05 for i in range(12)]
OPS = ("push", "push", "push", "remove", "pop_best", "drop_expired", "bounded_push")


def instants(draw, shadow):
    """A probe time: on the grid, or exactly one queued deadline."""
    deadlines = [j.absolute_deadline for j in shadow]
    if deadlines and draw(st.booleans()):
        return draw(st.sampled_from(deadlines))
    return draw(st.sampled_from(GRID))


def check_counts(queue, shadow):
    for spec in TASKS:
        assert queue.count(spec.name) == sum(j.task.name == spec.name for j in shadow)
    assert list(queue) == shadow


def sweep(queue, shadow, now):
    """``drop_expired`` against the brute-force sweep of the shadow list."""
    expected = [j for j in shadow if now >= j.absolute_deadline]
    assert queue.drop_expired(now) == expected
    for job in expected:
        shadow.remove(job)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_bookkeeping_matches_brute_force(data):
    draw = data.draw
    queue, shadow = ReadyQueue(), []
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        op = draw(st.sampled_from(OPS))
        if op == "push":
            spec = draw(st.sampled_from(TASKS))
            job = Job(task=spec, release_time=draw(st.sampled_from(GRID)), exec_time=0.01)
            assert queue.push(job) is None
            shadow.append(job)
        elif op == "remove" and shadow:
            job = draw(st.sampled_from(shadow))
            queue.remove(job)
            shadow.remove(job)
        elif op == "pop_best":
            order = draw(st.permutations(shadow))
            proc = ProcessorState(0, unit_type=draw(st.sampled_from(UNIT_TYPES)))
            eligible = [j for j in order if proc.can_run(j.task)]
            admits = frozenset(t.name for t in TASKS if Scheduler().eligible(t, proc))
            picked = queue.pop_best(list(order), admits)
            assert picked is (eligible[0] if eligible else None)
            if picked is not None:
                shadow.remove(picked)
        elif op == "drop_expired":
            sweep(queue, shadow, instants(draw, shadow))
        elif op == "bounded_push":
            # Mostly a task already queued, so there is a victim to choose.
            spec = draw(st.sampled_from([j.task for j in shadow] or TASKS))
            job = Job(task=spec, release_time=draw(st.sampled_from(GRID)), exec_time=0.01)
            limit = draw(st.integers(min_value=1, max_value=3))
            queued_same = [j for j in shadow if j.task.name == spec.name]
            victim = queue.push(job, limit)
            assert victim is (queued_same[0] if len(queued_same) >= limit else None)
            if victim is not None:
                shadow.remove(victim)
            shadow.append(job)
        check_counts(queue, shadow)
        # The watermark probe: whatever happened above, a sweep at any
        # instant drops exactly the expired jobs.
        sweep(queue, shadow, instants(draw, shadow))
        check_counts(queue, shadow)
