"""Brute-force oracle for the ready queue's O(1) bookkeeping.

Random sequences of ``push``, ``remove``, ``pop_best``, ``drop_expired``,
``evict`` and ``clear`` run against a plain list that is swept in full at
every step:

* the earliest-deadline watermark never lets ``drop_expired`` skip an
  expired job — after every step a probe at a drawn instant (often exactly
  a queued deadline) drops what a full sweep finds, in queue order;
* the per-task counts always equal a recount;
* bounded-channel eviction takes the oldest queued job of the task, the
  victim the executor used to pick as ``[j for j in queue if same task][0]``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rt import ConstantExecTime, Job, ProcessorState, ReadyQueue, TaskSpec

TASKS = [
    TaskSpec(f"t{i}", priority=i, relative_deadline=d, exec_model=ConstantExecTime(0.01),
             processor_binding=b)
    for i, (d, b) in enumerate([(0.05, None), (0.1, 0), (0.3, None), (0.1, 1)])
]
GRID = [i * 0.05 for i in range(12)]
OPS = ("push", "push", "push", "remove", "pop_best", "drop_expired", "evict", "clear")


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
            queue.push(job)
            shadow.append(job)
        elif op == "remove" and shadow:
            job = draw(st.sampled_from(shadow))
            queue.remove(job)
            shadow.remove(job)
        elif op == "pop_best":
            order = draw(st.permutations(shadow))
            proc = ProcessorState(draw(st.integers(min_value=0, max_value=2)))
            eligible = [j for j in order if proc.can_run(j.task)]
            picked = queue.pop_best(list(order), lambda j: proc.can_run(j.task))
            assert picked is (eligible[0] if eligible else None)
            if picked is not None:
                shadow.remove(picked)
        elif op == "drop_expired":
            sweep(queue, shadow, instants(draw, shadow))
        elif op == "evict":
            spec = draw(st.sampled_from(TASKS))
            limit = draw(st.integers(min_value=1, max_value=3))
            queued_same = [j for j in shadow if j.task.name == spec.name]
            victim = queue.evict(spec.name, limit)
            assert victim is (queued_same[0] if len(queued_same) >= limit else None)
            if victim is not None:
                shadow.remove(victim)
        elif op == "clear":
            assert queue.clear() == shadow
            shadow = []
        check_counts(queue, shadow)
        # The watermark probe: whatever happened above, a sweep at any
        # instant drops exactly the expired jobs.
        sweep(queue, shadow, instants(draw, shadow))
        check_counts(queue, shadow)
