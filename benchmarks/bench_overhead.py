"""E9 — §VII-E overhead: the cost of one coordination step.

This is a genuine micro-bench (multi-round): one full coordination step of
the hierarchical coordinator over a realistic 24-job ready queue.
"""

from repro.core import HierarchicalCoordinator
from repro.experiments import overhead


def test_bench_overhead_report(once):
    result = once(overhead.run, seed=0, queue_depth=24, iterations=200)
    print("\n" + overhead.render(result))
    # Paper: < 5 ms per 1 s period.  Generous CI margin.
    assert result.per_second_budget() < 0.050


def test_bench_coordination_step(benchmark):
    coordinator = HierarchicalCoordinator()
    jobs = overhead._make_queue(24, seed=0)
    for k in range(20):
        coordinator.report_performance(k * 0.05, 0.5)

    state = {"t": 1.0}

    def step():
        state["t"] += 0.5
        coordinator.report_performance(state["t"] - 0.25, 0.4)
        coordinator.sample_controller(state["t"])
        coordinator.resolve_gamma(
            0.06, jobs, lambda j: j.exec_time, busy_remaining=0.02, n_processors=2
        )

    benchmark(step)
