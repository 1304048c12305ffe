"""E9 — §VII-E overhead: the cost of one coordination step.

Runs ``repro.experiments.overhead`` (the ``hcperf overhead`` entry point)
over a realistic 24-job ready queue and checks the per-second budget.
"""

from repro.experiments import overhead


def test_bench_overhead_report(once):
    result = once(overhead.run, seed=0, queue_depth=24, iterations=200)
    print("\n" + overhead.render(result))
    # Paper: < 5 ms per 1 s period.  Generous CI margin.
    assert result.per_second_budget() < 0.050

