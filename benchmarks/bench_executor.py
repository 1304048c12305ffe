"""Engine micro-bench: simulated-seconds-per-wall-second of the executor.

Not a paper artifact, but the number a downstream user asks first: how fast
does the substrate simulate the 23-task graph?  The end-to-end benchmark
(``benchmarks/e2e/``) is where a speed-up has to show before it counts.
"""

from repro.rt import RTExecutor, SimConfig
from repro.schedulers import SCHEDULERS
from repro.workloads import full_task_graph


def _simulate(scheduler):
    executor = RTExecutor(
        full_task_graph(),
        SCHEDULERS[scheduler](),
        SimConfig(n_processors=2, horizon=5.0, coordination_period=0.5, seed=0),
    )
    return executor.run()


def test_bench_executor_edf(benchmark):
    metrics = benchmark.pedantic(_simulate, args=("EDF",), rounds=3, iterations=1)
    assert metrics.total_finished > 0


def test_bench_executor_hcperf(benchmark):
    metrics = benchmark.pedantic(_simulate, args=("HCPerf",), rounds=3, iterations=1)
    assert metrics.total_finished > 0
