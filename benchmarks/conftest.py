"""Benchmark configuration.

The remaining benches time the simulator's micro-kernels and scaling
(executor, coordination step, fusion, graph and processor count); run them
with ``pytest benchmarks/bench_*.py --benchmark-only -s``.  The paper's
tables and figures live in the claims ledger (``test_claims.py``), and the
exact work counts in ``test_work_counters.py``.

Expensive deterministic runs time one round; micro-benches use normal
multi-round timing.
"""

import pytest


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark an expensive deterministic experiment with one round."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture
def once(benchmark):
    def _run(fn, *args, **kwargs):
        return run_once(benchmark, fn, *args, **kwargs)

    return _run
