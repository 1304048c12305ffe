"""Benchmark configuration.

Two bench modules remain, each behind a claim: E9's overhead report
(``bench_overhead.py``) and E10's fusion calibration
(``bench_fusion_profile.py``); run them with
``pytest benchmarks/bench_*.py --benchmark-only -s``.  The perception
kernels E10 profiles live beside it in ``perception/``, with their tests.
The paper's tables and figures live in the claims ledger
(``test_claims.py``), and the exact work counts in
``test_work_counters.py``.

Expensive deterministic runs time one round; the Hungarian kernel bench
uses normal multi-round timing.
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
