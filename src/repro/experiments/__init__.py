"""Experiment modules — one per table/figure of the paper's evaluation.

Every module exposes ``EXPERIMENT_ID``, ``run(...) -> <Result>``,
``render(result) -> str`` and ``main(seed: int = 0) -> str``; the claims
ledger (``benchmarks/test_claims.py``) and the CLI drive them uniformly.
See DESIGN.md §5 for the experiment index.
"""

from . import (
    fig04_motivation,
    fig05_toy,
    fig12_exectime,
    fig13_car_following,
    fig14_lane_keeping,
    fig15_hardware,
    fig17_responsiveness,
    fig18_ablation,
    heterogeneous,
    overhead,
    resilience,
)
from .runner import DEFAULT_SCHEMES, RunResult, compare_schedulers, run_scenario

#: Registry for the CLI: experiment id -> module.
EXPERIMENTS = {
    module.EXPERIMENT_ID: module
    for module in (
        fig04_motivation,
        fig05_toy,
        fig12_exectime,
        fig13_car_following,
        fig14_lane_keeping,
        fig15_hardware,
        fig17_responsiveness,
        fig18_ablation,
        heterogeneous,
        overhead,
        resilience,
    )
}

__all__ = [
    "DEFAULT_SCHEMES",
    "RunResult",
    "compare_schedulers",
    "run_scenario",
    "EXPERIMENTS",
    "fig04_motivation",
    "fig05_toy",
    "fig12_exectime",
    "fig13_car_following",
    "fig14_lane_keeping",
    "fig15_hardware",
    "fig17_responsiveness",
    "fig18_ablation",
    "heterogeneous",
    "overhead",
    "resilience",
]
