"""E9 — §VII-E: computation overhead of HCPerf.

Measures the wall-clock cost of one full coordination step — MFC update,
γ_max search over a populated ready queue, dynamic-priority ranking, and
one Task Rate Adapter step.  The paper reports < 5 ms per 1 s period on the
scaled car's Core-i3; the components are linear/log-linear, so the cost is
stable across scenarios.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import List

from ..analysis.report import format_table
from ..core.dynamic_priority import DynamicPriorityPolicy
from ..core.mfc import ModelFreeController
from ..core.rate_adapter import TaskRateAdapter
from ..rt.exectime import ExecContext
from ..rt.task import Job
from ..workloads.profiles import full_task_graph

__all__ = ["EXPERIMENT_ID", "OverheadResult", "run", "render", "main"]

EXPERIMENT_ID = "overhead"


@dataclass
class OverheadResult:
    """Mean wall-clock cost per component (seconds)."""

    queue_depth: int
    iterations: int
    mfc_step: float
    gamma_resolve: float
    rate_adapter_step: float

    @property
    def coordination_step(self) -> float:
        """One full coordination step (all three components)."""
        return self.mfc_step + self.gamma_resolve + self.rate_adapter_step

    def per_second_budget(self, coordination_period: float = 0.5) -> float:
        """Wall-clock cost per 1 s of operation at the given period."""
        if coordination_period <= 0:
            raise ValueError("coordination_period must be positive")
        steps_per_second = 1.0 / coordination_period
        return self.coordination_step * steps_per_second


def _make_queue(depth: int, seed: int) -> List[Job]:
    """A realistic ready queue: jobs sampled from the Fig. 11 graph."""
    rng = random.Random(seed)
    graph = full_task_graph()
    specs = graph.tasks()
    ctx = ExecContext(now=0.0, scene_complexity=10.0)
    jobs = []
    for i in range(depth):
        spec = specs[i % len(specs)]
        jobs.append(
            Job(
                task=spec,
                release_time=rng.uniform(0.0, 0.05),
                exec_time=spec.exec_model.sample(ctx, rng),
            )
        )
    return jobs


def run(seed: int = 0, queue_depth: int = 24, iterations: int = 200) -> OverheadResult:
    """Time the three coordination components on a populated queue."""
    if queue_depth < 1 or iterations < 1:
        raise ValueError("queue_depth and iterations must be >= 1")
    controller = ModelFreeController()
    policy = DynamicPriorityPolicy()
    adapter = TaskRateAdapter()
    jobs = _make_queue(queue_depth, seed)
    rates = {"camera_front": 40.0, "lidar_pointcloud": 40.0, "radar_front": 40.0}
    for name in rates:
        adapter.set_rate_range(name, 20.0, 60.0)
    estimate = lambda name, c: c

    # Warm the controller with an error trace.
    error = 0.0
    for k in range(20):
        error = 0.5 + 0.1 * k
        controller.observe(k * 0.05, error)

    t0 = time.perf_counter()
    for k in range(iterations):
        controller.update(1.0 + k * 0.5, error)
    mfc = (time.perf_counter() - t0) / iterations

    t0 = time.perf_counter()
    for k in range(iterations):
        policy.resolve(controller.u, jobs, 0.06, estimate, 0.02, 2)
    gamma = (time.perf_counter() - t0) / iterations

    t0 = time.perf_counter()
    for k in range(iterations):
        adapter.update(0.02 if k % 3 else 0.0, dict(rates))
    rate = (time.perf_counter() - t0) / iterations

    return OverheadResult(
        queue_depth=queue_depth,
        iterations=iterations,
        mfc_step=mfc,
        gamma_resolve=gamma,
        rate_adapter_step=rate,
    )


def render(result: OverheadResult) -> str:
    rows = [
        ["MFC update (Performance Directed Controller)", result.mfc_step * 1000],
        [f"γ_max search + clamp (queue depth {result.queue_depth})", result.gamma_resolve * 1000],
        ["Task Rate Adapter step", result.rate_adapter_step * 1000],
        ["full coordination step", result.coordination_step * 1000],
        ["per 1 s period (0.5 s coordination)", result.per_second_budget() * 1000],
    ]
    return format_table(
        "§VII-E — HCPerf computation overhead (paper: < 5 ms per 1 s period)",
        ["component", "mean wall-clock (ms)"],
        rows,
    )


def main(seed: int = 0) -> str:  # pragma: no cover - CLI glue
    out = render(run(seed=seed))
    print(out)
    return out
