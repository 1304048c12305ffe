"""Importable benchmark bodies and the built-in suite registration.

Each function here is a self-contained measurable workload: deterministic
(fixed seeds, no wall-clock reads — the *runner* owns the stopwatch) and
returning its domain metrics as a flat ``{name: float}`` mapping.  The
pytest benches under ``benchmarks/`` call these same functions through
pytest-benchmark; ``hcperf bench run`` wraps them in
:class:`~repro.devtools.bench.registry.BenchSpec` records below.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence

from .registry import BenchSpec, register_bench

__all__ = [
    "executor_sim",
    "typed_dispatch",
    "newest_only_activation",
    "make_hungarian_cost",
    "hungarian_kernel",
    "fusion_detections",
    "fusion_kernel",
    "coordination_overhead",
    "fleet_multi_seed_smoke",
]


# ----------------------------------------------------------------------
# Executor: simulated-seconds-per-wall-second of the 23-task graph
# ----------------------------------------------------------------------
def executor_sim(scheduler: str = "EDF", horizon: float = 5.0) -> Dict[str, float]:
    """Simulate the full task graph for ``horizon`` seconds under a policy."""
    from ...rt import RTExecutor, SimConfig
    from ...schedulers import SCHEDULERS
    from ...workloads import full_task_graph

    executor = RTExecutor(
        full_task_graph(),
        SCHEDULERS[scheduler](),
        SimConfig(n_processors=2, horizon=horizon, coordination_period=0.5, seed=0),
    )
    metrics = executor.run()
    return {
        "tasks_finished": float(metrics.total_finished),
        "miss_ratio": float(metrics.overall_miss_ratio),
    }


def typed_dispatch(scheduler: str = "EDF", horizon: float = 5.0) -> Dict[str, float]:
    """Simulate the GPU-typed graph on a ``2xCPU+1xGPU@3`` platform.

    The heterogeneous counterpart of :func:`executor_sim`: every dispatch
    runs the affinity filter and the per-unit speedup scaling, so the bench
    prices the typed-platform overhead against the scalar baseline.
    """
    from ...rt import RTExecutor, SimConfig
    from ...schedulers import SCHEDULERS
    from ...workloads import heterogeneous_task_graph

    executor = RTExecutor(
        heterogeneous_task_graph(),
        SCHEDULERS[scheduler](),
        SimConfig(processor_profile="2xCPU+1xGPU@3", horizon=horizon,
                  coordination_period=0.5, seed=0),
    )
    metrics = executor.run()
    return {
        "tasks_finished": float(metrics.total_finished),
        "miss_ratio": float(metrics.overall_miss_ratio),
    }


def newest_only_activation(scheduler: str = "EDF", horizon: float = 5.0) -> Dict[str, float]:
    """Simulate the full graph with fusion on newest-only activation.

    Fusion fires on every fresh detector output instead of waiting for the
    AND-join, multiplying its release rate — the activation hot path this
    bench keeps honest.
    """
    from ...rt import RTExecutor, SimConfig
    from ...schedulers import SCHEDULERS
    from ...workloads import full_task_graph
    from ...workloads.profiles import FUSION_TASK

    graph = full_task_graph()
    graph.task(FUSION_TASK).activation = "newest-only"
    executor = RTExecutor(
        graph,
        SCHEDULERS[scheduler](),
        SimConfig(n_processors=2, horizon=horizon, coordination_period=0.5, seed=0),
    )
    metrics = executor.run()
    return {
        "tasks_finished": float(metrics.total_finished),
        "fusion_released": float(metrics.per_task[FUSION_TASK].released),
        "miss_ratio": float(metrics.overall_miss_ratio),
    }


# ----------------------------------------------------------------------
# Perception micro-kernels: Hungarian assignment and sensor fusion
# ----------------------------------------------------------------------
def make_hungarian_cost(n: int, seed: int = 0) -> List[List[float]]:
    """A dense random ``n x n`` cost matrix (the fusion inner problem)."""
    rng = random.Random(seed)
    return [[rng.uniform(0, 100) for _ in range(n)] for _ in range(n)]


def hungarian_kernel(n: int = 40, repeats: int = 5) -> Dict[str, float]:
    """Solve the ``n x n`` assignment problem ``repeats`` times."""
    from ...perception import hungarian

    cost = make_hungarian_cost(n)
    assignment: Sequence[int] = ()
    for _ in range(repeats):
        assignment = hungarian(cost)
    return {"n": float(n), "repeats": float(repeats), "assigned": float(len(assignment))}


def fusion_detections(n: int, seed: int = 0):
    """Camera + lidar detections over a synthetic ``n``-obstacle scene."""
    from ...perception import CameraDetector, LidarDetector, Obstacle, Scene

    rng = random.Random(seed)
    scene = Scene(
        t=0.0,
        obstacles=[
            Obstacle(i, rng.uniform(-50, 50), rng.uniform(-50, 50)) for i in range(n)
        ],
    )
    cam = CameraDetector(seed=1, miss_prob=0.0)
    lid = LidarDetector(seed=2, miss_prob=0.0)
    return cam.detect(scene), lid.detect(scene)


def fusion_kernel(n: int = 40, repeats: int = 5) -> Dict[str, float]:
    """Fuse camera/lidar detections of an ``n``-obstacle scene ``repeats`` times."""
    from ...perception import ConfigurableSensorFusion

    cam_dets, lid_dets = fusion_detections(n)
    fusion = ConfigurableSensorFusion()
    fused = []
    for _ in range(repeats):
        fused = fusion.fuse(cam_dets, lid_dets)
    return {"n_obstacles": float(n), "repeats": float(repeats), "n_fused": float(len(fused))}


# ----------------------------------------------------------------------
# Coordination step: the paper's §VII-E overhead experiment
# ----------------------------------------------------------------------
def coordination_overhead(iterations: int = 200, queue_depth: int = 24) -> Dict[str, float]:
    """Cost of a full coordination step over a populated ready queue (ms)."""
    from ...experiments import overhead

    result = overhead.run(seed=0, queue_depth=queue_depth, iterations=iterations)
    # Convert each component once and derive the totals from the converted
    # values: "step == sum of components" must hold exactly in the export,
    # and (a+b+c)*1000 is not bit-identical to a*1000+b*1000+c*1000.
    mfc_ms = result.mfc_step * 1000
    gamma_ms = result.gamma_resolve * 1000
    rate_ms = result.rate_adapter_step * 1000
    step_ms = mfc_ms + gamma_ms + rate_ms
    return {
        "iterations": float(iterations),
        "queue_depth": float(queue_depth),
        "mfc_step_ms": mfc_ms,
        "gamma_resolve_ms": gamma_ms,
        "rate_adapter_step_ms": rate_ms,
        "coordination_step_ms": step_ms,
        "per_second_budget_ms": step_ms * 2.0,
    }


# ----------------------------------------------------------------------
# Fleet: one small multi-seed campaign end-to-end
# ----------------------------------------------------------------------
def fleet_multi_seed_smoke(
    seeds: Sequence[int] = (0, 1),
    schemes: Sequence[str] = ("EDF", "HCPerf"),
    horizon: float = 10.0,
) -> Dict[str, float]:
    """A tiny fig13 (scheme x seed) grid through the fleet backend."""
    from ...experiments.multi_seed import run_multi_seed

    result = run_multi_seed(
        "fig13",
        metric="speed_error_rms",
        metric_name="speed-error RMS (m/s)",
        seeds=seeds,
        schemes=schemes,
        overrides={"horizon": horizon},
        jobs=1,
    )
    metrics: Dict[str, float] = {
        "n_runs": float(len(seeds) * len(schemes)),
        "hcperf_win_ratio": result.win_ratio("HCPerf"),
    }
    for scheme, summary in result.summaries.items():
        metrics[f"{scheme.lower()}_speed_rms_mean"] = summary.mean
    return metrics


# ----------------------------------------------------------------------
# Faults: twin-run resilience evaluation end-to-end
# ----------------------------------------------------------------------
def faults_recovery(scheduler: str = "HCPerf", horizon: float = 10.0) -> Dict[str, float]:
    """Fault-free twin + faulty run + recovery metrics on a short fig13.

    The spec is the canonical suite compressed to the short horizon: a
    fusion overload spike, then a processor failure with recovery.
    """
    from ...faults.resilience import run_resilience
    from ...faults.spec import ExecTimeSpike, FaultSpec, ProcessorFailure
    from ...workloads.scenarios import fig13_car_following

    spec = FaultSpec(
        name="bench_recovery",
        seed=0,
        faults=[
            ExecTimeSpike(task="sensor_fusion", t_on=2.0, t_off=4.0, factor=2.0),
            ProcessorFailure(processor=1, t_fail=5.0, t_recover=6.5),
        ],
    )
    report = run_resilience(
        lambda: fig13_car_following(horizon=horizon), scheduler, spec, seed=0
    )
    return {
        "recovered": 1.0 if report.recovered else 0.0,
        "time_to_recover_s": (
            report.time_to_recover if report.time_to_recover is not None else -1.0
        ),
        "peak_miss_ratio": report.peak_miss_ratio,
        "steady_miss_ratio": report.steady_state_miss_ratio,
        "n_fault_events": float(len(report.fault_events)),
    }


# ----------------------------------------------------------------------
# Built-in suite registration
# ----------------------------------------------------------------------
register_bench(BenchSpec(
    name="executor_edf",
    fn=lambda: executor_sim("EDF", horizon=5.0),
    description="RTExecutor, 23-task graph, 5 simulated s under EDF",
    rounds=3,
    suites=("smoke", "full"),
    sim_seconds=5.0,
))
register_bench(BenchSpec(
    name="executor_hcperf",
    fn=lambda: executor_sim("HCPerf", horizon=5.0),
    description="RTExecutor, 23-task graph, 5 simulated s under HCPerf",
    rounds=3,
    suites=("smoke", "full"),
    sim_seconds=5.0,
))
register_bench(BenchSpec(
    name="typed_dispatch",
    fn=lambda: typed_dispatch("EDF", horizon=5.0),
    description="RTExecutor, GPU-typed graph on 2xCPU+1xGPU@3, 5 simulated s",
    rounds=3,
    suites=("smoke", "full"),
    sim_seconds=5.0,
))
register_bench(BenchSpec(
    name="newest_only_activation",
    fn=lambda: newest_only_activation("EDF", horizon=5.0),
    description="RTExecutor, fusion on newest-only activation, 5 simulated s",
    rounds=3,
    suites=("smoke", "full"),
    sim_seconds=5.0,
))
register_bench(BenchSpec(
    name="hungarian_40",
    fn=lambda: hungarian_kernel(n=40),
    description="Hungarian assignment, dense 40x40 cost matrix (x5)",
    rounds=5,
    suites=("smoke", "full"),
))
register_bench(BenchSpec(
    name="fusion_40",
    fn=lambda: fusion_kernel(n=40),
    description="Camera/lidar sensor fusion, 40-obstacle scene (x5)",
    rounds=5,
    suites=("smoke", "full"),
))
register_bench(BenchSpec(
    name="coordination_step",
    fn=lambda: coordination_overhead(iterations=200),
    description="Full hierarchical-coordination step, 24-job queue (x200)",
    rounds=3,
    suites=("smoke", "full"),
))
register_bench(BenchSpec(
    name="fleet_multi_seed",
    fn=lambda: fleet_multi_seed_smoke(),
    description="Fleet campaign: fig13, 2 schemes x 2 seeds, 10 s horizon",
    rounds=2,
    suites=("smoke", "full"),
    sim_seconds=40.0,
))
register_bench(BenchSpec(
    name="faults_recovery",
    fn=lambda: faults_recovery("HCPerf", horizon=10.0),
    description="Fault injection: twin-run resilience eval, fig13, 10 s horizon",
    rounds=2,
    suites=("smoke", "full"),
    sim_seconds=20.0,
))
register_bench(BenchSpec(
    name="executor_edf_long",
    fn=lambda: executor_sim("EDF", horizon=20.0),
    description="RTExecutor, 23-task graph, 20 simulated s under EDF",
    rounds=3,
    suites=("full",),
    sim_seconds=20.0,
))
register_bench(BenchSpec(
    name="hungarian_80",
    fn=lambda: hungarian_kernel(n=80),
    description="Hungarian assignment, dense 80x80 cost matrix (x5)",
    rounds=3,
    suites=("full",),
))
