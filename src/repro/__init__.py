"""HCPerf reproduction — performance-directed hierarchical coordination for
autonomous vehicles (Ma, Li, Wang, Wang & Xu, ICDCS 2023).

Package map
-----------
``repro.core``
    The paper's contribution: Model-Free Control performance-directed
    controller (ADE + MFC), the dynamic-priority scheduler
    (``P_i = γ·p_i + d_i`` with the Eq. 11 γ_max search) and the Task Rate
    Adapter.
``repro.rt``
    Real-time substrate: DAG task model, execution-time models and the
    discrete-event multiprocessor executor.
``repro.schedulers``
    The five evaluated policies: HPF, EDF, EDF-VD, Apollo, and HCPerf, whose
    :class:`~repro.schedulers.hcperf.HCPerfScheduler` runs the core
    components as the paper's two coordinators (Fig. 6).
``repro.vehicle``
    Vehicle plants (car following, lane keeping), lead-car profiles,
    noise/lag models.
``repro.workloads``
    The Fig. 2 / Fig. 11 task-graph profiles, the scenario scripts and
    their scene-complexity timelines.
``repro.experiments``
    One module per paper table/figure; see DESIGN.md §5.
``repro.fleet``
    Campaign engine: scenario × scheduler × seed grids sharded over a
    worker pool, streamed into a resumable JSONL result store.
``repro.faults``
    Deterministic fault injection: declarative :class:`~repro.faults.spec.FaultSpec`
    sequences (exec-time spikes, sensor dropouts, processor failures, …)
    attached to an executor by :class:`~repro.faults.harness.InjectionHarness`,
    plus twin-run recovery metrics (:func:`~repro.faults.resilience.run_resilience`).

Quickstart
----------
>>> from repro import run_scenario, fig13_car_following
>>> result = run_scenario(fig13_car_following(horizon=20.0), "HCPerf", seed=0)
>>> result.overall_miss_ratio() <= 0.05
True
"""

from .core import (
    AlgebraicDifferentiator,
    DynamicPriorityPolicy,
    ModelFreeController,
    TaskRateAdapter,
)
from .experiments.runner import (
    DEFAULT_SCHEMES,
    RunResult,
    compare_schedulers,
    run_scenario,
)
from .faults import FaultSpec, InjectionHarness, ResilienceReport, run_resilience
from .fleet import CampaignSpec, ResultStore, render_store, run_campaign
from .rt import ProcessorProfile, RTExecutor, SimConfig, TaskGraph, TaskSpec, UnitSpec
from .schedulers import SCHEDULERS, HCPerfConfig, Scheduler, make_scheduler
from .workloads import (
    SCENARIOS,
    Scenario,
    fig13_car_following,
    full_task_graph,
    hardware_car_following,
    lane_keeping_loop,
    motivation_graph,
    motivation_red_light,
    traffic_jam_responsiveness,
)

__version__ = "1.0.0"

__all__ = [
    "AlgebraicDifferentiator",
    "DynamicPriorityPolicy",
    "ModelFreeController",
    "TaskRateAdapter",
    "DEFAULT_SCHEMES",
    "RunResult",
    "compare_schedulers",
    "run_scenario",
    "FaultSpec",
    "InjectionHarness",
    "ResilienceReport",
    "run_resilience",
    "CampaignSpec",
    "ResultStore",
    "render_store",
    "run_campaign",
    "ProcessorProfile",
    "UnitSpec",
    "RTExecutor",
    "SimConfig",
    "TaskGraph",
    "TaskSpec",
    "SCHEDULERS",
    "HCPerfConfig",
    "Scheduler",
    "make_scheduler",
    "SCENARIOS",
    "Scenario",
    "fig13_car_following",
    "full_task_graph",
    "hardware_car_following",
    "lane_keeping_loop",
    "motivation_graph",
    "motivation_red_light",
    "traffic_jam_responsiveness",
    "__version__",
]
