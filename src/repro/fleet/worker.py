"""Job execution — the code that runs inside every worker process.

``execute_job`` is a module-level function over a picklable :class:`Job`,
so the same entry point serves the serial backend, a ``fork`` pool and a
``spawn`` pool identically: rebuild the scenario from the registry, apply
the job's config overrides, run it, and reduce the result to the JSON
summary the store keeps.  Determinism comes from the run seed being part
of the job — nothing about worker identity or scheduling order leaks into
the result.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Mapping

from ..experiments.runner import run_scenario
from ..rt.exectime import StepExecTime
from ..workloads.profiles import default_fusion_model, full_task_graph
from ..workloads.scenarios import Scenario
from .manifest import Job

__all__ = ["build_scenario", "execute_job"]

_FUSION_KEYS = ("fusion_normal_ms", "fusion_elevated_ms", "fusion_t_on", "fusion_t_off")


def build_scenario(name: str, overrides: Mapping[str, object]) -> Scenario:
    """Instantiate a registry scenario with a job's config overrides applied.

    ``horizon`` is passed to the scenario factory; platform keys patch the
    :class:`SimConfig`; the ``fusion_*`` family swaps the graph factory for
    a full task graph with a step fusion model — the parametrization the
    sensitivity sweep explores.
    """
    from ..workloads import SCENARIOS

    factory = SCENARIOS[name]
    horizon = overrides.get("horizon")
    scenario = factory(horizon=float(horizon)) if horizon is not None else factory()

    sim_patch: Dict[str, object] = {}
    if "n_processors" in overrides:
        sim_patch["n_processors"] = int(overrides["n_processors"])
    if "processor_profile" in overrides:
        # Kept as the canonical string form: SimConfig coerces it, and the
        # string keeps job dicts JSON-plain and hash-stable.
        sim_patch["processor_profile"] = str(overrides["processor_profile"])
    if "coordination_period" in overrides:
        sim_patch["coordination_period"] = float(overrides["coordination_period"])
    if sim_patch:
        scenario.sim = dataclasses.replace(scenario.sim, **sim_patch)

    if any(k in overrides for k in _FUSION_KEYS):
        normal_s = float(overrides.get("fusion_normal_ms", 20.0)) / 1000.0
        elevated_s = float(overrides.get("fusion_elevated_ms", 40.0)) / 1000.0
        t_on = float(overrides.get("fusion_t_on", 10.0))
        t_off = float(overrides.get("fusion_t_off", scenario.sim.horizon))
        scenario.graph_factory = lambda: full_task_graph(
            fusion_model=StepExecTime(
                normal=default_fusion_model(normal_s),
                elevated=default_fusion_model(elevated_s),
                t_on=t_on,
                t_off=t_off,
            )
        )
    return scenario


def execute_job(job: Job) -> Dict[str, object]:
    """Run one job and return its store record.

    The record is the job's identity (id + defining fields) plus the
    :meth:`RunResult.to_dict` summary — everything the aggregation layer
    needs, nothing that fails to serialize.  A job carrying a fault spec
    runs with an injection harness attached; its summary gains the fault
    event log so stored fault runs stay auditable.
    """
    scenario = build_scenario(job.scenario, job.overrides)
    harness = None
    before_run = None
    if job.faults is not None:
        from ..faults.harness import InjectionHarness
        from ..faults.spec import FaultSpec

        harness = InjectionHarness(FaultSpec.from_dict(job.faults))
        before_run = harness.attach
    result = run_scenario(scenario, job.scheduler, seed=job.seed, before_run=before_run)
    summary = result.to_dict()
    if harness is not None:
        summary["fault_events"] = harness.events_dict()
    return {
        "job_id": job.id,
        "job": job.to_dict(),
        "summary": summary,
    }
