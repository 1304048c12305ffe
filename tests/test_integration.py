"""Cross-cutting integration tests: every scenario × every scheduler.

Short horizons — these verify the wiring holds everywhere, not the paper
claims (the experiment tests and benches do that).
"""

import dataclasses

import pytest

from repro.experiments.runner import DEFAULT_SCHEMES, run_scenario
from repro.obs.invariants import check_recording
from repro.obs.recorder import Recorder
from repro.rt import RTExecutor, SimConfig
from repro.schedulers import SCHEDULERS, make_scheduler
from repro.workloads import SCENARIOS, full_task_graph


HORIZON = 4.0


@pytest.mark.parametrize("scenario_name", sorted(SCENARIOS))
@pytest.mark.parametrize("scheme", DEFAULT_SCHEMES)
def test_every_pairing_runs_clean(scenario_name, scheme):
    factory = SCENARIOS[scenario_name]
    result = run_scenario(factory(horizon=HORIZON), scheme, seed=0)
    assert result.horizon == pytest.approx(HORIZON, abs=0.2)
    assert 0.0 <= result.overall_miss_ratio() <= 1.0
    assert 0.0 <= result.utilization <= 1.0 + 1e-9
    summary = result.to_dict()
    assert summary["scheduler"] == scheme
    # Rates stayed inside every adaptable task's range.
    graph = factory(horizon=HORIZON).graph_factory()
    for name, rate in result.final_rates.items():
        spec = graph.task(name)
        if spec.rate_range is not None:
            lo, hi = spec.rate_range
            assert lo <= rate <= hi, name


@pytest.mark.parametrize("scheme", DEFAULT_SCHEMES)
def test_full_graph_trace_invariants(scheme):
    """The 23-task graph honours non-preemption under every policy."""
    executor = RTExecutor(
        full_task_graph(),
        make_scheduler(scheme),
        SimConfig(n_processors=2, horizon=2.0, coordination_period=0.5, seed=0),
    )
    rec = Recorder()
    executor.recorder = rec
    executor.run()
    assert check_recording(rec) == []
    # Apollo binding: every recorded execution ran on the one unit its
    # task is bound to.
    if scheme == "Apollo":
        admits = executor.scheduler.eligible
        for span in rec.spans():
            task = executor.graph.task(span.task)
            assert [p.index for p in executor.processors if admits(task, p)] == [span.processor]


@pytest.mark.parametrize("scheme", sorted(SCHEDULERS))
def test_runs_leave_the_task_graph_unchanged(scheme):
    """Placement and rates are the scheduler's and the executor's state,
    never written into the caller's graph."""
    graph = full_task_graph()
    before = [dataclasses.astuple(spec) for spec in graph]
    config = SimConfig(n_processors=2, horizon=2.0, coordination_period=0.5, seed=0)
    RTExecutor(graph, make_scheduler(scheme), config).run()
    assert [dataclasses.astuple(spec) for spec in graph] == before


def test_a_graph_apollo_ran_on_runs_edf_as_a_fresh_one():
    scenario = SCENARIOS["fig13"](horizon=HORIZON)
    fresh = run_scenario(scenario, "EDF", seed=0).to_dict()
    graph = scenario.graph_factory()
    reused = dataclasses.replace(scenario, graph_factory=lambda: graph)
    run_scenario(reused, "Apollo", seed=0)
    assert run_scenario(reused, "EDF", seed=0).to_dict() == fresh


def test_hcperf_gamma_stays_within_cap():
    result = run_scenario(SCENARIOS["fig13"](horizon=10.0), "HCPerf", seed=0)
    from repro.core.dynamic_priority import DynamicPriorityConfig

    cap = DynamicPriorityConfig().gamma_cap
    assert all(0.0 <= g <= cap + 1e-12 for _, g in result.gamma_history)


def test_schedulers_actually_differ():
    """Same seed, same scenario — different policies must visibly differ."""
    outcomes = set()
    for scheme in DEFAULT_SCHEMES:
        r = run_scenario(SCENARIOS["fig13"](horizon=15.0), scheme, seed=3)
        outcomes.add(round(r.control_throughput(), 2))
    assert len(outcomes) >= 3
