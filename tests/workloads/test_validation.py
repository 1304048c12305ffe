"""Tests for the static platform validation report."""

import pytest

from repro.workloads import full_task_graph
from repro.workloads.validation import render_report, validate_platform
from tests.conftest import build_chain_graph

# Three 20 Hz tasks on 2 units: estimated utilization is 10 × the summed cost.
DEADLINES = (0.1, 0.1, 0.1)
OVERLOADED = dict(exec_times=(0.04, 0.04, 0.04), deadlines=DEADLINES)  # 1.2
NEAR_CAPACITY = dict(exec_times=(0.03, 0.03, 0.03), deadlines=DEADLINES)  # 0.9


class TestValidatePlatform:
    def test_healthy_graph_no_warnings(self):
        g = build_chain_graph()  # tiny load on 2 processors
        report = validate_platform(g, 2)
        assert report.ok
        assert not report.overloaded
        assert 0.0 < report.utilization < 0.5

    def test_parameter_validation(self):
        g = build_chain_graph()
        with pytest.raises(ValueError):
            validate_platform(g, 0)
        with pytest.raises(ValueError):
            validate_platform(g, 2, utilization_caution=0.0)

    def test_per_task_checks(self):
        g = build_chain_graph()
        report = validate_platform(g, 2)
        names = {c.name for c in report.tasks}
        assert names == {"source", "middle", "sink"}
        for c in report.tasks:
            assert c.feasible
            assert c.utilization_share > 0.0

    def test_infeasible_task_flagged(self):
        g = build_chain_graph(exec_times=(0.002, 0.2, 0.003))  # middle > D
        report = validate_platform(g, 2)
        assert not report.ok
        assert any("can never" in w for w in report.warnings)
        middle = next(c for c in report.tasks if c.name == "middle")
        assert not middle.feasible

    def test_overload_flagged(self):
        g = build_chain_graph(**OVERLOADED)
        report = validate_platform(g, 2)
        assert report.overloaded
        assert any("overloaded" in w for w in report.warnings)

    def test_near_capacity_flagged(self):
        g = build_chain_graph(**NEAR_CAPACITY)
        report = validate_platform(g, 2)
        assert not report.overloaded
        assert any("near capacity" in w for w in report.warnings)

    def test_scene_complexity_changes_verdict(self):
        from repro.workloads import scene_coupled_fusion_model

        g_fn = lambda: full_task_graph(fusion_model=scene_coupled_fusion_model())
        calm = validate_platform(g_fn(), 2, scene_complexity=5.0)
        jam = validate_platform(g_fn(), 2, scene_complexity=30.0)
        assert jam.utilization > calm.utilization
        assert jam.overloaded

    def test_high_criticality_split(self):
        report = validate_platform(full_task_graph(), 2)
        assert 0.0 < report.utilization_high_criticality < report.utilization

    def test_critical_path_positive(self):
        report = validate_platform(full_task_graph(), 2)
        assert report.critical_path_exec > 0.0


class TestRenderReport:
    def test_render_healthy(self):
        out = render_report(validate_platform(build_chain_graph(), 2))
        assert "No warnings" in out

    def test_render_with_warnings(self):
        g = build_chain_graph(**OVERLOADED)
        out = render_report(validate_platform(g, 2))
        assert "WARNINGS" in out and "!" in out

    def test_render_lists_heaviest_tasks(self):
        out = render_report(validate_platform(full_task_graph(), 2), top=3)
        assert "sensor_fusion" in out
