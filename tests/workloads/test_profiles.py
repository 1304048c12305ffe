"""Unit tests for the Fig. 2 / Fig. 11 task-graph profiles."""

import pytest

from repro.rt import ConstantExecTime, Criticality, ExecContext
from repro.workloads import (
    CONTROL_TASK,
    FUSION_TASK,
    default_fusion_model,
    full_task_graph,
    motivation_graph,
    scene_coupled_fusion_model,
)
from repro.workloads.profiles import (
    effective_rates,
    estimated_utilization,
    heterogeneous_task_graph,
)


class TestMotivationGraph:
    def test_builds_and_validates(self):
        g = motivation_graph()
        g.validate()
        assert len(g) == 7

    def test_single_source_and_sink(self):
        g = motivation_graph()
        assert [t.name for t in g.sources()] == ["image_preprocessing"]
        assert [t.name for t in g.sinks()] == [CONTROL_TASK]

    def test_control_has_highest_priority(self):
        g = motivation_graph()
        priorities = {t.name: t.priority for t in g}
        assert priorities[CONTROL_TASK] == min(priorities.values())

    def test_fusion_model_override(self):
        g = motivation_graph(fusion_model=ConstantExecTime(0.123))
        assert g.task(FUSION_TASK).exec_model.value == 0.123

    def test_source_rate_configurable(self):
        g = motivation_graph(source_rate=15.0, rate_range=(5.0, 20.0))
        assert g.task("image_preprocessing").rate == 15.0


class TestFullGraph:
    def test_has_23_tasks(self):
        assert len(full_task_graph()) == 23

    def test_validates(self):
        full_task_graph().validate()

    def test_sources_are_the_six_sensors(self):
        g = full_task_graph()
        sources = {t.name for t in g.sources()}
        assert sources == {
            "camera_front", "camera_traffic", "lidar_pointcloud",
            "radar_front", "gps_imu", "chassis_feedback",
        }

    def test_single_sink_is_control_command(self):
        g = full_task_graph()
        assert [t.name for t in g.sinks()] == [CONTROL_TASK]

    def test_gps_imu_range_matches_paper(self):
        # §III-A quotes the GPS (IMU) allowable range as [10, 100] Hz.
        g = full_task_graph()
        assert g.task("gps_imu").rate_range == (10.0, 100.0)

    def test_priority_convention(self):
        g = full_task_graph()
        assert g.task(CONTROL_TASK).priority == 1
        # Fusion sits at the bottom of the static priority order.
        assert g.task(FUSION_TASK).priority == max(t.priority for t in g)

    def test_control_chain_is_high_criticality(self):
        g = full_task_graph()
        for name in (CONTROL_TASK, "motion_planning", "localization"):
            assert g.task(name).criticality is Criticality.HIGH

    def test_fusion_depends_on_three_detections(self):
        g = full_task_graph()
        preds = {t.name for t in g.ipred(FUSION_TASK)}
        assert preds == {
            "camera_object_detection", "lidar_object_detection", "radar_processing",
        }

    def test_every_source_reaches_the_sink(self):
        g = full_task_graph()
        for src in g.sources():
            assert src.name in g.ancestors(CONTROL_TASK)

    def test_fusion_model_override(self):
        g = full_task_graph(fusion_model=ConstantExecTime(0.5))
        assert g.task(FUSION_TASK).exec_model.value == 0.5

    def test_gpu_flags(self):
        # The Fig. 11 rows' GPU stages become GPU-affine on the typed graph,
        # 3x faster there; every other task runs on the CPU class.
        g = heterogeneous_task_graph()
        gpu = {t.name for t in g if t.affinity == {"GPU"}}
        assert gpu == {"camera_object_detection", "lidar_object_detection"}
        assert all(g.task(name).speedup == {"GPU": 3.0} for name in gpu)
        assert all(t.affinity == {"CPU"} and t.speedup is None for t in g if t.name not in gpu)
        assert all(t.affinity is None for t in full_task_graph())


class TestFusionModels:
    def test_default_model_around_nominal(self):
        m = default_fusion_model(0.020)
        assert m.mean(ExecContext()) == pytest.approx(0.020, rel=1e-6)

    def test_scene_coupled_growth(self):
        m = scene_coupled_fusion_model()
        c_small = m.mean(ExecContext(scene_complexity=5))
        c_big = m.mean(ExecContext(scene_complexity=30))
        assert c_big > 3 * c_small


class TestRatesAndUtilization:
    def test_effective_rates_sources(self):
        g = full_task_graph()
        eff = effective_rates(g)
        assert eff["camera_front"] == 40.0
        assert eff["gps_imu"] == 50.0

    def test_effective_rates_and_gate_minimum(self):
        g = full_task_graph()
        eff = effective_rates(g)
        # Fusion fires at the slowest of its inputs (all 40 Hz here).
        assert eff[FUSION_TASK] == 40.0
        # Localization joins pc_pre (40) and gps (50): min is 40.
        assert eff["localization"] == 40.0

    def test_effective_rates_with_override(self):
        g = full_task_graph()
        eff = effective_rates(g, rates={"camera_front": 20.0})
        assert eff["image_preprocessing"] == 20.0

    def test_utilization_calibration(self):
        # The DESIGN.md calibration targets for the 2-processor platform.
        normal = estimated_utilization(full_task_graph(), 2)
        assert 0.75 <= normal <= 0.92
        elevated = estimated_utilization(
            full_task_graph(fusion_model=ConstantExecTime(0.040)), 2
        )
        assert elevated > 1.05

    def test_utilization_scales_with_processors(self):
        g = full_task_graph()
        assert estimated_utilization(g, 4) == pytest.approx(
            estimated_utilization(g, 2) / 2
        )

    def test_utilization_validation(self):
        with pytest.raises(ValueError):
            estimated_utilization(full_task_graph(), 0)
