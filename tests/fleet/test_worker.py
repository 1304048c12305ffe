"""Job execution and config-override application."""

import pytest

from repro.fleet import Job, build_manifest, build_scenario, execute_job


class TestBuildScenario:
    def test_plain_scenario(self):
        scenario = build_scenario("fig13", {})
        assert scenario.name == "fig13_car_following"
        assert scenario.sim.horizon == 90.0

    def test_horizon_override(self):
        assert build_scenario("fig13", {"horizon": 12.0}).sim.horizon == 12.0

    def test_platform_overrides(self):
        scenario = build_scenario(
            "fig13", {"n_processors": 4, "coordination_period": 0.25}
        )
        assert scenario.sim.n_processors == 4
        assert scenario.sim.coordination_period == 0.25

    def test_huge_processor_count_is_rejected(self):
        # SimConfig refuses it, so no executor or profile is ever built.
        with pytest.raises(ValueError):
            build_scenario("fig13", {"n_processors": 10**12})

    def test_fusion_override_swaps_graph(self):
        from repro.workloads.profiles import FUSION_TASK

        scenario = build_scenario(
            "fig13",
            {"horizon": 20.0, "fusion_elevated_ms": 60.0, "fusion_t_on": 2.0},
        )
        graph = scenario.graph_factory()
        model = graph.task(FUSION_TASK).exec_model
        # step model elevated window: [t_on, t_off) with t_off = horizon
        assert model.t_on == 2.0 and model.t_off == 20.0

    def test_processor_profile_override(self):
        from repro.rt import ProcessorProfile

        scenario = build_scenario("fig13", {"processor_profile": "2xCPU+1xGPU@3"})
        assert scenario.sim.n_processors == 3
        profile = scenario.sim.processor_profile
        assert isinstance(profile, ProcessorProfile)
        assert profile.describe() == "2xCPU+1xGPU@3"

    def test_processor_profile_is_a_campaign_axis(self):
        from repro.fleet.spec import CampaignSpec

        spec = CampaignSpec(
            variants=[{"processor_profile": "2xCPU"},
                      {"processor_profile": "1xCPU+1xGPU@2"}],
            seeds=(0,),
        )
        assert len(build_manifest(spec)) == 2 * len(spec.schedulers)

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            build_scenario("warp", {})


class TestExecuteJob:
    def test_record_shape(self):
        job = Job(scenario="fig13", scheduler="EDF", seed=3,
                  overrides={"horizon": 5.0})
        record = execute_job(job)
        assert record["job_id"] == job.id
        assert record["job"] == job.to_dict()
        summary = record["summary"]
        assert summary["scheduler"] == "EDF" and summary["seed"] == 3
        assert "speed_error_rms" in summary

    def test_same_job_same_summary(self):
        job = Job(scenario="fig13", scheduler="HCPerf", seed=1,
                  overrides={"horizon": 5.0})
        assert execute_job(job)["summary"] == execute_job(job)["summary"]

