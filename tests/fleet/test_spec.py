"""Campaign spec and manifest expansion."""

import pytest

from repro.fleet import CampaignSpec, build_manifest, job_id, load_spec


class TestCampaignSpec:
    def test_defaults_expand(self):
        spec = CampaignSpec()
        assert len(build_manifest(spec)) == 1 * 1 * 5 * 1

    def test_grid_size(self):
        spec = CampaignSpec(
            scenarios=["fig13", "hardware"],
            schedulers=["EDF", "HCPerf", "HPF"],
            seeds=[0, 1, 2, 3],
            variants=[{}, {"horizon": 10.0}],
        )
        assert len(build_manifest(spec)) == 2 * 2 * 3 * 4

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError):
            CampaignSpec(scenarios=[])
        with pytest.raises(ValueError):
            CampaignSpec(schedulers=[])
        with pytest.raises(ValueError):
            CampaignSpec(seeds=[])
        with pytest.raises(ValueError):
            CampaignSpec(variants=[])

    def test_unknown_override_key_rejected(self):
        with pytest.raises(ValueError, match="unknown override"):
            CampaignSpec(variants=[{"warp_speed": 9}])

    def test_validate_checks_registries(self):
        with pytest.raises(ValueError, match="unknown scenarios"):
            CampaignSpec(scenarios=["not_a_scenario"]).validate()
        with pytest.raises(ValueError, match="unknown schedulers"):
            CampaignSpec(schedulers=["CFS"]).validate()
        CampaignSpec(scenarios=["fig13"], schedulers=["EDF"]).validate()

    def test_json_round_trip(self, tmp_path):
        spec = CampaignSpec(
            name="rt",
            scenarios=["fig13"],
            schedulers=["EDF"],
            seeds=[3, 1],
            variants=[{"horizon": 7.5}],
            metric="speed_error_rms",
        )
        path = tmp_path / "spec.json"
        spec.save(path)
        assert load_spec(path).to_dict() == spec.to_dict()

    def test_unknown_spec_field_rejected(self):
        with pytest.raises(ValueError, match="unknown spec fields"):
            CampaignSpec.from_dict({"name": "x", "color": "red"})

    @pytest.mark.parametrize(
        "bad",
        [
            [],
            "fig13",
            {"scenarios": "fig13"},
            {"schedulers": "EDF"},
            {"seeds": 5},
            {"seeds": [None]},
            {"variants": {"horizon": 5.0}},
            {"variants": [5]},
            {"faults": "canonical"},
            {"faults": [5]},
            {"faults": [{"seed": 1.5}]},
            {"seeds": [1.5, 1.2]},
            {"seeds": [True]},
            {"seeds": ["3"]},
            {"seeds": [float("inf")]},
            {"variants": [{"horizon": float("nan")}]},
            {"variants": [{"horizon": "5"}]},
            {"variants": [{"n_processors": 2.5}]},
            {"variants": [{"n_processors": 0}]},
            {"variants": [{"n_processors": 1025}]},
            {"variants": [{"n_processors": 10**12}]},
            {"variants": [{"processor_profile": "2xCPU+?"}]},
            {"name": 5},
            {"metric": ["miss_ratio"]},
        ],
    )
    def test_malformed_json_is_a_value_error(self, bad):
        with pytest.raises(ValueError):
            CampaignSpec.from_dict(bad)

    def test_integral_float_seeds_are_kept(self):
        assert CampaignSpec.from_dict({"seeds": [2.0, 3]}).seeds == [2, 3]


class TestManifest:
    def test_deterministic_order_and_ids(self):
        spec = CampaignSpec(
            scenarios=["fig13"], schedulers=["EDF", "HCPerf"], seeds=[0, 1]
        )
        a = build_manifest(spec)
        b = build_manifest(spec)
        assert [j.id for j in a] == [j.id for j in b]
        # scenario-major, then scheduler, then seed
        assert [(j.scheduler, j.seed) for j in a] == [
            ("EDF", 0), ("EDF", 1), ("HCPerf", 0), ("HCPerf", 1)
        ]

    def test_job_id_is_content_hash(self):
        assert job_id("fig13", "EDF", 0, {}) == job_id("fig13", "EDF", 0, {})
        assert job_id("fig13", "EDF", 0, {}) != job_id("fig13", "EDF", 1, {})
        assert job_id("fig13", "EDF", 0, {"horizon": 5.0}) != job_id(
            "fig13", "EDF", 0, {}
        )
        # key order inside overrides must not matter
        assert job_id("fig13", "EDF", 0, {"horizon": 5.0, "n_processors": 1}) == job_id(
            "fig13", "EDF", 0, {"n_processors": 1, "horizon": 5.0}
        )

    def test_ids_unique_across_grid(self):
        spec = CampaignSpec(
            scenarios=["fig13", "lane_keeping"],
            schedulers=["EDF", "HCPerf"],
            seeds=[0, 1, 2],
            variants=[{}, {"horizon": 6.0}],
        )
        ids = [j.id for j in build_manifest(spec)]
        assert len(set(ids)) == len(ids)
