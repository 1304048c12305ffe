"""FaultSpec data model: validation, JSON round-trips, identity hashing."""

import json
import math

import pytest

from repro.faults import (
    FAULT_KINDS,
    ComplexitySurge,
    DeadlineStorm,
    ExecTimeBurst,
    ExecTimeSpike,
    FaultSpec,
    ProcessorFailure,
    SensorDropout,
    load_fault_spec,
)


def sample_spec():
    return FaultSpec(
        name="sample",
        seed=3,
        faults=[
            ExecTimeSpike(task="sensor_fusion", t_on=1.0, t_off=2.0, factor=2.0),
            ExecTimeBurst(task="planning", rate=0.5, duration=0.2, factor=3.0),
            SensorDropout(task="camera_front", t_on=4.0, t_off=5.0),
            ProcessorFailure(processor=1, t_fail=6.0, t_recover=7.0),
            DeadlineStorm(t_on=8.0, t_off=8.5, factor=4.0),
            ComplexitySurge(t_on=9.0, t_off=9.5, scale=2.0, add=5.0),
        ],
    )


class TestValidation:
    def test_windows_must_be_ordered(self):
        with pytest.raises(ValueError):
            ExecTimeSpike(task="x", t_on=2.0, t_off=1.0)
        with pytest.raises(ValueError):
            SensorDropout(task="x", t_on=-1.0, t_off=1.0)

    def test_storm_must_slow_down(self):
        with pytest.raises(ValueError):
            DeadlineStorm(t_on=0.0, t_off=1.0, factor=0.5)

    def test_recovery_after_failure(self):
        with pytest.raises(ValueError):
            ProcessorFailure(processor=0, t_fail=5.0, t_recover=5.0)

    def test_burst_needs_positive_rate_and_duration(self):
        with pytest.raises(ValueError):
            ExecTimeBurst(task="x", rate=0.0, duration=0.1, factor=2.0)
        with pytest.raises(ValueError):
            ExecTimeBurst(task="x", rate=1.0, duration=0.0, factor=2.0)

    def test_spec_rejects_non_models(self):
        with pytest.raises(TypeError):
            FaultSpec(faults=[{"kind": "exec_spike"}])


class TestRoundTrip:
    def test_dict_round_trip_every_kind(self):
        spec = sample_spec()
        clone = FaultSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert {f.kind for f in clone.faults} == set(FAULT_KINDS)

    def test_json_round_trip_via_file(self, tmp_path):
        spec = sample_spec()
        path = tmp_path / "spec.json"
        spec.save(path)
        assert load_fault_spec(path) == spec
        # the file is plain JSON (inf encoded as null, not Infinity)
        assert "Infinity" not in path.read_text()
        payload = json.loads(path.read_text())
        burst = next(f for f in payload["faults"] if f["kind"] == "exec_burst")
        assert burst["t_off"] is None

    def test_unbounded_burst_round_trips_to_inf(self):
        spec = FaultSpec(faults=[ExecTimeBurst(task="x", rate=1.0, duration=0.1, factor=2.0)])
        clone = FaultSpec.from_dict(spec.to_dict())
        assert math.isinf(clone.faults[0].t_off)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec.from_dict({"faults": [{"kind": "gremlin"}]})

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown fields"):
            FaultSpec.from_dict(
                {"faults": [{"kind": "sensor_dropout", "task": "x",
                             "t_on": 0.0, "t_off": 1.0, "typo": 1}]}
            )
        with pytest.raises(ValueError, match="unknown fault-spec fields"):
            FaultSpec.from_dict({"typo": 1})

    @pytest.mark.parametrize(
        "bad",
        [
            [],
            "canonical",
            {"faults": 5},
            {"faults": "exec_spike"},
            {"faults": ["exec_spike"]},
            {"faults": [{"kind": "exec_spike"}]},
            {"faults": [{"kind": "sensor_dropout", "task": "x", "t_on": "a", "t_off": 1.0}]},
            {"seed": None},
            {"seed": "q"},
            {"seed": 1.5},
            {"seed": True},
            {"seed": math.inf},
            {"faults": [{"kind": "sensor_dropout", "task": "x", "t_on": 0.0, "t_off": math.nan}]},
            {"faults": [{"kind": "sensor_dropout", "task": "x", "t_on": 0.0, "t_off": math.inf}]},
            {"faults": [{"kind": "sensor_dropout", "task": 5, "t_on": 0.0, "t_off": 1.0}]},
            {"faults": [{"kind": "deadline_storm", "t_on": 0.0, "t_off": 1.0, "factor": True}]},
            {"faults": [{"kind": "processor_failure", "processor": 1.5, "t_fail": 1.0}]},
        ],
    )
    def test_malformed_json_is_a_value_error(self, bad):
        with pytest.raises(ValueError):
            FaultSpec.from_dict(bad)

    @pytest.mark.parametrize("text", ["[]", '{"faults": 5}', "{not json"])
    def test_malformed_file_is_a_value_error(self, tmp_path, text):
        path = tmp_path / "spec.json"
        path.write_text(text)
        with pytest.raises(ValueError):
            load_fault_spec(path)


class TestIdentity:
    def test_hash_is_stable_and_content_sensitive(self):
        a, b = sample_spec(), sample_spec()
        assert a.spec_hash() == b.spec_hash()
        assert len(a.spec_hash()) == 16
        c = sample_spec()
        c.seed = 4
        assert c.spec_hash() != a.spec_hash()

    def test_onset_and_clear_span_the_faults(self):
        spec = sample_spec()
        assert spec.first_onset() == 0.0  # the burst starts at t_on=0
        assert spec.last_clear() == math.inf  # unbounded burst window
        assert FaultSpec().first_onset() is None
        assert FaultSpec().last_clear() is None

    def test_empty_flag(self):
        assert FaultSpec().is_empty
        assert not sample_spec().is_empty
