"""ProcessorProfile / UnitSpec: parsing, identity, typed addressing, wiring."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.rt import ProcessorProfile, SimConfig, UnitSpec


class TestUnitSpec:
    def test_defaults_are_identity(self):
        u = UnitSpec()
        assert u.type == "CPU" and u.speedup == 1.0 and u.is_identity

    def test_non_cpu_or_scaled_units_are_not_identity(self):
        assert not UnitSpec(type="GPU").is_identity
        assert not UnitSpec(speedup=2.0).is_identity

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            UnitSpec(type="2bad")
        with pytest.raises(ValueError):
            UnitSpec(speedup=0.0)
        with pytest.raises(ValueError):
            UnitSpec(speedup=-1.0)

    @pytest.mark.parametrize("speedup", [math.nan, math.inf])
    def test_rejects_non_finite_speedup(self, speedup):
        with pytest.raises(ValueError, match="finite"):
            UnitSpec(speedup=speedup)
        with pytest.raises(ValueError):
            ProcessorProfile.from_dict({"units": [{"type": "CPU", "speedup": speedup}]})


class TestParse:
    def test_single_segment(self):
        p = ProcessorProfile.parse("cpu")
        assert p.n_units == 1 and p.units[0] == UnitSpec("CPU", 1.0)

    def test_counts_types_and_speedups(self):
        p = ProcessorProfile.parse("2xCPU + 1xGPU@3")
        assert [u.type for u in p.units] == ["CPU", "CPU", "GPU"]
        assert p.units[2].speedup == 3.0

    def test_describe_round_trips(self):
        for text in ("2xCPU", "2xCPU+1xGPU@3", "1xCPU+2xGPU@2.5+1xDSP@0.5"):
            p = ProcessorProfile.parse(text)
            assert ProcessorProfile.parse(p.describe()) == p
            assert p.describe() == text

    @pytest.mark.parametrize(
        "speedup, text",
        [
            (1.2345678, "1.2345678"),
            (1e20, "1e20"),
            (2.5e-7, "2.5e-07"),
            (123456789012.0, "123456789012"),
        ],
    )
    def test_describe_writes_the_shortest_exact_speedup(self, speedup, text):
        p = ProcessorProfile(units=(UnitSpec("GPU", speedup),))
        assert p.describe() == f"1xGPU@{text}"
        assert ProcessorProfile.parse(p.describe()) == p

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["CPU", "GPU", "DSP"]),
                st.floats(min_value=1e-8, max_value=1e25),
                st.integers(min_value=1, max_value=3),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_parse_describe_round_trips_every_speedup(self, groups):
        units = tuple(UnitSpec(kind, speedup) for kind, speedup, n in groups for _ in range(n))
        p = ProcessorProfile(units=units)
        assert ProcessorProfile.parse(p.describe()) == p

    def test_describe_groups_runs_and_omits_unit_speedup(self):
        p = ProcessorProfile(
            units=(UnitSpec("CPU"), UnitSpec("CPU"), UnitSpec("GPU", 3.0))
        )
        assert p.describe() == "2xCPU+1xGPU@3"
        assert str(p) == p.describe()

    @pytest.mark.parametrize("bad", ["", "0xCPU", "CPU@0", "CPU@-1", "+", "CPU++GPU"])
    def test_rejects_malformed_text(self, bad):
        with pytest.raises(ValueError):
            ProcessorProfile.parse(bad)


class TestProfile:
    def test_homogeneous_is_identity(self):
        p = ProcessorProfile.homogeneous(3)
        assert p.n_units == 3 and p.is_identity
        assert p.unit_types() == ["CPU"]

    def test_mixed_profile_is_not_identity(self):
        assert not ProcessorProfile.parse("1xCPU+1xGPU").is_identity
        # speedup != 1 alone breaks identity even on an all-CPU platform
        assert not ProcessorProfile.homogeneous(2, speedup=2.0).is_identity

    def test_typed_index_and_count(self):
        p = ProcessorProfile.parse("1xGPU+2xCPU+1xGPU")
        assert p.count("GPU") == 2 and p.count("CPU") == 2
        assert p.typed_index("GPU", 0) == 0
        assert p.typed_index("GPU", 1) == 3
        assert p.typed_index("CPU", 1) == 2
        assert p.indices_of("GPU") == [0, 3]

    def test_typed_index_errors(self):
        p = ProcessorProfile.parse("2xCPU")
        with pytest.raises(ValueError):
            p.typed_index("GPU", 0)
        with pytest.raises(ValueError):
            p.typed_index("CPU", 2)

    def test_coerce_accepts_all_forms(self):
        p = ProcessorProfile.parse("2xCPU+1xGPU")
        assert ProcessorProfile.coerce(p) is p
        assert ProcessorProfile.coerce("2xCPU+1xGPU") == p
        assert ProcessorProfile.coerce(tuple(p.units)) == p
        with pytest.raises(TypeError):
            ProcessorProfile.coerce(3)

    def test_dict_round_trip(self):
        p = ProcessorProfile.parse("2xCPU+1xGPU@3")
        assert ProcessorProfile.from_dict(p.to_dict()) == p

    @pytest.mark.parametrize(
        "bad",
        [
            [],
            {},
            {"units": "2xCPU"},
            {"units": 5},
            {"units": []},
            {"units": ["CPU"]},
            {"units": [{"speedup": 2}]},
            {"units": [{"type": "GPU", "speedup": "fast"}]},
            {"units": [{"type": "GPU", "speedup": 10**400}]},
            {"units": [{"type": "CPU\n"}]},
        ],
    )
    def test_malformed_dict_is_a_value_error(self, bad):
        with pytest.raises(ValueError):
            ProcessorProfile.from_dict(bad)

    @pytest.mark.parametrize("bad", [None, 5, ["CPU"], "2000xCPU", "GPU@1" + "0" * 400])
    def test_parse_rejects_non_strings_and_absurd_profiles(self, bad):
        with pytest.raises(ValueError):
            ProcessorProfile.parse(bad)

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError):
            ProcessorProfile(units=())


class TestSimConfigWiring:
    def test_profile_sets_processor_count(self):
        cfg = SimConfig(processor_profile="2xCPU+1xGPU@3", horizon=1.0)
        assert cfg.n_processors == 3
        assert isinstance(cfg.processor_profile, ProcessorProfile)

    def test_profile_object_passes_through(self):
        p = ProcessorProfile.homogeneous(4)
        cfg = SimConfig(processor_profile=p, horizon=1.0)
        assert cfg.n_processors == 4
        assert cfg.resolved_profile() is p

    def test_no_profile_resolves_to_identity(self):
        cfg = SimConfig(n_processors=2, horizon=1.0)
        resolved = cfg.resolved_profile()
        assert resolved.is_identity and resolved.n_units == 2
