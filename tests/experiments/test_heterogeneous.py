"""The heterogeneous-platform experiment's scenario builder and report.

Its seeded numbers and shape claims are in the claims ledger
(``benchmarks/test_claims.py``, section ``heterogeneous``).
"""

import pytest

from repro.experiments import heterogeneous as het


class TestScenarioBuilder:
    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown profile"):
            het.build_scenario("quantum")

    def test_platforms_have_equal_unit_counts(self):
        homo = het.build_scenario("homogeneous", horizon=5.0)
        hetero = het.build_scenario("heterogeneous", horizon=5.0)
        assert homo.sim.n_processors == hetero.sim.n_processors == 3

    def test_heterogeneous_graph_is_typed(self):
        scenario = het.build_scenario("heterogeneous", horizon=5.0)
        graph = scenario.graph_factory()
        gpu_tasks = [t.name for t in graph if t.affinity == frozenset({"GPU"})]
        assert sorted(gpu_tasks) == [
            "camera_object_detection", "lidar_object_detection",
        ]

    def test_homogeneous_graph_is_untyped(self):
        scenario = het.build_scenario("homogeneous", horizon=5.0)
        graph = scenario.graph_factory()
        assert all(t.affinity is None for t in graph)

    def test_render_mentions_the_verdict(self):
        result = het.run(seed=0, horizon=5.0)
        out = het.render(result)
        assert "Verdict:" in out
