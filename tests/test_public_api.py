"""The top-level package exports a coherent public API."""

import importlib
import pkgutil

import repro

#: ``repro`` and every subpackage under it (walking imports each one).
PACKAGES = [repro] + [
    importlib.import_module(info.name)
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
]


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        # A re-export left behind by a deletion fails here, in any package.
        assert len(PACKAGES) > 10
        for package in PACKAGES:
            for name in package.__all__:
                assert getattr(package, name, None) is not None, (
                    f"{package.__name__}.{name}"
                )

    def test_quickstart_flow(self):
        result = repro.run_scenario(
            repro.fig13_car_following(horizon=5.0), "HCPerf", seed=0
        )
        assert result.scheduler == "HCPerf"
        assert result.overall_miss_ratio() <= 0.1

    def test_scheduler_registry_exported(self):
        # The paper's five schemes plus extra reference baselines.
        assert {"HPF", "EDF", "EDF-VD", "Apollo", "HCPerf"} <= set(repro.SCHEDULERS)
        assert {"RM", "FIFO"} <= set(repro.SCHEDULERS)

    def test_scenario_registry_exported(self):
        assert "fig13" in repro.SCENARIOS

    def test_docstring_doctest_claim(self):
        # The module docstring's quickstart claim holds.
        result = repro.run_scenario(
            repro.fig13_car_following(horizon=20.0), "HCPerf", seed=0
        )
        assert result.overall_miss_ratio() <= 0.05
