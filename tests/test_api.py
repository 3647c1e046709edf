"""Public-API surface tests: the names README/examples rely on must exist."""

import importlib

import pytest

import repro


class TestTopLevel:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_names(self):
        # the exact imports the README shows
        from repro import Scenario, run_scenario  # noqa: F401


SUBPACKAGES = [
    "repro.core",
    "repro.battery",
    "repro.ultracap",
    "repro.hees",
    "repro.cooling",
    "repro.vehicle",
    "repro.drivecycle",
    "repro.controllers",
    "repro.sim",
    "repro.analysis",
    "repro.utils",
    "repro.service",
    "repro.store",
]


@pytest.mark.parametrize("module", SUBPACKAGES)
class TestSubpackages:
    def test_imports(self, module):
        importlib.import_module(module)

    def test_all_exports_resolve(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name}"


class TestDocstrings:
    @pytest.mark.parametrize("module", SUBPACKAGES + ["repro"])
    def test_package_docstring(self, module):
        assert importlib.import_module(module).__doc__

    def test_public_classes_documented(self):
        from repro.battery.pack import BatteryPack
        from repro.core.otem import OTEMController
        from repro.sim.engine import Simulator

        for cls in (BatteryPack, OTEMController, Simulator):
            assert cls.__doc__
            for name, member in vars(cls).items():
                if callable(member) and not name.startswith("_"):
                    assert member.__doc__, f"{cls.__name__}.{name} undocumented"
