"""Shared fixtures for the test suite.

Simulation fixtures use deliberately short workloads (one cycle or a
truncated trace) so the whole suite stays fast; the paper-shape regression
tests in ``tests/integration`` use the smallest repeats that still exhibit
the orderings.
"""

from __future__ import annotations

import types

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.battery.pack import BatteryPack, PackConfig
from repro.drivecycle.library import get_cycle
from repro.ultracap.bank import UltracapBank
from repro.ultracap.params import UltracapParams
from repro.vehicle.powertrain import Powertrain, PowerRequest

settings.register_profile(
    "repro",
    deadline=None,
    max_examples=50,
    derandomize=True,  # CI determinism: same examples every run
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture(scope="session")
def us06():
    """The US06 drive cycle (session-cached)."""
    return get_cycle("us06")


@pytest.fixture(scope="session")
def us06_request(us06):
    """Power request for one US06 (session-cached)."""
    return Powertrain().power_request(us06)


@pytest.fixture(scope="session")
def short_request(us06_request):
    """A 120-second slice of the US06 power request (fast sims)."""
    return PowerRequest(
        cycle_name="us06-short",
        dt=us06_request.dt,
        power_w=us06_request.power_w[:121].copy(),
    )


@pytest.fixture()
def pack():
    """A fresh default battery pack."""
    return BatteryPack()


@pytest.fixture()
def small_pack():
    """A small pack for fast stress tests."""
    return BatteryPack(PackConfig(series=4, parallel=2))


@pytest.fixture()
def bank():
    """A fresh default (25,000 F) ultracapacitor bank."""
    return UltracapBank(UltracapParams())


@pytest.fixture()
def small_bank():
    """A 5,000 F bank (the paper's smallest size)."""
    from repro.ultracap.params import bank_of_farads

    return UltracapBank(bank_of_farads(5_000))


def assert_energy_close(a: float, b: float, rel: float = 1e-6, abs_tol: float = 1e-3):
    """Energy-bookkeeping assertion with sensible defaults."""
    assert a == pytest.approx(b, rel=rel, abs=abs_tol)


@pytest.fixture(scope="session")
def constant_request():
    """A flat 20 kW request for 60 s (analytic expectations)."""
    return PowerRequest(cycle_name="flat", dt=1.0, power_w=np.full(61, 20_000.0))


@pytest.fixture()
def replace_setulb(monkeypatch):
    """Install a stand-in for scipy's ``setulb`` in the lockstep driver.

    Returns ``install(setulb)``; the driver re-probes on its next use,
    during the test and again after it, when the real ``setulb`` is back.
    """
    import repro.core.lbfgsb_lockstep as driver

    def install(setulb):
        monkeypatch.setattr(driver, "_lbfgsb_mod", types.SimpleNamespace(setulb=setulb))
        driver.lockstep_available.cache_clear()

    yield install
    driver.lockstep_available.cache_clear()
