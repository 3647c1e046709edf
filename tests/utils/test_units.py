"""Unit-conversion tests."""

import numpy as np
import pytest

from repro.utils import units


class TestTemperature:
    def test_celsius_to_kelvin_zero(self):
        assert units.celsius_to_kelvin(0.0) == pytest.approx(273.15)

    def test_kelvin_to_celsius_zero(self):
        assert units.kelvin_to_celsius(273.15) == pytest.approx(0.0)

    def test_roundtrip(self):
        assert units.kelvin_to_celsius(units.celsius_to_kelvin(25.0)) == pytest.approx(25.0)

    def test_vectorized(self):
        out = units.celsius_to_kelvin(np.array([0.0, 100.0]))
        assert np.allclose(out, [273.15, 373.15])


class TestSpeed:
    def test_kmh_to_mps(self):
        assert units.kmh_to_mps(36.0) == pytest.approx(10.0)

    def test_mps_to_kmh(self):
        assert units.mps_to_kmh(10.0) == pytest.approx(36.0)

    def test_roundtrip(self):
        assert units.kmh_to_mps(units.mps_to_kmh(7.3)) == pytest.approx(7.3)


class TestEnergy:
    def test_kwh_to_joule(self):
        assert units.kwh_to_joule(1.0) == pytest.approx(3.6e6)

    def test_joule_to_kwh(self):
        assert units.joule_to_kwh(3.6e6) == pytest.approx(1.0)

    def test_roundtrip(self):
        assert units.joule_to_kwh(units.kwh_to_joule(0.37)) == pytest.approx(0.37)


class TestCharge:
    def test_ah_to_coulomb(self):
        assert units.ah_to_coulomb(1.0) == pytest.approx(3600.0)

    def test_cell_capacity(self):
        # NCR18650A: 3.1 Ah = 11,160 C
        assert units.ah_to_coulomb(3.1) == pytest.approx(11_160.0)


def test_gas_constant_value():
    assert units.GAS_CONSTANT == pytest.approx(8.314, rel=1e-3)
