"""Unit-conversion tests."""

import numpy as np
import pytest

from repro.utils import units


class TestTemperature:
    def test_kelvin_to_celsius_zero(self):
        assert units.kelvin_to_celsius(273.15) == pytest.approx(0.0)

    def test_vectorized(self):
        out = units.kelvin_to_celsius(np.array([273.15, 373.15]))
        assert np.allclose(out, [0.0, 100.0])


class TestSpeed:
    def test_kmh_to_mps(self):
        assert units.kmh_to_mps(36.0) == pytest.approx(10.0)

    def test_mps_to_kmh(self):
        assert units.mps_to_kmh(10.0) == pytest.approx(36.0)

    def test_roundtrip(self):
        assert units.kmh_to_mps(units.mps_to_kmh(7.3)) == pytest.approx(7.3)


class TestCharge:
    def test_ah_to_coulomb(self):
        assert units.ah_to_coulomb(1.0) == pytest.approx(3600.0)

    def test_cell_capacity(self):
        # NCR18650A: 3.1 Ah = 11,160 C
        assert units.ah_to_coulomb(3.1) == pytest.approx(11_160.0)


def test_gas_constant_value():
    assert units.GAS_CONSTANT == pytest.approx(8.314, rel=1e-3)
