"""Cell electrical model tests (Eq. 1-3)."""

import numpy as np
import pytest

from repro.battery.electrical import BatteryElectrical
from repro.battery.params import NCR18650A


@pytest.fixture()
def model():
    return BatteryElectrical(NCR18650A)


class TestOpenCircuitVoltage:
    def test_full_cell_near_4v2(self, model):
        assert 4.1 <= model.open_circuit_voltage(100.0) <= 4.25

    def test_empty_cell_near_3v0(self, model):
        assert 2.9 <= model.open_circuit_voltage(0.0) <= 3.1

    def test_nominal_midpoint(self, model):
        assert 3.5 <= model.open_circuit_voltage(50.0) <= 3.7

    def test_monotone_in_soc(self, model):
        socs = np.linspace(0, 100, 200)
        voc = model.open_circuit_voltage(socs)
        assert np.all(np.diff(voc) > 0)

    def test_vectorized_shape(self, model):
        out = model.open_circuit_voltage(np.array([10.0, 50.0, 90.0]))
        assert out.shape == (3,)


class TestInternalResistance:
    def test_magnitude_at_nominal(self, model):
        r = model.internal_resistance(50.0, 298.15)
        assert 0.05 <= r <= 0.12

    def test_rises_at_low_soc(self, model):
        assert model.internal_resistance(5.0, 298.15) > model.internal_resistance(
            80.0, 298.15
        )

    def test_rises_when_cold(self, model):
        cold = model.internal_resistance(50.0, 273.15)
        warm = model.internal_resistance(50.0, 298.15)
        assert cold > warm

    def test_cold_factor_matches_datasheet_envelope(self, model):
        # NCR18650A: resistance roughly doubles 25 C -> 0 C
        ratio = model.internal_resistance(50.0, 273.15) / model.internal_resistance(
            50.0, 298.15
        )
        assert 1.5 <= ratio <= 2.5

    def test_falls_when_hot(self, model):
        hot = model.internal_resistance(50.0, 318.15)
        warm = model.internal_resistance(50.0, 298.15)
        assert hot < warm

    def test_reference_temperature_is_neutral(self, model):
        base = NCR18650A.res_exp_a * np.exp(NCR18650A.res_exp_b * 50.0) + NCR18650A.res_base
        assert model.internal_resistance(50.0, NCR18650A.res_ref_temp_k) == pytest.approx(
            float(base)
        )


class TestSoCIntegration:
    def test_discharge_reduces_soc(self, model):
        assert model.soc_after(50.0, 3.1, 3600.0) == pytest.approx(50.0 - 100.0)

    def test_one_hour_at_c_rate_is_full_swing(self, model):
        # 3.1 A for 1 h = 3.1 Ah = 100% of capacity
        out = model.soc_after(100.0, NCR18650A.capacity_ah, 3600.0)
        assert out == pytest.approx(0.0)

    def test_charge_increases_soc(self, model):
        assert model.soc_after(50.0, -1.0, 60.0) > 50.0

    def test_zero_current_no_change(self, model):
        assert model.soc_after(42.0, 0.0, 1000.0) == 42.0


def _current(model, power_w, soc, temp):
    """``current_for_power`` at the cell's own Voc and R."""
    voc = float(model.open_circuit_voltage(soc))
    res = float(model.internal_resistance(soc, temp))
    return model.current_for_power(power_w, voc, res)


class TestCurrentForPower:
    def test_zero_power_zero_current(self, model):
        assert _current(model, 0.0, 50.0, 298.15) == 0.0

    def test_power_balance_discharge(self, model):
        power = 10.0
        i = _current(model, power, 50.0, 298.15)
        v = model.terminal_voltage(50.0, i, 298.15)
        assert i * v == pytest.approx(power, rel=1e-9)

    def test_power_balance_charge(self, model):
        power = -10.0
        i = _current(model, power, 50.0, 298.15)
        assert i < 0
        v = model.terminal_voltage(50.0, i, 298.15)
        assert i * v == pytest.approx(power, rel=1e-9)

    def test_picks_physical_root(self, model):
        # the physical root draws the smaller current of the two solutions
        i = _current(model, 5.0, 50.0, 298.15)
        voc = model.open_circuit_voltage(50.0)
        res = model.internal_resistance(50.0, 298.15)
        assert i < voc / (2 * res)

    def test_caps_at_max_power_point(self, model):
        voc = float(model.open_circuit_voltage(50.0))
        res = float(model.internal_resistance(50.0, 298.15))
        i = model.current_for_power(1e6, voc, res)
        assert i == voc / (2 * res)

    def test_more_current_needed_when_cold(self, model):
        warm = _current(model, 10.0, 50.0, 308.15)
        cold = _current(model, 10.0, 50.0, 278.15)
        assert cold > warm


class TestMaxDischargePower:
    def test_positive_at_nominal(self, model):
        assert model.max_discharge_power(50.0, 298.15) > 0

    def test_higher_when_warm(self, model):
        assert model.max_discharge_power(50.0, 318.15) > model.max_discharge_power(
            50.0, 278.15
        )

    def test_higher_at_high_soc(self, model):
        assert model.max_discharge_power(90.0, 298.15) > model.max_discharge_power(
            25.0, 298.15
        )

    def test_at_current_limit(self, model):
        p = model.max_discharge_power(50.0, 298.15)
        i = NCR18650A.max_current_a
        v = model.terminal_voltage(50.0, i, 298.15)
        assert p == pytest.approx(float(i * v))
