"""Dual (switched) architecture tests."""

import dataclasses

import numpy as np
import pytest

from repro.battery.pack import DEFAULT_PACK, BatteryPack, BatteryPackVec
from repro.hees.dual import DualHEES, DualHEESVec, DualMode
from repro.ultracap.bank import UltracapBank, UltracapBankVec
from repro.ultracap.params import UltracapParams


@pytest.fixture()
def plant():
    return DualHEES(BatteryPack(), UltracapBank(UltracapParams()))


class TestBatteryMode:
    def test_battery_carries_load(self, plant):
        result = plant.step(30_000.0, DualMode.BATTERY, 0.0, 1.0)
        assert result.battery_power_w == pytest.approx(30_000.0, rel=1e-6)
        assert result.ultracap_power_w == 0.0

    def test_no_cap_change(self, plant):
        soe0 = plant.bank.soe_percent
        plant.step(30_000.0, DualMode.BATTERY, 0.0, 1.0)
        assert plant.bank.soe_percent == soe0


class TestUltracapMode:
    def test_cap_carries_load(self, plant):
        result = plant.step(30_000.0, DualMode.ULTRACAP, 0.0, 1.0)
        assert result.ultracap_power_w > 0
        assert result.delivered_power_w == pytest.approx(30_000.0, rel=0.02)

    def test_battery_rests(self, plant):
        result = plant.step(30_000.0, DualMode.ULTRACAP, 0.0, 1.0)
        assert abs(result.battery_power_w) < 500.0
        assert result.battery_heat_w < 5.0

    def test_series_resistance_loss_counted(self, plant):
        result = plant.step(30_000.0, DualMode.ULTRACAP, 0.0, 1.0)
        assert result.converter_loss_j > 0

    def test_depleted_cap_falls_back_to_battery(self):
        plant = DualHEES(
            BatteryPack(),
            UltracapBank(UltracapParams(), initial_soe_percent=20.0),
        )
        result = plant.step(30_000.0, DualMode.ULTRACAP, 0.0, 1.0)
        assert result.battery_power_w > 25_000.0

    def test_soe_decreases(self, plant):
        soe0 = plant.bank.soe_percent
        plant.step(30_000.0, DualMode.ULTRACAP, 0.0, 5.0)
        assert plant.bank.soe_percent < soe0


class TestRechargeMode:
    @pytest.fixture()
    def drained(self):
        return DualHEES(
            BatteryPack(),
            UltracapBank(UltracapParams(), initial_soe_percent=50.0),
        )

    def test_battery_carries_load_plus_recharge(self, drained):
        result = drained.step(20_000.0, DualMode.RECHARGE, 5_000.0, 1.0)
        assert result.battery_power_w == pytest.approx(25_000.0, rel=1e-6)

    def test_cap_receives_energy(self, drained):
        soe0 = drained.bank.soe_percent
        drained.step(20_000.0, DualMode.RECHARGE, 5_000.0, 10.0)
        assert drained.bank.soe_percent > soe0

    def test_recharge_path_is_lossy(self, drained):
        result = drained.step(0.0, DualMode.RECHARGE, 5_000.0, 1.0)
        # 5 kW leaves the battery, ~95% lands in the bank
        assert result.cap_energy_j == pytest.approx(-5_000.0 * 0.95, rel=1e-6)
        assert result.converter_loss_j == pytest.approx(5_000.0 * 0.05, rel=1e-6)

    def test_full_bank_accepts_no_recharge(self, plant):
        result = plant.step(20_000.0, DualMode.RECHARGE, 5_000.0, 1.0)
        assert result.battery_power_w == pytest.approx(20_000.0, rel=1e-6)

    def test_delivered_excludes_recharge(self, drained):
        result = drained.step(20_000.0, DualMode.RECHARGE, 5_000.0, 1.0)
        assert result.delivered_power_w == pytest.approx(20_000.0, rel=1e-6)


class TestRegen:
    def test_regen_charges_cap_first(self):
        plant = DualHEES(
            BatteryPack(),
            UltracapBank(UltracapParams(), initial_soe_percent=50.0),
        )
        soe0 = plant.bank.soe_percent
        result = plant.step(-20_000.0, DualMode.BATTERY, 0.0, 1.0)
        assert plant.bank.soe_percent > soe0
        assert result.battery_power_w == pytest.approx(0.0, abs=1.0)

    def test_regen_overflow_goes_to_battery(self):
        plant = DualHEES(
            BatteryPack(initial_soc_percent=80.0),
            UltracapBank(UltracapParams(), initial_soe_percent=100.0),
        )
        result = plant.step(-20_000.0, DualMode.BATTERY, 0.0, 1.0)
        assert result.battery_power_w == pytest.approx(-20_000.0, rel=1e-6)


class TestMisc:
    def test_rejects_nonpositive_dt(self, plant):
        with pytest.raises(ValueError):
            plant.step(1_000.0, DualMode.BATTERY, 0.0, 0.0)

    def test_unmet_on_extreme_load(self, plant):
        result = plant.step(5e6, DualMode.BATTERY, 0.0, 1.0)
        assert result.unmet_power_w > 0

    def test_default_resistance_derived(self):
        plant = DualHEES(BatteryPack(), UltracapBank(UltracapParams()))
        assert plant.cap_voltage() > 0  # construction succeeded with derived R


class TestModeCodes:
    """A switch position is its code: members, ints and NumPy ints alike.

    The lockstep twin takes a column of codes; the scalar plant must read
    the same code the same way.
    """

    SOE = 60.0

    def _scalar_step(self, mode):
        plant = DualHEES(
            BatteryPack(), UltracapBank(UltracapParams(), initial_soe_percent=self.SOE)
        )
        result = plant.step(30_000.0, mode, 5_000.0, 1.0)
        return [*dataclasses.astuple(result), plant.bank.soe_percent, plant.pack.soc_percent]

    def _lockstep_step(self, mode):
        plant = DualHEESVec(
            BatteryPackVec(DEFAULT_PACK, np.array([100.0]), np.array([298.0])),
            UltracapBankVec([UltracapParams()]),
        )
        plant.bank.reset(np.array([self.SOE]))
        result = plant.step(
            np.array([30_000.0]), np.array([int(mode)]), np.array([5_000.0]), 1.0
        )
        return [
            *(field[0] for field in dataclasses.astuple(result)),
            plant.bank.soe_percent[0],
            plant.pack.soc_percent[0],
        ]

    @pytest.mark.parametrize("member", list(DualMode), ids=lambda m: m.name)
    def test_codes_step_like_the_member(self, member):
        def bits(values):
            return np.array(values, dtype=float).tobytes()

        scalar = self._scalar_step(member)
        for code in (int(member), np.int64(member)):
            assert bits(self._scalar_step(code)) == bits(scalar)
        # the twins may round the two bookkeeping-only channels one ulp apart
        np.testing.assert_allclose(self._lockstep_step(member), scalar, rtol=1e-12)
