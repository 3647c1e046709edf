"""Hybrid (converter-decoupled) architecture tests."""

import pytest

from repro.battery.pack import BatteryPack
from repro.hees.hybrid import HybridHEES
from repro.ultracap.bank import UltracapBank
from repro.ultracap.params import UltracapParams


@pytest.fixture()
def plant():
    return HybridHEES(BatteryPack(), UltracapBank(UltracapParams()))


def cap_eta(plant):
    """The ultracap port's efficiency at the bank's voltage."""
    return plant.cap_converter.efficiency(plant.bank.voltage())


def c6_ceiling(pack):
    """The pack's C6 power ceiling at its own cell pair."""
    return pack.max_discharge_power_w(*pack.cell_voc_res())


def _step_bus_powers(plant, request_w, cap_command_w):
    """Step ``plant`` for 1 s; return the result and its bus-side split.

    The bus side of each port is read back from its terminal power through
    its converter at the pre-step port efficiency, as the plant computes it.
    """
    eta_cap = cap_eta(plant)
    eta_bat = plant.battery_converter.efficiency(plant.pack.open_circuit_voltage())
    result = plant.step(request_w, cap_command_w, 1.0)
    cap_bus = plant.cap_converter.bus_power_for_port(result.ultracap_power_w, eta_cap)
    battery_bus = plant.battery_converter.bus_power_for_port(
        result.battery_power_w, eta_bat
    )
    return result, cap_bus, battery_bus


class TestSplit:
    def test_zero_cap_command_battery_carries_all(self, plant):
        result = plant.step(30_000.0, 0.0, 1.0)
        assert result.ultracap_power_w == 0.0
        assert result.delivered_power_w == pytest.approx(30_000.0, rel=0.01)

    def test_cap_command_offloads_battery(self, plant):
        _, cap_bus, battery_bus = _step_bus_powers(plant, 30_000.0, 20_000.0)
        assert cap_bus == pytest.approx(20_000.0, rel=0.01)
        assert battery_bus == pytest.approx(10_000.0, rel=0.01)

    def test_full_cap_command(self, plant):
        result = plant.step(30_000.0, 30_000.0, 1.0)
        assert abs(result.battery_power_w) < 1_000.0

    def test_cap_charging_adds_battery_load(self, plant):
        plant.bank.reset(50.0)
        result, _, battery_bus = _step_bus_powers(plant, 10_000.0, -5_000.0)
        assert battery_bus == pytest.approx(15_000.0, rel=0.01)
        assert result.ultracap_power_w < 0

    def test_converter_losses_tracked(self, plant):
        result = plant.step(30_000.0, 20_000.0, 1.0)
        assert result.converter_loss_j > 0

    def test_command_clipped_to_bank_limits(self, plant):
        _, hi = plant.cap_bus_limits(1.0, cap_eta(plant))  # what the step clips against
        _, cap_bus, _ = _step_bus_powers(plant, 10_000.0, 1e6)
        assert cap_bus <= hi * (1.0 + 1e-12)


class TestLoadPriority:
    def test_charge_command_never_starves_load(self, plant):
        # ask for a huge charge while the load is near the battery limit
        heavy_load = 0.9 * c6_ceiling(plant.pack)
        result = plant.step(heavy_load, -60_000.0, 1.0)
        assert result.unmet_power_w < 100.0

    def test_charge_allowed_when_headroom_exists(self, plant):
        plant.bank.reset(50.0)
        result = plant.step(5_000.0, -10_000.0, 1.0)
        assert result.ultracap_power_w < -8_000.0


class TestEmergencyReserve:
    def test_reserve_covers_peak_with_empty_bank(self):
        plant = HybridHEES(
            BatteryPack(),
            UltracapBank(UltracapParams(), initial_soe_percent=20.0),
        )
        peak = c6_ceiling(plant.pack) * 0.97 + 20_000.0
        result = plant.step(peak, 0.0, 1.0)
        assert result.unmet_power_w < 500.0
        assert plant.bank.soe_percent < 20.0

    def test_reserve_not_tapped_when_battery_suffices(self, plant):
        plant.bank.reset(20.0)
        plant.step(10_000.0, 0.0, 1.0)
        assert plant.bank.soe_percent == pytest.approx(20.0)


class TestRegen:
    def test_regen_to_battery_by_default(self, plant):
        plant.pack.state.soc_percent = 80.0
        result = plant.step(-20_000.0, 0.0, 1.0)
        assert result.battery_power_w < 0

    def test_regen_routed_to_cap_on_command(self, plant):
        plant.bank.reset(50.0)
        result = plant.step(-20_000.0, -20_000.0, 1.0)
        assert result.ultracap_power_w < 0
        assert abs(result.battery_power_w) < 1_500.0


class TestCapBusLimits:
    def test_limits_shapes(self, plant):
        lo, hi = plant.cap_bus_limits(1.0, cap_eta(plant))
        assert lo <= 0 <= hi

    def test_full_bank_cannot_charge(self, plant):
        lo, _ = plant.cap_bus_limits(1.0, cap_eta(plant))
        assert lo == pytest.approx(0.0)

    def test_empty_bank_cannot_discharge(self):
        plant = HybridHEES(
            BatteryPack(),
            UltracapBank(UltracapParams(), initial_soe_percent=20.0),
        )
        _, hi = plant.cap_bus_limits(1.0, cap_eta(plant))
        assert hi == pytest.approx(0.0)

    def test_rejects_nonpositive_dt(self, plant):
        with pytest.raises(ValueError):
            plant.step(1_000.0, 0.0, 0.0)
