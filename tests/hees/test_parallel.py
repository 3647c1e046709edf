"""Parallel architecture tests (Eq. 10-13)."""

import pytest

from repro.battery.pack import BatteryPack
from repro.hees.parallel import ParallelHEES, restrung_bank
from repro.ultracap.bank import UltracapBank
from repro.ultracap.params import UltracapParams, bank_of_farads


def restrung_resistance_ohm(pack, bank):
    p = bank.params
    return restrung_bank(pack, p.rated_voltage_v, p.internal_resistance_ohm)[1]


@pytest.fixture()
def plant():
    return ParallelHEES(BatteryPack(), UltracapBank(UltracapParams()))


class TestRestrungBank:
    def test_rated_voltage_equals_full_pack_voc(self, plant):
        assert plant.effective_rated_voltage_v == pytest.approx(
            plant.pack.config.series
            * float(plant.pack.electrical.open_circuit_voltage(100.0))
        )

    def test_sync_puts_cap_at_battery_voltage(self, plant):
        assert plant.cap_voltage() == pytest.approx(
            plant.pack.open_circuit_voltage(), rel=1e-6
        )

    def test_restrung_resistance_scales_with_square_of_ratio(self):
        pack = BatteryPack()
        bank = UltracapBank(UltracapParams())
        r = restrung_resistance_ohm(pack, bank)
        k = 402.93 / 16.2
        assert r == pytest.approx(2.2e-3 * k * k, rel=0.01)

    def test_smaller_bank_has_higher_restrung_resistance(self):
        pack = BatteryPack()
        r_small = restrung_resistance_ohm(pack, UltracapBank(bank_of_farads(5_000)))
        r_large = restrung_resistance_ohm(pack, UltracapBank(bank_of_farads(25_000)))
        assert r_small == pytest.approx(5 * r_large, rel=1e-6)


class TestCircuitSplit:
    def test_zero_request_near_zero_flows(self, plant):
        result = plant.step(0.0, 1.0)
        # cap sits at battery OCV: no circulating current at equilibrium
        assert abs(result.battery_power_w) < 200.0
        assert abs(result.ultracap_power_w) < 200.0

    def test_load_split_between_storages(self, plant):
        result = plant.step(50_000.0, 1.0)
        assert result.battery_power_w > 0
        assert result.ultracap_power_w > 0

    def test_battery_takes_most_of_steady_load(self, plant):
        # with the physically-derived R_c the cap only buffers transients
        result = plant.step(50_000.0, 1.0)
        assert result.battery_power_w > result.ultracap_power_w

    def test_delivery_matches_request(self, plant):
        result = plant.step(50_000.0, 1.0)
        assert result.delivered_power_w == pytest.approx(50_000.0, rel=0.02)
        assert result.unmet_power_w < 1_000.0

    def test_load_voltage_recorded(self, plant):
        result = plant.step(20_000.0, 1.0)
        v_l = result.notes["load_voltage_v"]
        assert 300.0 < v_l < plant.effective_rated_voltage_v

    def test_regen_charges_both(self, plant):
        plant.pack.state.soc_percent = 70.0
        plant.sync_soe_to_battery()
        result = plant.step(-30_000.0, 1.0)
        assert result.battery_power_w < 0
        assert result.ultracap_power_w < 0

    def test_sustained_load_depletes_cap_alongside_battery(self, plant):
        soe0 = plant.bank.soe_percent
        for _ in range(120):
            plant.step(40_000.0, 1.0)
        assert plant.bank.soe_percent < soe0
        assert plant.pack.soc_percent < 100.0

    def test_heat_generated(self, plant):
        assert plant.step(50_000.0, 1.0).battery_heat_w > 0

    def test_aging_accumulates(self, plant):
        result = plant.step(50_000.0, 1.0)
        assert result.loss_increment_percent > 0

    def test_rejects_nonpositive_dt(self, plant):
        with pytest.raises(ValueError):
            plant.step(1_000.0, 0.0)

    def test_overload_beyond_combined_limit_reports_unmet(self, plant):
        result = plant.step(5e6, 1.0)
        assert result.unmet_power_w > 0

    def test_cap_buffers_more_with_lower_resistance(self):
        # the re-strung resistance of the 25,000 F bank is 5x lower
        low_r = ParallelHEES(BatteryPack(), UltracapBank(bank_of_farads(25_000)))
        high_r = ParallelHEES(BatteryPack(), UltracapBank(bank_of_farads(5_000)))
        share_low = low_r.step(80_000.0, 1.0).ultracap_power_w
        share_high = high_r.step(80_000.0, 1.0).ultracap_power_w
        assert share_low > share_high
