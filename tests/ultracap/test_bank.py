"""Ultracapacitor bank tests (Eq. 7-9, constraints C5/C7)."""

import pytest

from repro.ultracap.bank import UltracapBank
from repro.ultracap.params import UltracapParams


@pytest.fixture()
def params():
    return UltracapParams()


def step(bank, power_w, dt, tap_reserve=False):
    """One bank step clipped into the window of the state it starts from."""
    return bank.apply_power(power_w, dt, bank.window(dt, tap_reserve))


class TestVoltageLaw:
    def test_full_bank_at_rated_voltage(self, bank):
        assert bank.voltage() == pytest.approx(bank.params.rated_voltage_v)

    def test_eq8_square_root(self, bank):
        bank.reset(25.0)
        v25 = bank.voltage()
        assert v25 == pytest.approx(bank.params.rated_voltage_v * 0.5)

    def test_zero_soe_zero_voltage(self, bank):
        bank.reset(0.0)
        assert bank.voltage() == 0.0

    def test_energy_property(self, bank):
        assert bank.energy_j == pytest.approx(bank.params.energy_capacity_j)


class TestDischarge:
    def test_reduces_soe(self, bank):
        step(bank, 10_000.0, 10.0)
        assert bank.soe_percent < 100.0

    def test_energy_bookkeeping(self, bank):
        before = bank.energy_j
        result = step(bank, 10_000.0, 10.0)
        assert result.energy_j == pytest.approx(1e5)
        assert before - bank.energy_j == pytest.approx(1e5)

    def test_power_clipped_at_rating(self, bank):
        result = step(bank, 1e6, 1.0)
        assert result.power_w < 1e6
        assert result.power_w == pytest.approx(bank.params.max_power_w)

    def test_stops_at_soe_floor(self, params):
        bank = UltracapBank(params, initial_soe_percent=21.0)
        result = step(bank, params.max_power_w, 1e6)
        assert bank.soe_percent == pytest.approx(params.soe_min_percent)
        assert result.power_w < params.max_power_w

    def test_reserve_tap_goes_below_floor(self, params):
        bank = UltracapBank(params, initial_soe_percent=21.0)
        step(bank, params.max_power_w, 60.0, tap_reserve=True)
        assert bank.soe_percent < params.soe_min_percent
        assert bank.soe_percent >= params.soe_hard_min_percent - 1e-9


class TestCharge:
    def test_increases_soe(self, params):
        bank = UltracapBank(params, initial_soe_percent=50.0)
        step(bank, -10_000.0, 10.0)
        assert bank.soe_percent > 50.0

    def test_negative_energy_bookkeeping(self, params):
        bank = UltracapBank(params, initial_soe_percent=50.0)
        result = step(bank, -10_000.0, 10.0)
        assert result.energy_j == pytest.approx(-1e5)

    def test_stops_at_full(self, bank):
        result = step(bank, -10_000.0, 1.0)
        assert result.power_w == 0.0  # the -10 kW request is refused
        assert bank.soe_percent == pytest.approx(100.0)

    def test_roundtrip_is_lossless_at_bank_level(self, params):
        # Eq. 9 stores/releases exactly; losses live in converters/resistance
        bank = UltracapBank(params, initial_soe_percent=50.0)
        step(bank, -10_000.0, 10.0)
        step(bank, 10_000.0, 10.0)
        assert bank.soe_percent == pytest.approx(50.0, abs=1e-9)


class TestLimits:
    def test_max_discharge_power_respects_energy(self, params):
        bank = UltracapBank(params, initial_soe_percent=20.5)
        _, discharge_w = bank.window(10.0)
        assert discharge_w < params.max_power_w

    def test_max_discharge_power_full_bank(self, bank):
        _, discharge_w = bank.window(1.0)
        assert discharge_w == pytest.approx(bank.params.max_power_w)

    def test_max_charge_power_full_bank_is_zero(self, bank):
        charge_w, _ = bank.window(1.0)
        assert charge_w == 0.0

    def test_empty_step_window(self, bank):
        assert bank.window(0.0) == (0.0, 0.0)
        assert bank.window(-1.0, tap_reserve=True) == (0.0, 0.0)

    def test_reserve_tap_widens_discharge_only(self, params):
        bank = UltracapBank(params, initial_soe_percent=30.0)
        charge_w, discharge_w = bank.window(100.0)
        tap_charge_w, tap_discharge_w = bank.window(100.0, tap_reserve=True)
        assert tap_charge_w == charge_w
        assert tap_discharge_w == pytest.approx(
            (bank.available_j() + bank.reserve_j()) / 100.0
        )
        assert tap_discharge_w > discharge_w

    def test_apply_power_clips_into_the_window_it_is_handed(self, params):
        bank = UltracapBank(params, initial_soe_percent=50.0)
        assert bank.apply_power(5_000.0, 1.0, (1_000.0, 2_000.0)).power_w == 2_000.0
        assert bank.apply_power(-5_000.0, 1.0, (1_000.0, 2_000.0)).power_w == -1_000.0
        assert bank.apply_power(500.0, 1.0, (1_000.0, 2_000.0)).power_w == 500.0

    def test_headroom_and_available_partition(self, params):
        bank = UltracapBank(params, initial_soe_percent=60.0)
        total = bank.headroom_j() + bank.available_j()
        expected = (
            (params.soe_max_percent - params.soe_min_percent)
            / 100.0
            * params.energy_capacity_j
        )
        assert total == pytest.approx(expected)

    def test_reserve_full_bank(self, bank):
        expected = (
            (bank.params.soe_min_percent - bank.params.soe_hard_min_percent)
            / 100.0
            * bank.params.energy_capacity_j
        )
        assert bank.reserve_j() == pytest.approx(expected)

    def test_reserve_empty_bank(self, params):
        bank = UltracapBank(params, initial_soe_percent=params.soe_hard_min_percent)
        assert bank.reserve_j() == 0.0


class TestLifecycle:
    def test_reset(self, bank):
        step(bank, 10_000.0, 30.0)
        bank.reset(75.0)
        assert bank.soe_percent == 75.0

    def test_rejects_bad_initial_soe(self, params):
        with pytest.raises(ValueError):
            UltracapBank(params, initial_soe_percent=150.0)

    def test_rejects_nonpositive_dt(self, bank):
        with pytest.raises(ValueError):
            step(bank, 1_000.0, 0.0)

