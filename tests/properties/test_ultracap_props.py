"""Property-based tests for the ultracapacitor bank (Eq. 6-9, C5/C7)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ultracap.bank import UltracapBank
from repro.ultracap.params import UltracapParams, bank_of_farads

soe = st.floats(min_value=0.0, max_value=100.0)
power = st.floats(min_value=-80_000.0, max_value=80_000.0)
dt = st.floats(min_value=0.1, max_value=60.0)
farads = st.floats(min_value=1_000.0, max_value=50_000.0)


class TestVoltageLaw:
    @given(soe)
    def test_voltage_bounded_by_rating(self, s):
        bank = UltracapBank(UltracapParams(), initial_soe_percent=s)
        assert 0.0 <= bank.voltage() <= bank.params.rated_voltage_v + 1e-9

    @given(st.floats(min_value=0.0, max_value=99.0))
    def test_voltage_monotone_in_soe(self, s):
        low = UltracapBank(UltracapParams(), initial_soe_percent=s)
        high = UltracapBank(UltracapParams(), initial_soe_percent=s + 1.0)
        assert high.voltage() > low.voltage()

    @given(farads)
    def test_energy_eq6(self, c):
        p = bank_of_farads(c)
        assert p.energy_capacity_j == pytest.approx(0.5 * c * p.rated_voltage_v**2)


class TestStepInvariants:
    @given(soe, power, dt)
    def test_soe_stays_in_window(self, s0, p, step):
        bank = UltracapBank(UltracapParams(), initial_soe_percent=s0)
        bank.apply_power(p, step)
        params = bank.params
        assert (
            min(s0, params.soe_min_percent) - 1e-6
            <= bank.soe_percent
            <= max(s0, params.soe_max_percent) + 1e-6
        )

    @given(soe, power, dt)
    def test_power_never_exceeds_rating(self, s0, p, step):
        bank = UltracapBank(UltracapParams(), initial_soe_percent=s0)
        result = bank.apply_power(p, step)
        assert abs(result.power_w) <= bank.params.max_power_w + 1e-9

    @given(soe, power, dt)
    def test_energy_bookkeeping_exact(self, s0, p, step):
        bank = UltracapBank(UltracapParams(), initial_soe_percent=s0)
        before = bank.energy_j
        result = bank.apply_power(p, step)
        assert before - bank.energy_j == pytest.approx(result.energy_j, abs=1e-6)

    @given(soe, st.floats(min_value=0.0, max_value=80_000.0), dt)
    def test_reserve_tap_respects_hard_floor(self, s0, p, step):
        bank = UltracapBank(UltracapParams(), initial_soe_percent=s0)
        bank.apply_power(p, step, tap_reserve=True)
        floor = min(s0, bank.params.soe_hard_min_percent)
        assert bank.soe_percent >= floor - 1e-6

    @given(
        st.floats(min_value=20.0, max_value=100.0),
        st.floats(min_value=100.0, max_value=60_000.0),
        dt,
    )
    def test_charge_discharge_roundtrip(self, s0, p, step):
        # start within the C5 window so the return discharge is not clipped
        bank = UltracapBank(UltracapParams(), initial_soe_percent=s0)
        r1 = bank.apply_power(-p, step)
        bank.apply_power(-r1.energy_j / step, step)
        # what went in comes back out (bank-level Eq. 9 is lossless)
        assert bank.soe_percent == pytest.approx(s0, abs=1e-6)
