"""Property-based tests for the cooling loop (Eq. 14-17)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.battery.pack import DEFAULT_PACK
from repro.cooling.coolant import DEFAULT_COOLANT
from repro.cooling.loop import CoolingLoop

temps = st.floats(min_value=268.15, max_value=333.15)
heat = st.floats(min_value=0.0, max_value=10_000.0)
dt = st.floats(min_value=0.1, max_value=20.0)

LOOP = CoolingLoop(DEFAULT_COOLANT, DEFAULT_PACK.heat_capacity_j_per_k)


class TestClampInvariants:
    @given(temps, temps)
    def test_clamped_inlet_never_heats(self, cmd, tc):
        assert LOOP.clamp_inlet(cmd, tc) <= tc + 1e-12  # constraint C2

    @given(temps, temps)
    def test_clamped_inlet_respects_power_ceiling(self, cmd, tc):
        inlet = LOOP.clamp_inlet(cmd, tc)
        assert (
            LOOP.cooler_power_w(inlet, tc)
            <= DEFAULT_COOLANT.max_cooler_power_w * (1 + 1e-9)
        )  # constraint C3


class TestStepInvariants:
    @given(temps, temps, temps, heat, dt)
    def test_temperatures_stay_finite_and_physical(self, tb, tc, inlet, q, step):
        inlet = LOOP.clamp_inlet(inlet, tc)
        r = LOOP.step(tb, tc, inlet, q, step, cooling_active=True)
        assert 200.0 < r.battery_temp_k < 400.0
        assert 200.0 < r.coolant_temp_k < 400.0

    @given(temps, heat, dt)
    def test_adiabatic_first_law(self, t0, q, step):
        """Sealed loop: stored energy change equals heat input exactly."""
        r = LOOP.step(t0, t0, t0, q, step, cooling_active=False)
        stored = (
            DEFAULT_PACK.heat_capacity_j_per_k * (r.battery_temp_k - t0)
            + DEFAULT_COOLANT.coolant_heat_capacity_j_per_k * (r.coolant_temp_k - t0)
        )
        assert stored == pytest.approx(q * step, rel=1e-9, abs=1e-6)

    @given(temps, temps, dt)
    def test_no_heat_no_cooling_drifts_to_common_temp(self, tb, tc, step):
        cur_b, cur_c = tb, tc
        for _ in range(2_000):
            r = LOOP.step(cur_b, cur_c, cur_c, 0.0, 10.0, cooling_active=False)
            cur_b, cur_c = r.battery_temp_k, r.coolant_temp_k
        assert cur_b == pytest.approx(cur_c, abs=0.01)

    @given(temps)
    def test_cooler_power_never_negative(self, t0):
        tc = t0 + 10.0
        assert LOOP.cooler_power_w(LOOP.clamp_inlet(t0, tc), tc) >= 0.0

    @given(temps, heat)
    def test_colder_inlet_cools_more(self, t0, q):
        hot = max(t0, 300.0)
        mild_inlet, cold_inlet = (LOOP.clamp_inlet(hot - d, hot) for d in (2.0, 8.0))
        mild = LOOP.step(hot, hot, mild_inlet, q, 10.0, cooling_active=True)
        cold = LOOP.step(hot, hot, cold_inlet, q, 10.0, cooling_active=True)
        assert cold.battery_temp_k <= mild.battery_temp_k + 1e-9
