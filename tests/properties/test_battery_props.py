"""Property-based tests for the battery models (Eq. 1-5)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.battery.aging import AgingModel
from repro.battery.electrical import BatteryElectrical
from repro.battery.pack import BatteryPack
from repro.battery.thermal import heat_generation_w

soc = st.floats(min_value=0.0, max_value=100.0)
temp = st.floats(min_value=258.15, max_value=333.15)
current = st.floats(min_value=-15.0, max_value=15.0)
power = st.floats(min_value=-40.0, max_value=40.0)

model = BatteryElectrical()


class TestElectricalInvariants:
    @given(soc)
    def test_voc_in_cell_envelope(self, s):
        v = float(model.open_circuit_voltage(s))
        assert 2.8 <= v <= 4.3

    @given(soc, temp)
    def test_resistance_positive_and_bounded(self, s, t):
        r = float(model.internal_resistance(s, t))
        assert 0.0 < r < 1.0

    @given(st.floats(min_value=0.0, max_value=99.0), temp)
    def test_voc_monotone_locally(self, s, t):
        assert model.open_circuit_voltage(s + 1.0) > model.open_circuit_voltage(s)

    @given(soc, temp, power)
    def test_current_for_power_balances(self, s, t, p):
        voc = float(model.open_circuit_voltage(s))
        r = float(model.internal_resistance(s, t))
        i = model.current_for_power(p, voc, r)
        v = float(model.terminal_voltage(s, i, t))
        if p <= voc * voc / (4 * r):  # within max-power point
            assert i * v == approx_rel(p, 1e-6)

    @given(soc, current, st.floats(min_value=0.1, max_value=100.0))
    def test_soc_charge_conservation(self, s, i, dt):
        s_new = model.soc_after(s, i, dt)
        # Eq. 1: exact linear relation between charge moved and SoC
        charge_moved = i * dt
        assert (s - s_new) * model.params.capacity_ah * 36.0 == approx_rel(
            charge_moved, 1e-9, abs_tol=1e-9
        )


class TestThermalInvariants:
    @given(current, soc, temp)
    def test_joule_part_never_negative(self, i, s, t):
        q = float(heat_generation_w(i, s, t))
        entropic = i * t * model.params.entropy_coeff_v_per_k
        assert q - entropic >= -1e-12

    @given(soc, temp)
    def test_zero_current_zero_heat(self, s, t):
        assert float(heat_generation_w(0.0, s, t)) == 0.0


class TestAgingInvariants:
    @given(current, temp)
    def test_rate_nonnegative(self, i, t):
        assert float(AgingModel().loss_rate(i, t)) >= 0.0

    @given(st.floats(min_value=0.1, max_value=15.0), temp)
    def test_hotter_always_ages_faster(self, i, t):
        a = AgingModel()
        assert float(a.loss_rate(i, t + 5.0)) > float(a.loss_rate(i, t))

    @given(st.floats(min_value=0.1, max_value=14.0), temp)
    def test_more_current_always_ages_faster(self, i, t):
        a = AgingModel()
        assert float(a.loss_rate(i + 1.0, t)) > float(a.loss_rate(i, t))


class TestPackInvariants:
    @given(
        st.floats(min_value=-150_000.0, max_value=150_000.0),
        st.floats(min_value=0.1, max_value=30.0),
    )
    def test_step_never_escapes_soc_bounds(self, p, dt):
        pack = BatteryPack(initial_soc_percent=50.0)
        pack.apply_power(p, dt)
        assert 0.0 <= pack.soc_percent <= 100.0

    @given(st.floats(min_value=0.0, max_value=500_000.0))
    def test_heat_never_negative(self, p):
        pack = BatteryPack()
        assert pack.apply_power(p, 1.0).heat_w >= 0.0

    @given(st.floats(min_value=0.0, max_value=500_000.0))
    def test_delivered_never_exceeds_request_on_discharge(self, p):
        pack = BatteryPack()
        result = pack.apply_power(p, 1.0)
        assert result.terminal_power_w <= p + 1e-6


def approx_rel(value, rel, abs_tol=1e-6):
    import pytest

    return pytest.approx(value, rel=rel, abs=abs_tol)
