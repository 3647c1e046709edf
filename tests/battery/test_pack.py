"""Battery-pack aggregation tests."""

import numpy as np
import pytest

from repro.battery.electrical import BatteryElectrical
from repro.battery.pack import DEFAULT_PACK, BatteryPack, PackConfig
from repro.battery.params import NCR18650A
from repro.battery.thermal import heat_generation_w


class TestPackConfig:
    def test_default_layout(self):
        assert DEFAULT_PACK.series == 96
        assert DEFAULT_PACK.parallel == 30
        assert DEFAULT_PACK.cell_count == 2880

    def test_nominal_voltage(self):
        assert DEFAULT_PACK.nominal_voltage_v == pytest.approx(96 * 3.6)

    def test_capacity(self):
        assert DEFAULT_PACK.capacity_ah == pytest.approx(30 * 3.1)

    def test_energy_kwh_in_compact_ev_range(self):
        assert 28 <= DEFAULT_PACK.energy_kwh <= 36

    def test_heat_capacity(self):
        assert DEFAULT_PACK.heat_capacity_j_per_k == pytest.approx(
            2880 * NCR18650A.heat_capacity_j_per_k
        )

    def test_rejects_zero_strings(self):
        with pytest.raises(ValueError):
            PackConfig(series=0)
        with pytest.raises(ValueError):
            PackConfig(parallel=0)

    def test_max_power_scales_with_parallel(self):
        small = PackConfig(series=96, parallel=10)
        assert DEFAULT_PACK.max_power_w == pytest.approx(3 * small.max_power_w)


class TestPackElectrical:
    def test_pack_voc_is_series_sum(self, pack):
        cell_voc = float(pack.electrical.open_circuit_voltage(100.0))
        assert pack.open_circuit_voltage() == pytest.approx(96 * cell_voc)

    def test_pack_resistance_layout(self, pack):
        cell_r = float(pack.electrical.internal_resistance(100.0, 298.0))
        assert pack.internal_resistance() == pytest.approx(cell_r * 96 / 30)


class TestApplyPower:
    def test_discharge_reduces_soc(self, pack):
        before = pack.soc_percent
        pack.apply_power(50_000.0, 10.0, *pack.cell_voc_res())
        assert pack.soc_percent < before

    def test_power_balance(self, pack):
        result = pack.apply_power(50_000.0, 1.0, *pack.cell_voc_res())
        assert result.terminal_power_w == pytest.approx(50_000.0, rel=1e-6)
        assert not result.clipped

    def test_heat_positive_on_discharge(self, pack):
        assert pack.apply_power(50_000.0, 1.0, *pack.cell_voc_res()).heat_w > 0

    def test_chem_energy_exceeds_terminal_energy(self, pack):
        # chemistry supplies terminal power plus the I^2R loss
        result = pack.apply_power(50_000.0, 1.0, *pack.cell_voc_res())
        assert result.chem_energy_j > result.terminal_power_w * 1.0

    def test_charge_negative_chem_energy(self, pack):
        pack.state.soc_percent = 50.0
        result = pack.apply_power(-20_000.0, 1.0, *pack.cell_voc_res())
        assert result.chem_energy_j < 0
        assert result.cell_current_a < 0

    def test_current_limit_clips(self, pack):
        result = pack.apply_power(10_000_000.0, 1.0, *pack.cell_voc_res())
        assert result.clipped
        assert result.cell_current_a == pytest.approx(NCR18650A.max_current_a)

    def test_no_discharge_below_soc_floor(self, pack):
        pack.state.soc_percent = BatteryPack.SOC_MIN
        result = pack.apply_power(10_000.0, 1.0, *pack.cell_voc_res())
        assert result.clipped
        assert result.cell_current_a == 0.0

    def test_no_charge_above_full(self, pack):
        result = pack.apply_power(-10_000.0, 1.0, *pack.cell_voc_res())
        assert result.clipped
        assert result.cell_current_a == 0.0

    def test_aging_accumulates(self, pack):
        pack.apply_power(50_000.0, 10.0, *pack.cell_voc_res())
        assert pack.loss_percent > 0

    def test_rejects_nonpositive_dt(self, pack):
        with pytest.raises(ValueError):
            pack.apply_power(1_000.0, 0.0, *pack.cell_voc_res())

    def test_hot_pack_delivers_power_more_efficiently(self):
        cold = BatteryPack(initial_temp_k=278.15)
        hot = BatteryPack(initial_temp_k=318.15)
        rc = cold.apply_power(50_000.0, 1.0, *cold.cell_voc_res())
        rh = hot.apply_power(50_000.0, 1.0, *hot.cell_voc_res())
        assert rh.heat_w < rc.heat_w
        assert rh.chem_energy_j < rc.chem_energy_j


def _draw_step(case, rng, ref):
    """Random (SoC [%], T [K], per-cell power [W], dt [s]) in ``case``'s branch."""
    dt = rng.uniform(0.1, 2.0)
    if case == "zero_power":
        return rng.uniform(20.0, 100.0), rng.uniform(258.0, 330.0), 0.0, dt
    if case == "soc_floor":  # a discharge from at or below the C4 floor
        return rng.uniform(5.0, 20.0), rng.uniform(258.0, 330.0), 5.0, dt
    if case == "soc_ceiling":  # a charge into a full pack
        return 100.0, rng.uniform(258.0, 330.0), -5.0, dt
    if case == "rating_clip":  # a charge beyond the cell rating
        return rng.uniform(30.0, 90.0), rng.uniform(258.0, 330.0), -150.0, dt
    soc = rng.uniform(25.0, 95.0)
    if case == "interior":
        # inside the coldest cell's maximum-power point (~12 W)
        return soc, rng.uniform(258.0, 330.0), rng.uniform(-5.0, 5.0), dt
    # beyond the maximum-power point: a cold cell's Voc / 2R stays under
    # the rating, a warm cell's exceeds it and the rating clips it too
    cold = case == "mpp_cold"
    temp = rng.uniform(258.0, 268.0) if cold else rng.uniform(300.0, 330.0)
    voc = float(ref.open_circuit_voltage(soc))
    res = float(ref.internal_resistance(soc, temp))
    return soc, temp, voc * voc / (4.0 * res) * rng.uniform(1.01, 3.0), dt


STEP_CASES = (
    "zero_power",
    "interior",
    "mpp_cold",
    "mpp_warm",
    "rating_clip",
    "soc_floor",
    "soc_ceiling",
)


class TestReadOnceStep:
    """A step reads Voc and R once and derives current and heat from them.

    The caller reads the pair (:meth:`BatteryPack.cell_voc_res`) and hands
    it to the step, which reads neither again.
    """

    @pytest.mark.parametrize("case", STEP_CASES)
    def test_current_and_heat_from_one_read(self, case, monkeypatch):
        rng = np.random.default_rng(STEP_CASES.index(case))
        ref = BatteryElectrical(DEFAULT_PACK.cell)
        n = DEFAULT_PACK.cell_count
        limit = DEFAULT_PACK.cell.max_current_a
        for _ in range(20):
            soc, temp, per_cell, dt = _draw_step(case, rng, ref)
            pack = BatteryPack(initial_soc_percent=soc, initial_temp_k=temp)
            power = per_cell * n
            voc = float(ref.open_circuit_voltage(soc))
            res = float(ref.internal_resistance(soc, temp))
            free = ref.current_for_power(power / n, voc, res)

            calls = {"voc": 0, "res": 0}
            elec = pack.electrical
            voc_fn, res_fn = elec.open_circuit_voltage, elec.internal_resistance

            def count_voc(*args):
                calls["voc"] += 1
                return voc_fn(*args)

            def count_res(*args):
                calls["res"] += 1
                return res_fn(*args)

            monkeypatch.setattr(elec, "open_circuit_voltage", count_voc)
            monkeypatch.setattr(elec, "internal_resistance", count_res)
            result = pack.apply_power(power, dt, *pack.cell_voc_res())
            assert calls == {"voc": 1, "res": 1}

            i = result.cell_current_a
            if case in ("zero_power", "interior", "mpp_cold"):
                assert i == free and not result.clipped
            if case == "zero_power":
                assert i == 0.0
            if case == "interior":
                assert abs(free) < voc / (2.0 * res)
            if case in ("mpp_cold", "mpp_warm"):
                assert free == voc / (2.0 * res)
            if case == "mpp_cold":
                assert free < limit
            if case == "mpp_warm":
                assert free > limit and i == limit and result.clipped
            if case == "rating_clip":
                assert free < -limit and i == -limit and result.clipped
            if case == "soc_floor":
                assert free > 0.0 and i == 0.0 and result.clipped
            if case == "soc_ceiling":
                assert free < 0.0 and i == 0.0 and result.clipped
            heat_cell = float(heat_generation_w(i, soc, temp, DEFAULT_PACK.cell))
            assert result.heat_w == max(0.0, heat_cell) * n


class TestLifecycle:
    def test_set_temperature(self, pack):
        pack.set_temperature(310.0)
        assert pack.temp_k == 310.0

    def test_set_temperature_rejects_nonpositive(self, pack):
        with pytest.raises(ValueError):
            pack.set_temperature(0.0)

    def test_reset(self, pack):
        pack.apply_power(50_000.0, 100.0, *pack.cell_voc_res())
        pack.set_temperature(320.0)
        pack.reset()
        assert pack.soc_percent == 100.0
        assert pack.temp_k == 298.0
        assert pack.loss_percent == 0.0

    def test_initial_condition_validation(self):
        with pytest.raises(ValueError):
            BatteryPack(initial_soc_percent=150.0)
        with pytest.raises(ValueError):
            BatteryPack(initial_temp_k=-5.0)

    def test_soc_never_negative_under_deep_drain(self, small_pack):
        for _ in range(10_000):
            small_pack.apply_power(500.0, 10.0, *small_pack.cell_voc_res())
        assert small_pack.soc_percent >= 0.0
