"""Baseline-controller policy tests."""

import numpy as np
import pytest

from repro.controllers.base import Architecture, Decision, Observation
from repro.controllers.cooling_only import CoolingOnlyController
from repro.controllers.dual_threshold import DualThresholdController
from repro.controllers.parallel_passive import ParallelPassiveController
from repro.hees.dual import DualMode


def make_obs(temp_k=298.0, soe=100.0, soc=90.0, power=10_000.0, time_s=0.0):
    return Observation(
        step_index=0,
        time_s=time_s,
        dt=1.0,
        power_request_w=power,
        preview_w=np.full(10, power),
        battery_soc_percent=soc,
        battery_temp_k=temp_k,
        coolant_temp_k=temp_k,
        cap_soe_percent=soe,
    )


class TestParallelPassive:
    def test_declares_parallel_architecture(self):
        c = ParallelPassiveController()
        assert c.architecture is Architecture.PARALLEL
        assert not c.uses_cooling

    def test_no_commands(self):
        d = ParallelPassiveController().control(make_obs())
        assert not d.cooling_active
        assert d.cap_bus_w == 0.0

    def test_reset_is_safe(self):
        c = ParallelPassiveController()
        c.reset()
        assert isinstance(c.control(make_obs()), Decision)


class TestCoolingOnly:
    def test_declares_battery_only(self):
        # the dual plant, held in battery mode with no bank recharge
        c = CoolingOnlyController()
        assert c.architecture is Architecture.DUAL
        assert c.uses_cooling
        for temp_k in (295.0, 305.0):
            d = c.control(make_obs(temp_k=temp_k, soe=50.0))
            assert d.dual_mode is DualMode.BATTERY
            assert d.recharge_power_w == 0.0

    def test_off_when_cool(self):
        c = CoolingOnlyController()
        d = c.control(make_obs(temp_k=295.0))
        assert not d.cooling_active

    def test_engages_when_hot(self):
        c = CoolingOnlyController()
        d = c.control(make_obs(temp_k=305.0))
        assert d.cooling_active
        assert d.inlet_temp_k == pytest.approx(288.15)

    def test_hysteresis_keeps_cooling(self):
        c = CoolingOnlyController()
        c.control(make_obs(temp_k=305.0))          # engage
        d = c.control(make_obs(temp_k=297.5))      # between off and on
        assert d.cooling_active

    def test_disengages_below_off_threshold(self):
        c = CoolingOnlyController()
        c.control(make_obs(temp_k=305.0))
        d = c.control(make_obs(temp_k=295.0))
        assert not d.cooling_active

    def test_reset_disengages(self):
        c = CoolingOnlyController()
        c.control(make_obs(temp_k=305.0))
        c.reset()
        assert not c.is_cooling

    def test_rejects_inverted_thresholds(self):
        with pytest.raises(ValueError):
            CoolingOnlyController(temp_on_k=298.0, temp_off_k=299.0)


class TestDualThreshold:
    def test_declares_dual(self):
        c = DualThresholdController()
        assert c.architecture is Architecture.DUAL
        assert not c.uses_cooling

    def test_battery_mode_when_cool_and_full(self):
        c = DualThresholdController()
        d = c.control(make_obs(temp_k=298.0, soe=100.0))
        assert d.dual_mode is DualMode.BATTERY

    def test_switches_to_cap_when_hot(self):
        c = DualThresholdController()
        d = c.control(make_obs(temp_k=310.0, soe=100.0))
        assert d.dual_mode is DualMode.ULTRACAP
        assert c.is_on_ultracap

    def test_no_switch_with_depleted_cap(self):
        c = DualThresholdController()
        d = c.control(make_obs(temp_k=310.0, soe=21.0))
        assert d.dual_mode is not DualMode.ULTRACAP

    def test_reverts_when_cap_depletes(self):
        c = DualThresholdController()
        c.control(make_obs(temp_k=310.0, soe=100.0))
        d = c.control(make_obs(temp_k=310.0, soe=21.0))
        assert d.dual_mode is not DualMode.ULTRACAP

    def test_reverts_when_cooled(self):
        c = DualThresholdController()
        c.control(make_obs(temp_k=310.0, soe=100.0))
        d = c.control(make_obs(temp_k=300.0, soe=80.0))
        assert d.dual_mode is not DualMode.ULTRACAP

    def test_hysteresis_stays_on_cap(self):
        c = DualThresholdController()
        c.control(make_obs(temp_k=310.0, soe=100.0))
        d = c.control(make_obs(temp_k=305.0, soe=80.0))  # between resume/switch
        assert d.dual_mode is DualMode.ULTRACAP

    def test_recharges_when_cool_and_low(self):
        c = DualThresholdController()
        d = c.control(make_obs(temp_k=298.0, soe=50.0))
        assert d.dual_mode is DualMode.RECHARGE
        assert d.recharge_power_w > 0

    def test_no_recharge_when_hot(self):
        c = DualThresholdController(recharge_temp_max_k=306.15)
        d = c.control(make_obs(temp_k=306.5, soe=50.0))
        assert d.dual_mode is DualMode.BATTERY

    def test_no_recharge_when_full(self):
        c = DualThresholdController()
        d = c.control(make_obs(temp_k=298.0, soe=99.0))
        assert d.dual_mode is DualMode.BATTERY

    def test_reset(self):
        c = DualThresholdController()
        c.control(make_obs(temp_k=310.0, soe=100.0))
        c.reset()
        assert not c.is_on_ultracap

    def test_rejects_inverted_thresholds(self):
        with pytest.raises(ValueError):
            DualThresholdController(temp_switch_k=300.0, temp_resume_k=305.0)

    def test_rejects_bad_soe_window(self):
        with pytest.raises(ValueError):
            DualThresholdController(soe_floor_percent=90.0, soe_target_percent=50.0)
