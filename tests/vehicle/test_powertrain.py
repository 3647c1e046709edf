"""Backward powertrain (ADVISOR substitute) tests."""

import numpy as np
import pytest

from repro.drivecycle.library import get_cycle
from repro.drivecycle.synth import accel, cruise, decel, idle, synthesize
from repro.vehicle.powertrain import Powertrain, PowerRequest


class TestPowerRequestContainer:
    def test_basic_properties(self):
        pr = PowerRequest("t", 1.0, np.array([1.0, 2.0, 3.0]))
        assert len(pr) == 3
        assert pr.duration_s == 2.0
        assert pr.time_s.tolist() == [0.0, 1.0, 2.0]

    def test_rejects_short(self):
        with pytest.raises(ValueError):
            PowerRequest("t", 1.0, np.array([1.0]))

    def test_mean_power(self):
        pr = PowerRequest("t", 1.0, np.array([0.0, 10.0]))
        assert pr.mean_power_w() == pytest.approx(5.0)

    def test_mean_discharge_power_ignores_regen(self):
        pr = PowerRequest("t", 1.0, np.array([-10.0, 10.0]))
        assert pr.mean_discharge_power_w() == pytest.approx(5.0)

    def test_peak(self):
        pr = PowerRequest("t", 1.0, np.array([-50.0, 20.0, 5.0]))
        assert pr.peak_power_w() == 20.0

    def test_energy(self):
        pr = PowerRequest("t", 2.0, np.array([10.0, 10.0, 10.0]))
        assert pr.energy_j() == pytest.approx(40.0)


class TestPowertrain:
    def test_idle_costs_only_aux(self):
        cycle = synthesize("idle", [idle(30)])
        pr = Powertrain().power_request(cycle)
        aux = Powertrain().params.auxiliary_power_w
        assert np.allclose(pr.power_w, aux)

    def test_cruise_power_positive(self):
        cycle = synthesize("c", [accel(100, 1.5), cruise(60)])
        pr = Powertrain().power_request(cycle)
        assert np.all(pr.power_w[-30:] > 0)

    def test_braking_produces_regen(self):
        cycle = synthesize("b", [accel(100, 1.5), decel(0, 2.5), idle(5)])
        pr = Powertrain().power_request(cycle)
        assert pr.power_w.min() < 0

    def test_us06_mean_power_in_ev_range(self):
        pr = Powertrain().power_request(get_cycle("us06"))
        # full-size EV on US06: 10-25 kW net average
        assert 10_000 < pr.mean_power_w() < 25_000

    def test_us06_peak_below_motor_limit_plus_aux(self):
        pt = Powertrain()
        pr = pt.power_request(get_cycle("us06"))
        assert pr.peak_power_w() <= pt.params.max_motor_power_w + pt.params.auxiliary_power_w

    def test_cycle_ordering_by_energy_intensity(self):
        pt = Powertrain()
        means = {
            name: pt.power_request(get_cycle(name)).mean_power_w()
            for name in ("us06", "hwfet", "udds", "nycc")
        }
        assert means["us06"] > means["hwfet"] > means["udds"] > means["nycc"]

    def test_grade_increases_power(self):
        cycle = synthesize("c", [accel(80, 1.5), cruise(60)])
        pt = Powertrain()
        flat = pt.power_request(cycle).mean_power_w()
        hill = pt.power_request(cycle, grade_rad=0.03).mean_power_w()
        assert hill > flat

    def test_request_keeps_cycle_name_and_dt(self):
        pr = Powertrain().power_request(get_cycle("udds"))
        assert pr.cycle_name == "UDDS"
        assert pr.dt == 1.0
