"""Simulation-engine tests (Algorithm 1 outer loop)."""

import numpy as np
import pytest

from repro.controllers.cooling_only import CoolingOnlyController
from repro.controllers.dual_threshold import DualThresholdController
from repro.controllers.parallel_passive import ParallelPassiveController
from repro.core.otem import OTEMController
from repro.sim.engine import Simulator
from repro.sim.engine_vec import build_request
from repro.sim.scenario import Scenario, run_scenario
from repro.sim.trace import CHANNELS


class TestRunShapes:
    def test_trace_length_matches_request(self, short_request):
        result = Simulator(ParallelPassiveController()).run(short_request)
        assert len(result.trace) == len(short_request)

    def test_result_identification(self, short_request):
        result = Simulator(ParallelPassiveController()).run(short_request)
        assert result.controller_name == "Parallel [15]"
        assert result.cycle_name == "us06-short"

    def test_outputs_of_algorithm1(self, short_request):
        result = Simulator(ParallelPassiveController()).run(short_request)
        assert result.qloss_percent > 0
        assert result.hees_energy_j > 0

    def test_metrics_attached(self, short_request):
        result = Simulator(ParallelPassiveController()).run(short_request)
        assert result.metrics.duration_s == pytest.approx(121.0)


class TestStateEvolution:
    def test_soc_decreases_over_route(self, short_request):
        result = Simulator(ParallelPassiveController()).run(short_request)
        soc = result.trace.battery_soc_percent
        assert soc[-1] < soc[0]

    def test_temperature_rises_under_load(self, short_request):
        result = Simulator(ParallelPassiveController()).run(short_request)
        assert result.trace.battery_temp_k[-1] > 298.0

    def test_initial_conditions_honored(self, short_request):
        sim = Simulator(
            ParallelPassiveController(),
            initial_soc_percent=70.0,
            initial_temp_k=305.0,
        )
        result = sim.run(short_request)
        assert result.trace.battery_soc_percent[0] <= 70.0
        assert abs(result.trace.battery_temp_k[0] - 305.0) < 1.0


class TestCoolingIntegration:
    def test_cooling_power_drawn_from_hees(self, short_request):
        hot = Simulator(CoolingOnlyController(), initial_temp_k=310.0)
        result = hot.run(short_request)
        # the thermostat engages immediately at 310 K; cooling power must
        # appear both in the trace and in the HEES energy
        assert np.max(result.trace.cooling_power_w) > 0
        cooling_j = np.sum(result.trace.cooling_power_w) * result.trace.dt
        assert result.hees_energy_j > cooling_j

    def test_no_cooling_for_passive_architectures(self, short_request):
        result = Simulator(ParallelPassiveController()).run(short_request)
        assert np.all(result.trace.cooling_power_w == 0.0)

    def test_cooling_reduces_temperature_vs_uncooled(self, short_request):
        cooled = Simulator(CoolingOnlyController(), initial_temp_k=310.0).run(
            short_request
        )
        uncooled = Simulator(ParallelPassiveController(), initial_temp_k=310.0).run(
            short_request
        )
        assert (
            cooled.trace.battery_temp_k[-1] < uncooled.trace.battery_temp_k[-1]
        )


class TestDualIntegration:
    def test_dual_switches_when_hot(self, short_request):
        sim = Simulator(DualThresholdController(), initial_temp_k=312.0)
        result = sim.run(short_request)
        # hot start -> the controller must route load to the bank at least once
        assert np.max(result.trace.cap_power_w) > 0

    def test_passive_ambient_cools_dual(self, short_request):
        # a hot dual pack under light load drifts toward ambient
        light = type(short_request)(
            cycle_name="light", dt=1.0, power_w=np.full(300, 500.0)
        )
        sim = Simulator(DualThresholdController(), initial_temp_k=315.0)
        result = sim.run(light)
        assert result.trace.battery_temp_k[-1] < 315.0


class TestValidation:
    def test_rejects_bad_initial_soc(self):
        with pytest.raises(ValueError):
            Simulator(ParallelPassiveController(), initial_soc_percent=120.0)

    def test_controller_reset_called(self, short_request):
        # thresholds this route never crosses: after a reset the switch
        # stays on the battery all route; a switch left closed would stay
        # closed and put the load on the bank from the first step
        controller = DualThresholdController(temp_switch_k=320.0, temp_resume_k=290.0)
        clean = Simulator(controller).run(short_request)
        assert not np.any(clean.trace.cap_power_w)
        controller._on_cap = True  # dirty state
        dirty = Simulator(controller).run(short_request)
        assert np.array_equal(dirty.trace.cap_power_w, clean.trace.cap_power_w)


class TestRoutePreview:
    def test_bare_otem_simulator_matches_run_scenario(self):
        """The route is the preview: a bare Simulator gives OTEM its whole
        window, so it reproduces ``run_scenario`` bitwise in every channel
        (a short default preview would plan on a fraction of it)."""
        scenario = Scenario(methodology="otem", cycle="nycc")
        request = build_request(scenario)
        bare = Simulator(OTEMController(cap_params=scenario.cap_params())).run(
            request
        )
        routed = run_scenario(scenario)
        for name in CHANNELS:
            assert np.array_equal(
                getattr(bare.trace, name), getattr(routed.trace, name)
            ), name
        assert bare.solver == routed.solver

    def test_preview_is_read_only_rest_of_route(self, short_request):
        seen = []

        class Probe(ParallelPassiveController):
            def control(self, obs):
                seen.append(obs.preview_w)
                return super().control(obs)

        Simulator(Probe()).run(short_request)
        for k in (0, 60, len(short_request) - 1):
            assert np.array_equal(seen[k], short_request.power_w[k:])
            assert not seen[k].flags.writeable
