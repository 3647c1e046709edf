"""Robustness / failure-injection wrapper tests."""

import numpy as np
import pytest

from repro.controllers.cooling_only import CoolingOnlyController
from repro.controllers.wrappers import CoolingFailure, NoisyObservations
from repro.core.otem import OTEMController
from repro.sim.engine import Simulator
from tests.controllers.test_baselines import make_obs


class TestNoisyObservations:
    def test_preserves_declaration(self):
        wrapped = NoisyObservations(CoolingOnlyController())
        assert wrapped.architecture is CoolingOnlyController.architecture
        assert wrapped.uses_cooling
        assert "noise" in wrapped.name

    def test_noise_perturbs_decisions_near_threshold(self):
        # a thermostat sitting exactly on its threshold flips with noise
        decisions = set()
        wrapped = NoisyObservations(
            CoolingOnlyController(), temp_sigma_k=2.0, seed=1
        )
        for k in range(30):
            wrapped.reset()
            wrapped._rng = np.random.default_rng(k)
            d = wrapped.control(make_obs(temp_k=299.15))
            decisions.add(d.cooling_active)
        assert decisions == {True, False}

    def test_deterministic_per_seed(self):
        a = NoisyObservations(CoolingOnlyController(), seed=7)
        b = NoisyObservations(CoolingOnlyController(), seed=7)
        da = a.control(make_obs(temp_k=299.15))
        db = b.control(make_obs(temp_k=299.15))
        assert da.cooling_active == db.cooling_active

    def test_reset_restarts_noise_sequence(self):
        w = NoisyObservations(CoolingOnlyController(), seed=3)
        first = w.control(make_obs(temp_k=299.15)).cooling_active
        w.reset()
        again = w.control(make_obs(temp_k=299.15)).cooling_active
        assert first == again

    def test_soe_clipped_to_physical_range(self):
        w = NoisyObservations(
            CoolingOnlyController(), soe_sigma_percent=50.0, seed=0
        )
        # no crash across many perturbations of an extreme SoE
        for _ in range(50):
            w.control(make_obs(soe=99.0))

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            NoisyObservations(CoolingOnlyController(), temp_sigma_k=100.0)

    def test_noisy_otem_survives_route(self, short_request):
        controller = NoisyObservations(
            OTEMController(horizon=6, max_function_evals=3),
            temp_sigma_k=1.0,
            seed=0,
        )
        result = Simulator(controller).run(short_request)
        assert np.all(np.isfinite(result.trace.battery_temp_k))
        assert result.metrics.unmet_energy_j < 2e5


class TestCoolingFailure:
    def test_drops_cooling_after_failure(self):
        inner = CoolingOnlyController()
        wrapped = CoolingFailure(inner, fail_at_s=100.0)
        hot = make_obs(temp_k=310.0)
        before = wrapped.control(hot)
        assert before.cooling_active  # thermostat engaged, actuator alive

        after = wrapped.control(make_obs(temp_k=310.0, time_s=150.0))
        assert not after.cooling_active
        assert wrapped.failed

    def test_reset_rearms(self):
        wrapped = CoolingFailure(CoolingOnlyController(), fail_at_s=0.0)
        wrapped.control(make_obs(temp_k=310.0))
        assert wrapped.failed
        wrapped.reset()
        assert not wrapped.failed

    def test_failed_cooler_run_is_hotter(self, short_request):
        healthy = Simulator(
            CoolingOnlyController(), initial_temp_k=308.0
        ).run(short_request)
        failed = Simulator(
            CoolingFailure(CoolingOnlyController(), fail_at_s=0.0),
            initial_temp_k=308.0,
        ).run(short_request)
        assert (
            failed.trace.battery_temp_k[-1] > healthy.trace.battery_temp_k[-1]
        )
        assert failed.metrics.cooling_energy_j == 0.0

    def test_otem_falls_back_to_ultracap(self, short_request):
        """With a dead cooler, OTEM leans (at least) as hard on the bank."""
        healthy = Simulator(
            OTEMController(horizon=6, max_function_evals=3),
            initial_temp_k=308.0,
        ).run(short_request)
        failed = Simulator(
            CoolingFailure(
                OTEMController(horizon=6, max_function_evals=3), fail_at_s=0.0
            ),
            initial_temp_k=308.0,
        ).run(short_request)
        # the route still gets driven
        assert failed.metrics.unmet_energy_j < 2e5
        # and no cooler energy was spent
        assert failed.metrics.cooling_energy_j == 0.0
