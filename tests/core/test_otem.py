"""OTEM controller tests."""

import numpy as np
import pytest

from repro.controllers.base import Architecture, Observation
from repro.core.otem import OTEMController


def make_obs(step=0, temp_k=298.0, soe=100.0, soc=95.0, power=15_000.0, preview_len=60):
    return Observation(
        step_index=step,
        time_s=float(step),
        dt=1.0,
        power_request_w=power,
        preview_w=np.full(preview_len, power),
        battery_soc_percent=soc,
        battery_temp_k=temp_k,
        coolant_temp_k=temp_k,
        cap_soe_percent=soe,
    )


@pytest.fixture()
def otem():
    return OTEMController(horizon=6, mpc_step_s=5.0, max_function_evals=4)


class TestInterface:
    def test_declares_hybrid_with_cooling(self, otem):
        assert otem.architecture is Architecture.HYBRID
        assert otem.uses_cooling
        assert otem.name == "OTEM"


class TestPreviewAggregation:
    def test_constant_preview(self, otem):
        coarse = otem._aggregate_preview(np.full(30, 10_000.0), 1.0)
        assert coarse.shape == (6,)
        assert np.allclose(coarse, 10_000.0)

    def test_short_preview_padded(self, otem):
        coarse = otem._aggregate_preview(np.full(10, 10_000.0), 1.0)
        assert coarse[0] == pytest.approx(10_000.0)
        assert coarse[-1] == 0.0

    def test_bin_means(self, otem):
        fine = np.arange(30, dtype=float)
        coarse = otem._aggregate_preview(fine, 1.0)
        assert coarse[0] == pytest.approx(np.mean(fine[:5]))

    def test_reads_only_its_window(self, otem):
        """Given the rest of a route, OTEM reads steps_per_bin x horizon
        samples and ignores the route beyond them."""
        route = np.arange(100, dtype=float)
        coarse = otem._aggregate_preview(route, 1.0)
        assert np.array_equal(coarse, route[:30].reshape(6, 5).mean(axis=1))
        coarse_5s = otem._aggregate_preview(route, 5.0)
        assert np.array_equal(coarse_5s, route[:6])

    def test_rows_bin_like_single_routes(self, otem):
        """The lockstep engine's rows of routes bin row by row, bitwise."""
        rng = np.random.default_rng(0)
        rows = rng.normal(20_000.0, 15_000.0, size=(4, 45))
        coarse = otem._aggregate_preview(rows, 1.0)
        assert coarse.shape == (4, 6)
        for row, got in zip(rows, coarse):
            assert np.array_equal(got, otem._aggregate_preview(row, 1.0))


def _planned_previews(otem, route, steps):
    """The coarse previews ``otem`` hands its planner, by replan step."""
    planned = []
    real = otem.planner.plan

    def spy(state, preview):
        planned.append(preview)
        return real(state, preview)

    otem.planner.plan = spy
    seen = {}
    for k in steps:
        obs = Observation(
            step_index=k,
            time_s=float(k),
            dt=1.0,
            power_request_w=float(route[k]),
            preview_w=route[k:],
            battery_soc_percent=95.0,
            battery_temp_k=300.0,
            coolant_temp_k=300.0,
            cap_soe_percent=100.0,
        )
        solves = otem.solver_stats().solves
        otem.control(obs)
        if otem.solver_stats().solves > solves:
            seen[k] = planned[-1]
    return seen


class TestLastWindow:
    """Near the route end the window runs past it; both preview modes give
    the coarse preview of a zero-padded fixed-length window."""

    ROUTE = np.linspace(-10_000.0, 60_000.0, 40)

    def test_perfect_preview_zero_pads_past_route_end(self):
        otem = OTEMController(horizon=6, mpc_step_s=5.0, max_function_evals=1)
        seen = _planned_previews(otem, self.ROUTE, range(30, 40))
        padded = np.concatenate([self.ROUTE[35:], np.zeros(25)])
        assert sorted(seen) == [30, 35]
        assert np.array_equal(seen[35], padded.reshape(6, 5).mean(axis=1))

    def test_persistence_holds_request_over_whole_window(self):
        otem = OTEMController(
            horizon=6,
            mpc_step_s=5.0,
            max_function_evals=1,
            preview_mode="persistence",
        )
        seen = _planned_previews(otem, self.ROUTE, range(30, 40))
        held = np.full(30, self.ROUTE[35]).reshape(6, 5).mean(axis=1)
        assert np.array_equal(seen[35], held)


class TestMoveBlocking:
    def test_replans_on_schedule(self, otem):
        solves = []
        for step in (0, 1, 5):
            otem.control(make_obs(step=step))
            solves.append(otem.solver_stats().solves)
        assert solves == [1, 1, 2]

    def test_held_command_constant_between_replans(self, otem):
        d0 = otem.control(make_obs(step=0))
        d1 = otem.control(make_obs(step=1))
        assert d1.cap_bus_w == d0.cap_bus_w

    def test_reset_forces_replan(self, otem):
        otem.control(make_obs(step=0))
        otem.reset()
        solves = otem.solver_stats().solves
        otem.control(make_obs(step=1))
        assert otem.solver_stats().solves == solves + 1


class TestBehaviour:
    def test_cooling_engages_when_hot(self, otem):
        d = otem.control(make_obs(temp_k=312.0, power=20_000.0))
        assert d.cooling_active
        assert d.inlet_temp_k < 312.0 - 0.05

    def test_no_cooler_command_when_cold(self, otem):
        d = otem.control(make_obs(temp_k=290.0, power=5_000.0))
        # inlet at coolant temperature = cooler idle (pump may run)
        assert d.inlet_temp_k >= 290.0 - 0.1

    def test_solver_diagnostics_exposed(self, otem):
        otem.control(make_obs())
        stats = otem.solver_stats()
        assert np.isfinite(stats.last_cost)
        assert stats.total_iterations >= 1

    def test_large_peak_in_preview_prepares_cap_discharge(self):
        otem = OTEMController(horizon=6, mpc_step_s=5.0, max_function_evals=9)
        preview = np.concatenate([np.full(10, 5_000.0), np.full(20, 90_000.0)])
        obs = Observation(
            step_index=0,
            time_s=0.0,
            dt=1.0,
            power_request_w=5_000.0,
            preview_w=preview,
            battery_soc_percent=95.0,
            battery_temp_k=300.0,
            coolant_temp_k=300.0,
            cap_soe_percent=100.0,
        )
        d = otem.control(obs)
        # the plan must discharge the cap during the previewed peak steps
        assert np.max(otem._plan.cap_bus_w[1:]) > 10_000.0
