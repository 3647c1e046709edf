"""Multi-node pack thermal model tests."""

import numpy as np
import pytest

from repro.battery.pack import DEFAULT_PACK
from repro.cooling.coolant import DEFAULT_COOLANT
from repro.cooling.loop import CoolingLoop
from repro.cooling.multinode import MultiNodeCoolingLoop

CB = DEFAULT_PACK.heat_capacity_j_per_k


def run_multinode(loop, temp0, inlet, heat, steps, dt=1.0, cooling=True):
    state = loop.initial_state(temp0)
    for _ in range(steps):
        state = loop.step(state, inlet, heat, dt, cooling_active=cooling)
    return state


class TestConstruction:
    def test_rejects_zero_nodes(self):
        with pytest.raises(ValueError):
            MultiNodeCoolingLoop(nodes=0)

    def test_initial_state_uniform(self):
        loop = MultiNodeCoolingLoop(DEFAULT_COOLANT, CB, nodes=4)
        state = loop.initial_state(300.0)
        assert np.all(state.battery_temps_k == 300.0)
        assert state.gradient_k == 0.0


class TestReductionToLumped:
    """With one node the segmented model must equal the lumped loop."""

    @pytest.mark.parametrize("cooling", [True, False])
    def test_single_node_matches_lumped(self, cooling):
        lumped = CoolingLoop(DEFAULT_COOLANT, CB)
        multi = MultiNodeCoolingLoop(DEFAULT_COOLANT, CB, nodes=1)

        tb, tc = 305.0, 305.0
        state = multi.initial_state(305.0)
        for _ in range(120):
            # the lumped step takes the applied inlet (the engine clamps it)
            inlet = lumped.clamp_inlet(290.0, tc) if cooling else tc
            r = lumped.step(tb, tc, inlet, 2_000.0, 1.0, cooling_active=cooling)
            tb, tc = r.battery_temp_k, r.coolant_temp_k
            state = multi.step(state, 290.0, 2_000.0, 1.0, cooling_active=cooling)

        assert state.battery_temps_k[0] == pytest.approx(tb, abs=1e-9)
        assert state.coolant_temps_k[0] == pytest.approx(tc, abs=1e-9)


class TestSpatialStructure:
    def test_downstream_runs_hotter(self):
        loop = MultiNodeCoolingLoop(DEFAULT_COOLANT, CB, nodes=4)
        state = run_multinode(loop, 305.0, 290.0, 2_500.0, 600)
        temps = state.battery_temps_k
        assert np.all(np.diff(temps) > 0)  # monotone along the flow path

    def test_hot_spot_exceeds_mean(self):
        loop = MultiNodeCoolingLoop(DEFAULT_COOLANT, CB, nodes=6)
        state = run_multinode(loop, 305.0, 290.0, 2_500.0, 600)
        assert state.max_battery_temp_k > state.mean_battery_temp_k

    def test_gradient_grows_with_heat(self):
        loop = MultiNodeCoolingLoop(DEFAULT_COOLANT, CB, nodes=4)
        mild = run_multinode(loop, 300.0, 290.0, 500.0, 600)
        hard = run_multinode(loop, 300.0, 290.0, 4_000.0, 600)
        assert hard.gradient_k > mild.gradient_k

    def test_no_gradient_without_cooling_flow(self):
        loop = MultiNodeCoolingLoop(DEFAULT_COOLANT, CB, nodes=4)
        state = run_multinode(loop, 300.0, 290.0, 2_000.0, 300, cooling=False)
        assert state.gradient_k == pytest.approx(0.0, abs=1e-6)

    def test_lumped_model_conservative_on_mean_optimistic_on_hotspot(self):
        """Textbook exchanger behaviour the segmentation exposes.

        A single well-mixed node has lower heat-exchange effectiveness
        than a discretized path, so the lumped model over-predicts the
        *mean* temperature (conservative) - but it cannot see the
        downstream hot spot, which can exceed its prediction.
        """
        lumped = CoolingLoop(DEFAULT_COOLANT, CB)
        multi = MultiNodeCoolingLoop(DEFAULT_COOLANT, CB, nodes=6)
        tb, tc = 305.0, 305.0
        state = multi.initial_state(305.0)
        for _ in range(600):
            r = lumped.step(tb, tc, lumped.clamp_inlet(290.0, tc), 2_500.0, 1.0)
            tb, tc = r.battery_temp_k, r.coolant_temp_k
            state = multi.step(state, 290.0, 2_500.0, 1.0)
        assert state.mean_battery_temp_k <= tb + 0.1          # conservative mean
        assert state.max_battery_temp_k > tb                  # hidden hot spot
        assert state.mean_battery_temp_k == pytest.approx(tb, abs=4.0)


class TestEnergyAndSafety:
    def test_adiabatic_energy_balance(self):
        loop = MultiNodeCoolingLoop(DEFAULT_COOLANT, CB, nodes=4)
        heat, steps = 2_000.0, 500
        state = run_multinode(loop, 298.0, 298.0, heat, steps, cooling=False)
        stored = CB / 4 * np.sum(state.battery_temps_k - 298.0) + (
            DEFAULT_COOLANT.coolant_heat_capacity_j_per_k / 4
        ) * np.sum(state.coolant_temps_k - 298.0)
        assert stored == pytest.approx(heat * steps, rel=1e-9)

    def test_cooler_power_within_ceiling(self):
        # the applied inlet obeys C2 (no warmer than the pack outlet) and C3
        # (priced by the lumped loop at that outlet, within the cooler's
        # ceiling) at the outlet each step clamped it to
        loop = MultiNodeCoolingLoop(DEFAULT_COOLANT, CB, nodes=4)
        lumped = CoolingLoop(DEFAULT_COOLANT, CB)
        state = loop.initial_state(320.0)
        clamped = 0
        for _ in range(50):
            outlet = state.coolant_temps_k[-1]
            state = loop.step(state, 280.0, 3_000.0, 1.0)
            assert state.inlet_temp_k <= outlet
            assert lumped.cooler_power_w(
                state.inlet_temp_k, outlet
            ) <= DEFAULT_COOLANT.max_cooler_power_w * (1 + 1e-9)
            clamped += state.inlet_temp_k > 280.0
        assert clamped > 0  # the command was raised to the coldest inlet

    def test_rejects_nonpositive_dt(self):
        loop = MultiNodeCoolingLoop(DEFAULT_COOLANT, CB, nodes=2)
        with pytest.raises(ValueError):
            loop.step(loop.initial_state(300.0), 290.0, 0.0, 0.0)
