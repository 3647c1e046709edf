"""Property-based prediction-vs-plant fidelity.

The MPC can only be as good as its model; this property drives both the
scalar rollout and the real plant with random command/demand sequences and
requires the state trajectories to agree.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.battery.pack import DEFAULT_PACK, BatteryPack
from repro.cooling.coolant import DEFAULT_COOLANT
from repro.cooling.loop import CoolingLoop
from repro.core.cost import CostWeights
from repro.core.rollout import PredictionModel
from repro.hees.hybrid import (
    HybridHEES,
    default_battery_converter,
    default_cap_converter,
)
from repro.ultracap.bank import UltracapBank
from repro.ultracap.params import UltracapParams
from tests.core.test_rollout import check_gradient

MODEL = PredictionModel(
    DEFAULT_PACK,
    UltracapParams(),
    DEFAULT_COOLANT,
    default_battery_converter(BatteryPack(DEFAULT_PACK)),
    default_cap_converter(UltracapBank(UltracapParams())),
    CostWeights(),
)

N = 5
commands = st.tuples(
    st.lists(
        st.floats(min_value=-20_000.0, max_value=30_000.0), min_size=N, max_size=N
    ),
    st.lists(
        st.floats(min_value=288.15, max_value=315.0), min_size=N, max_size=N
    ),
    st.lists(
        st.floats(min_value=-10_000.0, max_value=60_000.0), min_size=N, max_size=N
    ),
)
initial = st.tuples(
    st.floats(min_value=290.0, max_value=312.0),   # T_b
    st.floats(min_value=40.0, max_value=95.0),     # SoC
    st.floats(min_value=30.0, max_value=95.0),     # SoE
)


@given(initial, commands)
@settings(max_examples=25)
def test_prediction_tracks_plant(init, cmds):
    tb0, soc0, soe0 = init
    cap_cmds, inlet_cmds, preview = cmds
    dt = 5.0

    pack = BatteryPack(
        DEFAULT_PACK, initial_soc_percent=soc0, initial_temp_k=tb0
    )
    bank = UltracapBank(UltracapParams(), initial_soe_percent=soe0)
    plant = HybridHEES(pack, bank)
    loop = CoolingLoop(DEFAULT_COOLANT, DEFAULT_PACK.heat_capacity_j_per_k)

    pred = MODEL.rollout((tb0, tb0, soc0, soe0), cap_cmds, inlet_cmds, preview, dt)

    tc = tb0
    for k in range(N):
        inlet = loop.clamp_inlet(inlet_cmds[k], tc)
        p_cool = loop.cooler_power_w(inlet, tc) + DEFAULT_COOLANT.pump_power_w
        step = plant.step(preview[k] + p_cool, cap_cmds[k], dt)
        thermal = loop.step(pack.temp_k, tc, inlet, step.battery_heat_w, dt)
        pack.set_temperature(thermal.battery_temp_k)
        tc = thermal.coolant_temp_k

    # compare end-of-horizon states; small divergence is acceptable at the
    # clipping boundaries (the plant resolves them mid-step, the model
    # per-step) but no drift beyond fractions of the state scale
    assert pred.temps_k[-1] == pytest.approx(pack.temp_k, abs=0.25)
    assert pred.coolant_k[-1] == pytest.approx(tc, abs=0.25)
    assert pred.socs[-1] == pytest.approx(pack.soc_percent, abs=0.3)
    assert pred.soes[-1] == pytest.approx(bank.soe_percent, abs=2.5)


@given(initial, st.floats(min_value=285.0, max_value=320.0), commands)
@settings(max_examples=40, deadline=None)
def test_gradient_matches_central_differences(init, tc0, cmds):
    """The reverse pass's gradient matches central differences of the
    cost wherever no kink lies within the difference step, and its cost
    is bit for bit the plain call's."""
    tb0, soc0, soe0 = init
    cap_cmds, inlet_cmds, preview = cmds
    check_gradient(MODEL, (tb0, tc0, soc0, soe0), cap_cmds, inlet_cmds, preview)
