"""Property-based prediction-vs-plant fidelity.

The MPC can only be as good as its model; this property drives both the
scalar rollout and the real plant with random command/demand sequences and
requires the state trajectories to agree.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.battery.pack import DEFAULT_PACK, BatteryPack
from repro.cooling.coolant import DEFAULT_COOLANT
from repro.cooling.loop import CoolingLoop
from repro.core.cost import CostWeights
from repro.core.mpc import MPCPlanner
from repro.core.rollout import PredictionModel
from repro.core.rollout_vec import BatchPredictionModel
from repro.hees.hybrid import (
    HybridHEES,
    default_battery_converter,
    default_cap_converter,
)
from repro.ultracap.bank import UltracapBank
from repro.ultracap.params import UltracapParams
from tests.core.test_rollout import check_gradient
from tests.core.test_rollout_vec import materialized_stencil

CAP = UltracapParams()
MODEL = PredictionModel(
    DEFAULT_PACK,
    CAP,
    DEFAULT_COOLANT,
    default_battery_converter(DEFAULT_PACK),
    default_cap_converter(CAP.rated_voltage_v, CAP.max_power_w),
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


@st.composite
def mpc_stencil_case(draw):
    """Rows as the lockstep MPC race builds them: decision vectors in the
    unit box, denormalized onto the planner's command ranges, with the
    central-difference stencil at the planner's step around each row."""
    n = draw(st.integers(min_value=1, max_value=12))
    b = draw(st.integers(min_value=1, max_value=16))
    unit = st.floats(min_value=0.0, max_value=1.0)
    z = np.array(draw(st.lists(unit, min_size=2 * n * b, max_size=2 * n * b)))
    z = z.reshape(b, 2 * n)
    states = np.array(
        [
            (
                draw(st.floats(min_value=290.0, max_value=313.0)),
                draw(st.floats(min_value=289.0, max_value=313.0)),
                draw(st.floats(min_value=25.0, max_value=95.0)),
                draw(st.floats(min_value=2.0, max_value=100.0)),
            )
            for _ in range(b)
        ]
    )
    load = st.floats(min_value=-10_000.0, max_value=MODEL.pack_pmax * 0.95)
    previews = np.array(draw(st.lists(load, min_size=n * b, max_size=n * b)))
    scale = st.floats(min_value=0.2, max_value=1.5)
    ecap = MODEL.ecap * np.array(draw(st.lists(scale, min_size=b, max_size=b)))
    return z, states, previews.reshape(b, n), ecap


@given(mpc_stencil_case())
@settings(max_examples=30, deadline=None)
def test_stencil_matches_materialized_rows(case):
    """The prefix-shared stencil's costs are bitwise those of its rows
    evaluated in full, on the inputs the lockstep MPC race feeds it."""
    z, states, previews, ecap = case
    n = previews.shape[1]
    planner = MPCPlanner(MODEL, horizon=n, rollout_backend="vectorized")
    eps = MPCPlanner.FD_EPS
    cap_lo, cap_scale = planner._cap_lo, planner._cap_scale
    inlet_lo, inlet_scale = planner._inlet_lo, planner._inlet_scale
    z_cap, z_inlet = z[:, :n], z[:, n:]
    cap = cap_lo + z_cap * cap_scale
    inlet = inlet_lo + z_inlet * inlet_scale
    stencil = (
        cap_lo + (z_cap + eps) * cap_scale,
        cap_lo + (z_cap - eps) * cap_scale,
        inlet_lo + (z_inlet + eps) * inlet_scale,
        inlet_lo + (z_inlet - eps) * inlet_scale,
    )
    vec = BatchPredictionModel.from_scalar(MODEL)
    cost, alt = vec.rollout_costs_stacked(
        states, cap, inlet, previews, 5.0, ecap=ecap, stencil=stencil
    )
    ref_cost, ref_alt = materialized_stencil(
        vec, states, cap, inlet, previews, 5.0, ecap, stencil
    )
    assert np.array_equal(cost, ref_cost)
    assert np.array_equal(alt, ref_alt)
