"""Lockstep twins follow the scalar policy they are built from.

Each twin reads its thresholds from the scalar controller it mirrors, so
a policy built with non-default thresholds must drive every twin column
to the scalar decision at every step - not to a copy of the defaults.
The sequences below cross every threshold of the custom policies (and
sit where the default thresholds would decide differently).
"""

import dataclasses

import numpy as np
import pytest

from repro.controllers.base import Decision, Observation
from repro.controllers.batched import (
    BATCHED_CONTROLLERS,
    BatchedCoolingOnly,
    BatchedDualThreshold,
    BatchedHybridHeuristic,
    BatchedOTEM,
)
from repro.controllers.cooling_only import CoolingOnlyController
from repro.controllers.dual_threshold import DualThresholdController
from repro.controllers.heuristic import HybridHeuristicController
from repro.cooling.coolant import DEFAULT_COOLANT
from repro.core.otem import OTEMController
from repro.hees.dual import DualMode
from repro.sim.scenario import Scenario, build_controller

#: A coolant whose full-cold inlet differs from the default's.
COOLANT = dataclasses.replace(DEFAULT_COOLANT, min_inlet_temp_k=285.0)

# fmt: off
#: Battery temperatures [K]: rise through 309-311 K, fall back to 299 K,
#: rise again.  Column 1 runs the sequence reversed.
TEMPS = np.array(
    [297.0, 299.5, 301.0, 303.0, 305.0, 308.0, 309.5, 311.0, 310.0, 309.5,
     306.0, 304.0, 302.0, 300.5, 299.0, 301.5, 303.5, 306.5, 310.5, 305.5]
)
#: Bank SoE [%]: drains below 40 % mid-route, then recovers past 80 %.
SOES = np.array(
    [95.0, 85.0, 78.0, 72.0, 65.0, 55.0, 48.0, 42.0, 38.0, 35.0,
     45.0, 55.0, 62.0, 68.0, 75.0, 82.0, 88.0, 60.0, 50.0, 41.0]
)
#: Bus requests [W]: peaks, lulls and regen around the moving average.
REQUESTS = np.array(
    [20e3, 35e3, 5e3, -8e3, 40e3, 10e3, 0.0, 25e3, -15e3, 30e3,
     2e3, 50e3, 12e3, -4e3, 18e3, 60e3, 1e3, 22e3, -20e3, 8e3]
)
# fmt: on

POLICIES = {
    "cooling": (
        BatchedCoolingOnly,
        lambda: CoolingOnlyController(
            temp_on_k=305.0, temp_off_k=301.0, coolant=COOLANT
        ),
    ),
    "dual": (
        BatchedDualThreshold,
        lambda: DualThresholdController(
            temp_switch_k=309.0,
            temp_resume_k=304.0,
            soe_floor_percent=40.0,
            soe_target_percent=80.0,
            recharge_power_w=5_000.0,
            recharge_temp_max_k=306.0,
        ),
    ),
    "heuristic": (
        BatchedHybridHeuristic,
        lambda: HybridHeuristicController(
            smoothing=0.3,
            recharge_power_w=2_500.0,
            soe_target_percent=70.0,
            temp_on_k=306.0,
            temp_off_k=302.0,
            coolant=COOLANT,
        ),
    ),
}


def _obs(k, request, temp, soe):
    """An observation of floats, or of columns when given arrays."""
    return Observation(
        step_index=k,
        time_s=float(k),
        dt=1.0,
        power_request_w=request,
        preview_w=np.repeat(np.expand_dims(request, -1), 10, axis=-1),
        battery_soc_percent=np.full(np.shape(request), 90.0),
        battery_temp_k=temp,
        coolant_temp_k=temp,
        cap_soe_percent=soe,
    )


@pytest.mark.parametrize("methodology", sorted(POLICIES))
def test_each_column_follows_its_scalar_policy(methodology):
    twin_cls, make = POLICIES[methodology]
    twin = twin_cls(make())
    twin.reset(2)
    refs = [make(), make()]
    assert (twin.name, twin.architecture) == (refs[0].name, refs[0].architecture)
    requests = np.stack([REQUESTS, REQUESTS[::-1]])
    temps = np.stack([TEMPS, TEMPS[::-1]])
    soes = np.stack([SOES, SOES[::-1]])
    seen = set()
    for k in range(len(TEMPS)):
        batch = twin.control(_obs(k, requests[:, k], temps[:, k], soes[:, k]))
        assert isinstance(batch, Decision)
        columns = [
            np.broadcast_to(getattr(batch, name), (2,))
            for name in (
                "cap_bus_w",
                "dual_mode",
                "recharge_power_w",
                "cooling_active",
                "inlet_temp_k",
            )
        ]
        for j, ref in enumerate(refs):
            d = ref.control(
                _obs(k, float(requests[j, k]), float(temps[j, k]), float(soes[j, k]))
            )
            got = tuple(column[j] for column in columns)
            want = (
                d.cap_bus_w,
                d.dual_mode,
                d.recharge_power_w,
                d.cooling_active,
                d.inlet_temp_k,
            )
            assert got == want, (k, j)
            seen.add((d.dual_mode, d.cooling_active, np.sign(d.cap_bus_w)))
    # the sequence must exercise every branch of the policy under test
    if methodology == "dual":
        assert {mode for mode, _, _ in seen} == set(DualMode)
    else:
        assert {cool for _, cool, _ in seen} == {False, True}
    if methodology == "heuristic":
        assert {sign for _, _, sign in seen} == {-1.0, 0.0, 1.0}


def test_otem_twin_refuses_persistence_preview():
    """The lockstep MPC previews the route; a persistence-preview
    controller would silently get the perfect preview instead."""
    knobs = dict(horizon=3, mpc_step_s=30.0, rollout_backend="vectorized")
    with pytest.raises(ValueError, match="persistence"):
        BatchedOTEM(
            [
                OTEMController(**knobs),
                OTEMController(**knobs, preview_mode="persistence"),
            ],
            lengths=[60, 60],
        )


@pytest.mark.parametrize("methodology", sorted(BATCHED_CONTROLLERS) + ["otem"])
def test_every_twin_returns_a_decision(methodology):
    """Both engines speak one interface: each twin answers an Observation
    of columns with a Decision."""
    scenarios = [
        Scenario(
            methodology=methodology,
            ucap_farads=farads,
            mpc_horizon=2,
            mpc_max_evals=5,
            rollout_backend="vectorized",
        )
        for farads in (5_000.0, 25_000.0)
    ]
    if methodology == "otem":
        twin = BatchedOTEM([build_controller(s) for s in scenarios], lengths=[60, 60])
    else:
        twin = BATCHED_CONTROLLERS[methodology](build_controller(scenarios[0]))
    twin.reset(2)
    temps = np.array([300.0, 310.0])
    d = twin.control(_obs(0, np.array([20e3, -5e3]), temps, np.array([90.0, 50.0])))
    assert isinstance(d, Decision)
    for name in (
        "cap_bus_w",
        "dual_mode",
        "recharge_power_w",
        "cooling_active",
        "inlet_temp_k",
    ):
        np.broadcast_to(getattr(d, name), (2,))  # a column or a scalar
