"""Micro-benchmarks of the hot components.

Unlike the figure/table benches (one full experiment per measurement),
these time the inner kernels with proper statistics: the MPC rollout, one
planner solve, and one plant step chain.  They guard against performance
regressions that would make the experiment benches crawl.
"""

import numpy as np

from repro.battery.pack import DEFAULT_PACK, BatteryPack
from repro.cooling.coolant import DEFAULT_COOLANT
from repro.cooling.loop import CoolingLoop
from repro.core.cost import CostWeights
from repro.core.mpc import MPCPlanner
from repro.core.rollout import PredictionModel
from repro.drivecycle.library import get_cycle
from repro.hees.hybrid import (
    HybridHEES,
    default_battery_converter,
    default_cap_converter,
)
from repro.ultracap.bank import UltracapBank
from repro.ultracap.params import UltracapParams
from repro.vehicle.powertrain import Powertrain


def make_model():
    cap = UltracapParams()
    return PredictionModel(
        DEFAULT_PACK,
        cap,
        DEFAULT_COOLANT,
        default_battery_converter(DEFAULT_PACK),
        default_cap_converter(cap.rated_voltage_v, cap.max_power_w),
        CostWeights(),
    )


def test_bench_rollout_cost(benchmark):
    """One 12-step horizon evaluation (a cold replan makes up to 12, two
    starts at the default 6 evaluations each, with ``gradient=True``)."""
    model = make_model()
    state = (305.0, 303.0, 80.0, 70.0)
    cap = [5_000.0] * 12
    inlet = [295.0] * 12
    preview = [20_000.0] * 12
    cost = benchmark(model.rollout_cost, state, cap, inlet, preview, 5.0)
    assert np.isfinite(cost)


def test_bench_mpc_plan(benchmark):
    """One full planner solve (multi-start L-BFGS-B)."""
    planner = MPCPlanner(make_model())
    preview = np.full(12, 20_000.0)

    def solve():
        planner.reset()
        return planner.plan((308.0, 306.0, 80.0, 70.0), preview)

    plan = benchmark(solve)
    assert plan.horizon == 12


def test_bench_hybrid_plant_step(benchmark):
    """One hybrid HEES step plus the thermal update (the 1 Hz plant path)."""
    pack = BatteryPack(DEFAULT_PACK)
    bank = UltracapBank(UltracapParams())
    plant = HybridHEES(pack, bank)
    loop = CoolingLoop(DEFAULT_COOLANT, DEFAULT_PACK.heat_capacity_j_per_k)

    def step():
        r = plant.step(20_000.0, 5_000.0, 1.0)
        thermal = loop.step(pack.temp_k, 298.0, 295.0, r.battery_heat_w, 1.0)
        pack.set_temperature(thermal.battery_temp_k)
        # keep the stores in a steady band so the benchmark is stationary
        pack.state.soc_percent = 80.0
        bank.reset(70.0)
        return r

    result = benchmark(step)
    assert result.delivered_power_w > 0


def test_bench_powertrain_request(benchmark):
    """Full US06 power-request computation (vectorized backward model)."""
    cycle = get_cycle("us06")
    pt = Powertrain()
    request = benchmark(pt.power_request, cycle)
    assert len(request) == len(cycle)
