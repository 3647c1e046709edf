"""Single-solve MPC speed: scalar reference vs the batched kernel.

The tentpole measurement of the vectorized-rollout PR: one penalty-method
``MPCPlanner.plan`` solve at the paper's horizon (N=12, default weights,
default budget) timed cold (fresh warm-start state, the expensive replan
case) and warm (receding-horizon steady state) for both rollout backends.
The four solves run back to back in interleaved repeats, so each
scalar/vectorized pair shares the host's load.  Records each side's median
and quartiles and the median per-pair speedups to the perf-trajectory
artifact ``BENCH_mpc.json``; the acceptance target for the vectorized
backend is a >= 3x median cold speedup, asserted here with a CI-noise
safety margin.
"""

from __future__ import annotations

import os

import numpy as np

from benchmarks.conftest import interleaved, run_once, spread
from repro.battery.pack import DEFAULT_PACK
from repro.cooling.coolant import DEFAULT_COOLANT
from repro.core.cost import CostWeights
from repro.core.mpc import DEFAULT_MAX_EVALS, MPCPlanner
from repro.core.rollout import PredictionModel
from repro.hees.hybrid import default_battery_converter, default_cap_converter
from repro.ultracap.params import UltracapParams

#: Paper-scale solve: horizon N=12, default weights, default budget.
HORIZON = 12

#: A warm, loaded mid-route state - the regime where the solver works
#: hardest (cooling and ultracap dispatch both active).
STATE = (310.0, 308.5, 75.0, 65.0)

#: Constant 20 kW preview (a representative aggressive-route bin average).
PREVIEW = np.full(HORIZON, 20_000.0)

#: Interleaved repeats of the four solves (cold and warm per backend).
REPEATS = 21


def _make_planner(backend: str, evals: int = DEFAULT_MAX_EVALS) -> MPCPlanner:
    cap = UltracapParams()
    model = PredictionModel(
        DEFAULT_PACK,
        cap,
        DEFAULT_COOLANT,
        default_battery_converter(DEFAULT_PACK),
        default_cap_converter(cap.rated_voltage_v, cap.max_power_w),
        CostWeights(),
    )
    return MPCPlanner(
        model, horizon=HORIZON, max_function_evals=evals, rollout_backend=backend
    )


def _cold(planner: MPCPlanner):
    """A replan from a fresh warm-start state."""
    planner.reset()
    return planner.plan(STATE, PREVIEW)


def _summary(times: dict, last: dict, backend: str) -> dict:
    """One backend's cold/warm spreads and its achieved cold cost."""
    return {
        "cold_s": spread(times[f"{backend}_cold"]),
        "warm_s": spread(times[f"{backend}_warm"]),
        "cost": last[f"{backend}_cold"].solver_cost,
    }


def _pair_ratios(times: dict, kind: str) -> dict:
    """Spread of the per-pair scalar / vectorized ratios of one solve kind."""
    pairs = zip(times[f"scalar_{kind}"], times[f"vectorized_{kind}"])
    return spread([a / b for a, b in pairs])


def test_mpc_solver_vectorized_speedup(benchmark):
    scalar_planner = _make_planner("scalar")
    vec_planner = _make_planner("vectorized")

    # each warm solve follows its backend's cold one, as in a route
    times, last = interleaved(
        {
            "scalar_cold": lambda: _cold(scalar_planner),
            "scalar_warm": lambda: scalar_planner.plan(STATE, PREVIEW),
            "vectorized_cold": lambda: _cold(vec_planner),
            "vectorized_warm": lambda: vec_planner.plan(STATE, PREVIEW),
        },
        REPEATS,
    )
    scalar = _summary(times, last, "scalar")
    vectorized = _summary(times, last, "vectorized")

    def solve_vectorized():
        return _cold(vec_planner)

    run_once(benchmark, solve_vectorized)

    cold_pairs = _pair_ratios(times, "cold")
    warm_pairs = _pair_ratios(times, "warm")
    speedup = cold_pairs["median"]
    warm_speedup = warm_pairs["median"]

    # same formulation at the same budget: the two backends must land on
    # comparable objective values (different optimizer trajectories only)
    assert vectorized["cost"] <= scalar["cost"] * 1.10
    assert scalar["cost"] <= vectorized["cost"] * 1.10

    from repro.utils.perf import record_bench

    path = record_bench(
        "mpc",
        {
            "solver": {
                "horizon": HORIZON,
                "method": "penalty",
                "max_function_evals": DEFAULT_MAX_EVALS,
                "weights": "default",
            },
            "state": list(STATE),
            "preview_w": 20_000.0,
            "repeats": REPEATS,
            "cpu_count": os.cpu_count(),
            "scalar": scalar,
            "vectorized": vectorized,
            "speedup_cold_pairs": cold_pairs,
            "speedup_warm_pairs": warm_pairs,
            "speedup_cold_median": speedup,
            "speedup_warm_median": warm_speedup,
        },
    )

    print()
    print(
        f"mpc solve (N={HORIZON}, penalty): "
        f"scalar {scalar['cold_s']['median'] * 1e3:.1f} ms, "
        f"vectorized {vectorized['cold_s']['median'] * 1e3:.1f} ms cold "
        f"-> {speedup:.2f}x cold (IQR {cold_pairs['q1']:.2f}-"
        f"{cold_pairs['q3']:.2f}), {warm_speedup:.2f}x warm median pair "
        f"ratio -> {path}"
    )

    # acceptance: >= 3x; the unconditional floor leaves margin for noisy
    # shared runners, the strict gate runs where CI controls the machine
    assert speedup >= 2.0
    if os.environ.get("REPRO_REQUIRE_SPEEDUP"):
        assert speedup >= 3.0
