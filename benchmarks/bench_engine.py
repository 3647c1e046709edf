"""Lockstep engine throughput: one vectorized batch vs the serial loop.

The tentpole measurement of the lockstep-engine PR: a 64-scenario
Monte-Carlo ensemble (dual-architecture baseline on NYCC, perturbation
seeds 0..63) advanced as one struct-of-arrays batch by
``repro.sim.engine_vec`` versus the same scenarios run one-by-one through
the scalar ``Simulator``.  Power requests are prebuilt for both sides, so
the comparison times the engines themselves, not cycle synthesis or the
perturbation cache.  Both sides run in interleaved repeats (one serial
pass, then one batch, per repeat), so each pair shares the host's load.
Records each side's median and quartiles and the median per-pair speedup
to ``BENCH_engine.json``; the acceptance target is >= 5x on that median,
asserted under the strict CI gate with a noise-margin floor of 2x
everywhere else.
"""

from __future__ import annotations

import os

from benchmarks.conftest import interleaved, run_once, spread
from repro.sim.engine import Simulator
from repro.sim.engine_vec import build_request, run_lockstep_group
from repro.sim.scenario import Scenario, build_controller

#: Ensemble size of the paper-style Monte-Carlo traffic sweep.
ENSEMBLE = 64

#: Interleaved (serial, lockstep) pairs; their per-pair ratios are the
#: speedup samples.
REPEATS = 5

SCENARIOS = [
    Scenario(methodology="dual", cycle="nycc", perturb_seed=seed)
    for seed in range(ENSEMBLE)
]


def _run_scalar(scenario: Scenario, request) -> object:
    """One scalar-engine run on a prebuilt request (as ``run_scenario``)."""
    simulator = Simulator(
        build_controller(scenario),
        pack_config=scenario.pack,
        cap_params=scenario.cap_params(),
        coolant=scenario.coolant,
        initial_temp_k=scenario.initial_temp_k,
    )
    return simulator.run(request)


def lockstep_dual_ensemble(requests) -> list:
    """The timed call: the whole ensemble as one lockstep batch."""
    return run_lockstep_group(SCENARIOS, requests)


def test_lockstep_engine_speedup(benchmark):
    requests = [build_request(s) for s in SCENARIOS]

    # serial scalar reference (one Simulator per scenario) against the
    # whole ensemble as one batch, pair by pair
    times, results = interleaved(
        {
            "scalar": lambda: [
                _run_scalar(s, r) for s, r in zip(SCENARIOS, requests)
            ],
            "lockstep": lambda: run_lockstep_group(SCENARIOS, requests),
        },
        REPEATS,
    )
    scalar_results, lockstep_results = results["scalar"], results["lockstep"]

    run_once(benchmark, lockstep_dual_ensemble, requests)

    # both engines must tell the same story (tests/sim/test_engine_vec.py
    # holds the full bitwise/ulp contract; this is a smoke check)
    for scalar, lockstep in zip(scalar_results, lockstep_results):
        assert abs(
            lockstep.metrics.qloss_percent - scalar.metrics.qloss_percent
        ) <= 1e-9 * scalar.metrics.qloss_percent
        assert lockstep.metrics.peak_temp_k == scalar.metrics.peak_temp_k

    scalar_spread = spread(times["scalar"])
    lockstep_spread = spread(times["lockstep"])
    ratios = spread([a / b for a, b in zip(times["scalar"], times["lockstep"])])
    speedup = ratios["median"]
    scalar_s, lockstep_s = scalar_spread["median"], lockstep_spread["median"]
    steps = sum(len(r) for r in requests)

    from repro.utils.perf import record_bench

    path = record_bench(
        "engine",
        {
            "ensemble": ENSEMBLE,
            "methodology": "dual",
            "cycle": "nycc",
            "perturb_seeds": f"0..{ENSEMBLE - 1}",
            "steps_total": steps,
            "repeats": REPEATS,
            "cpu_count": os.cpu_count(),
            "scalar_serial_s": scalar_spread,
            "scalar_per_scenario_s": scalar_s / ENSEMBLE,
            "lockstep_s": lockstep_spread,
            "lockstep_per_scenario_s": lockstep_s / ENSEMBLE,
            "steps_per_s_scalar": steps / scalar_s,
            "steps_per_s_lockstep": steps / lockstep_s,
            "speedup_pairs": ratios,
            "speedup": speedup,
        },
    )

    print()
    print(
        f"lockstep engine ({ENSEMBLE} x dual/nycc Monte-Carlo): "
        f"scalar serial {scalar_s:.2f} s, lockstep {lockstep_s:.2f} s "
        f"(medians of {REPEATS}) -> {speedup:.2f}x median pair ratio "
        f"(IQR {ratios['q1']:.2f}-{ratios['q3']:.2f}) -> {path}"
    )

    # acceptance: >= 5x; the unconditional floor leaves margin for noisy
    # shared runners, the strict gate runs where CI controls the machine
    assert speedup >= 2.0
    if os.environ.get("REPRO_REQUIRE_SPEEDUP"):
        assert speedup >= 5.0
