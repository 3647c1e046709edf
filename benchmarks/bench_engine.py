"""Lockstep engine throughput: one vectorized batch vs the serial loop.

The tentpole measurement of the lockstep-engine PR: a 64-scenario
Monte-Carlo ensemble (dual-architecture baseline on NYCC, perturbation
seeds 0..63) advanced as one struct-of-arrays batch by
``repro.sim.engine_vec`` versus the same scenarios run one-by-one through
the scalar ``Simulator``.  Power requests are prebuilt for both sides, so
the comparison times the engines themselves, not cycle synthesis or the
perturbation cache.  Records per-engine wall clocks and the speedup to
``BENCH_engine.json``; the acceptance target is >= 5x, asserted under the
strict CI gate with a noise-margin floor of 2x everywhere else.
"""

from __future__ import annotations

import os
import statistics
import time

from benchmarks.conftest import run_once
from repro.sim.engine import Simulator
from repro.sim.engine_vec import build_request, run_lockstep_group
from repro.sim.scenario import Scenario, build_controller

#: Ensemble size of the paper-style Monte-Carlo traffic sweep.
ENSEMBLE = 64

#: Lockstep repetitions (the batch is fast; medians stabilize quickly).
REPEATS = 3

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
        preview_steps=10,
    )
    return simulator.run(request)


def lockstep_dual_ensemble(requests) -> list:
    """The timed call: the whole ensemble as one lockstep batch."""
    return run_lockstep_group(SCENARIOS, requests)


def test_lockstep_engine_speedup(benchmark):
    requests = [build_request(s) for s in SCENARIOS]

    # serial scalar reference: one Simulator per scenario
    start = time.perf_counter()
    scalar_results = [
        _run_scalar(s, r) for s, r in zip(SCENARIOS, requests)
    ]
    scalar_s = time.perf_counter() - start

    # lockstep: the whole ensemble is one batch; median of a few passes
    lockstep_times = []
    lockstep_results = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        lockstep_results = run_lockstep_group(SCENARIOS, requests)
        lockstep_times.append(time.perf_counter() - start)
    lockstep_s = statistics.median(lockstep_times)

    run_once(benchmark, lockstep_dual_ensemble, requests)

    # both engines must tell the same story (tests/sim/test_engine_vec.py
    # holds the full bitwise/ulp contract; this is a smoke check)
    for scalar, lockstep in zip(scalar_results, lockstep_results):
        assert abs(
            lockstep.metrics.qloss_percent - scalar.metrics.qloss_percent
        ) <= 1e-9 * scalar.metrics.qloss_percent
        assert lockstep.metrics.peak_temp_k == scalar.metrics.peak_temp_k

    speedup = scalar_s / lockstep_s
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
            "repeats_lockstep": REPEATS,
            "cpu_count": os.cpu_count(),
            "scalar_serial_s": scalar_s,
            "scalar_per_scenario_s": scalar_s / ENSEMBLE,
            "lockstep_median_s": lockstep_s,
            "lockstep_per_scenario_s": lockstep_s / ENSEMBLE,
            "steps_per_s_scalar": steps / scalar_s,
            "steps_per_s_lockstep": steps / lockstep_s,
            "speedup": speedup,
        },
    )

    print()
    print(
        f"lockstep engine ({ENSEMBLE} x dual/nycc Monte-Carlo): "
        f"scalar serial {scalar_s:.2f} s, "
        f"lockstep {lockstep_s:.2f} s -> {speedup:.2f}x -> {path}"
    )

    # acceptance: >= 5x; the unconditional floor leaves margin for noisy
    # shared runners, the strict gate runs where CI controls the machine
    assert speedup >= 2.0
    if os.environ.get("REPRO_REQUIRE_SPEEDUP"):
        assert speedup >= 5.0
