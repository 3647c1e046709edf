"""The experiment store: cold-vs-warm sweep wall-clock and row stability.

The acceptance bench for the persistent store: run a smoke-scale sweep
against a fresh :class:`~repro.store.ExperimentStore`, run the identical
sweep again, and assert that the warm pass (a) recomputes nothing,
(b) returns byte-identical service rows, and (c) is at least 10x faster
than the cold pass.  Both sides run in interleaved repeats (a cold pass
into a fresh store, then the warm pass over it), so each pair shares the
host's load; each side's median and quartiles and the median per-pair
speedup land in the perf-trajectory artifact ``BENCH_store.json``.

The 10x floor is intentionally far below reality - a warm pass is pure
SQLite reads (milliseconds) against seconds of simulation - so the
assertion stays robust on loaded CI runners while still catching a store
that silently stops serving hits.
"""

from __future__ import annotations

import json
import os

from benchmarks.conftest import interleaved, run_once, spread
from repro.service.jobs import service_row
from repro.sim.batch import run_batch, scenario_grid
from repro.sim.scenario import Scenario
from repro.store import ExperimentStore

#: The bench_batch smoke grid plus a perturbation ensemble: all three
#: Table I methodologies at both ends of the ucap range on NYCC.
SWEEP = scenario_grid(
    Scenario(cycle="nycc", repeat=1, mpc_max_evals=2),
    ucap_farads=(5_000.0, 25_000.0),
    methodology=("parallel", "dual", "otem"),
)

#: Warm-over-cold wall-clock floor asserted on every run (see module doc).
REQUIRED_SPEEDUP = 10.0

#: Interleaved (cold, warm) pairs; their per-pair ratios are the speedup
#: samples.
REPEATS = 5


def test_store_warm_pass_is_free_and_byte_identical(benchmark, tmp_path):
    fresh = iter([ExperimentStore(tmp_path / f"store{i}") for i in range(REPEATS)])
    store = None

    def cold_pass():
        # each pair's cold pass fills the next fresh store, its warm pass
        # reads it back
        nonlocal store
        store = next(fresh)
        return run_batch(SWEEP, store=store)

    times, last = interleaved(
        {"cold": cold_pass, "warm": lambda: run_batch(SWEEP, store=store)},
        REPEATS,
    )
    cold, warm = last["cold"], last["warm"]
    assert cold.ok
    assert cold.cache_misses == len(SWEEP) and cold.cache_hits == 0
    assert warm.ok
    assert warm.cache_hits == len(SWEEP) and warm.cache_misses == 0

    # the service-row view (tidy rows minus the volatile cached flag) is
    # byte-identical between the computed and the stored pass
    rows_cold = json.dumps([service_row(c) for c in cold.cells], sort_keys=True)
    rows_warm = json.dumps([service_row(c) for c in warm.cells], sort_keys=True)
    assert rows_cold.encode() == rows_warm.encode()

    # one more cold pass for the BENCH_suite.json trajectory
    run_once(benchmark, run_batch, SWEEP, store=ExperimentStore(tmp_path / "suite"))

    ratios = spread([c / w for c, w in zip(times["cold"], times["warm"])])
    speedup = ratios["median"]
    assert speedup >= REQUIRED_SPEEDUP, (
        f"warm store pass only {speedup:.1f}x faster than cold "
        f"(median pair ratio of {REPEATS}; IQR "
        f"{ratios['q1']:.1f}-{ratios['q3']:.1f})"
    )

    stats = store.stats()
    from repro.utils.perf import record_bench

    cold_s, warm_s = spread(times["cold"]), spread(times["warm"])
    path = record_bench(
        "store",
        {
            "sweep": "ucap_size",
            "cells": len(SWEEP),
            "cpu_count": os.cpu_count(),
            "repeats": REPEATS,
            "cold_wall_s": cold_s,
            "warm_wall_s": warm_s,
            "warm_speedup_pairs": ratios,
            "warm_speedup": speedup,
            "rows_byte_identical": rows_cold == rows_warm,
            "store": {
                "cells": stats.cells,
                "bytes": stats.total_bytes,
                "hits": stats.hits,
                "misses": stats.misses,
                "hit_rate": stats.hit_rate,
            },
            "rows": [service_row(c) for c in cold.cells],
        },
    )

    print()
    print(
        f"store sweep ({len(SWEEP)} cells): cold {cold_s['median']:.2f} s, "
        f"warm {warm_s['median']:.3f} s (medians of {REPEATS}) -> "
        f"x{speedup:.0f} median pair ratio (IQR {ratios['q1']:.0f}-"
        f"{ratios['q3']:.0f}, {stats.total_bytes / 1024:.1f} KiB of payload "
        f"JSON) -> {path}"
    )
