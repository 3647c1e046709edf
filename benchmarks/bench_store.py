"""The experiment store: cold-vs-warm sweep wall-clock and row stability.

The acceptance bench for the persistent store: run a smoke-scale sweep
against a fresh :class:`~repro.store.ExperimentStore`, run the identical
sweep again, and assert that the warm pass (a) recomputes nothing,
(b) returns byte-identical service rows, and (c) is at least 10x faster
than the cold pass.  The measured wall-clocks and the speedup land in the
perf-trajectory artifact ``BENCH_store.json``.

The 10x floor is intentionally far below reality - a warm pass is pure
SQLite reads (milliseconds) against seconds of simulation - so the
assertion stays robust on loaded CI runners while still catching a store
that silently stops serving hits.
"""

from __future__ import annotations

import json
import os

from repro.service.jobs import service_row
from repro.sim.batch import run_batch, scenario_grid
from repro.sim.scenario import Scenario
from repro.store import ExperimentStore

#: The bench_batch smoke grid plus a perturbation ensemble: all three
#: Table I methodologies at both ends of the ucap range on NYCC.
SWEEP = scenario_grid(
    Scenario(cycle="nycc", repeat=1, mpc_max_evals=60),
    ucap_farads=(5_000.0, 25_000.0),
    methodology=("parallel", "dual", "otem"),
)

#: Warm-over-cold wall-clock floor asserted on every run (see module doc).
REQUIRED_SPEEDUP = 10.0


def test_store_warm_pass_is_free_and_byte_identical(benchmark, tmp_path):
    from benchmarks.conftest import run_once

    store = ExperimentStore(tmp_path / "store")

    cold = run_once(benchmark, run_batch, SWEEP, store=store)
    assert cold.ok
    assert cold.cache_misses == len(SWEEP) and cold.cache_hits == 0

    warm = run_batch(SWEEP, store=store)
    assert warm.ok
    assert warm.cache_hits == len(SWEEP) and warm.cache_misses == 0

    # the service-row view (tidy rows minus the volatile cached flag) is
    # byte-identical between the computed and the stored pass
    rows_cold = json.dumps([service_row(c) for c in cold.cells], sort_keys=True)
    rows_warm = json.dumps([service_row(c) for c in warm.cells], sort_keys=True)
    assert rows_cold.encode() == rows_warm.encode()

    speedup = cold.wall_s / warm.wall_s if warm.wall_s else float("inf")
    assert speedup >= REQUIRED_SPEEDUP, (
        f"warm store pass only {speedup:.1f}x faster than cold "
        f"({warm.wall_s:.3f} s vs {cold.wall_s:.3f} s)"
    )

    stats = store.stats()
    from repro.utils.perf import record_bench

    path = record_bench(
        "store",
        {
            "sweep": "ucap_size",
            "cells": len(SWEEP),
            "cpu_count": os.cpu_count(),
            "cold_wall_s": cold.wall_s,
            "warm_wall_s": warm.wall_s,
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
        f"store sweep ({len(SWEEP)} cells): cold {cold.wall_s:.2f} s, "
        f"warm {warm.wall_s:.3f} s (x{speedup:.0f}, "
        f"{stats.total_bytes / 1024:.1f} KiB of payload JSON) -> {path}"
    )
