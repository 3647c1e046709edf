#!/usr/bin/env python
"""Ultracapacitor sizing study (the paper's Table I, self-service).

Sweeps bank sizes for a chosen methodology and prints capacity loss,
average power and thermal safety per size - the analysis an engineer would
run before buying 25,000 F worth of ultracapacitors (~$15k at the paper's
price point).

The sweep is one :func:`repro.run_batch` grid: pass a worker count to fan
it out over processes, and repeated invocations are served from the
experiment store in ``.repro_store``.

Usage::

    python examples/ucap_sizing_study.py [methodology] [cycle] [workers]
"""

import sys

from repro import Scenario, run_batch, scenario_grid
from repro.store import ExperimentStore
from repro.utils.units import kelvin_to_celsius

SIZES_F = (5_000.0, 10_000.0, 15_000.0, 20_000.0, 25_000.0)

#: Paper's cost estimate: ~$12,000 per 20,000 F (Section I).
DOLLARS_PER_FARAD = 0.6


def main():
    methodology = sys.argv[1] if len(sys.argv) > 1 else "otem"
    cycle = sys.argv[2] if len(sys.argv) > 2 else "us06"
    workers = int(sys.argv[3]) if len(sys.argv) > 3 else 0

    grid = scenario_grid(
        Scenario(methodology=methodology, cycle=cycle, repeat=2),
        ucap_farads=SIZES_F,
    )
    batch = run_batch(
        grid, workers=workers, store=ExperimentStore(".repro_store")
    ).raise_on_failure()

    print(
        f"Sizing study: {methodology} on {cycle} x2 "
        f"({len(grid)} cells, {workers or 1} worker(s), "
        f"{batch.cache_hits} cached, {batch.wall_s:.1f} s)"
    )
    print(
        f"{'size [F]':>9} {'cost [$]':>9} {'Qloss [%]':>10} {'avg P [kW]':>11} "
        f"{'peak T [C]':>11} {'unsafe [s]':>11}"
    )
    rows = []
    for cell in batch.cells:
        size, m = cell.scenario.ucap_farads, cell.metrics
        rows.append((size, m))
        print(
            f"{size:>9.0f} {size * DOLLARS_PER_FARAD:>9,.0f} "
            f"{m.qloss_percent:>10.4f} {m.average_power_w / 1000:>11.2f} "
            f"{kelvin_to_celsius(m.peak_temp_k):>11.1f} {m.time_above_safe_s:>11.0f}"
        )

    best = min(rows, key=lambda r: r[1].qloss_percent)
    print()
    print(
        f"Best battery lifetime at {best[0]:,.0f} F "
        f"(${best[0] * DOLLARS_PER_FARAD:,.0f}): {best[1].qloss_percent:.4f}% loss"
    )
    if methodology == "otem":
        spread = max(r[1].qloss_percent for r in rows) / min(
            r[1].qloss_percent for r in rows
        )
        print(
            f"OTEM's loss varies only {spread:.2f}x across a 5x size range - "
            "the paper's point: OTEM does not depend on an expensive bank."
        )


if __name__ == "__main__":
    main()
