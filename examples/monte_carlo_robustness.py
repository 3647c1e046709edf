#!/usr/bin/env python
"""Monte-Carlo robustness: does the comparison survive traffic variation?

The paper evaluates on the nominal drive cycles.  Real traffic never
replays a cycle exactly, so this example re-runs the methodology
comparison over a deterministic ensemble of traffic-perturbed variants
(see ``repro.drivecycle.perturb``) and reports the distribution of the
capacity-loss ratio - checking that OTEM's win is not an artifact of one
specific speed trace.

The (member x methodology) ensemble is a plain scenario grid
(``Scenario(perturb_seed=...)``) executed by :func:`repro.run_batch`, so
it fans out over worker processes and caches per-member results in the
experiment store in ``.repro_store``.

Usage::

    python examples/monte_carlo_robustness.py [cycle] [members] [workers]
"""

import sys

import numpy as np

from repro import Scenario, run_batch, scenario_grid
from repro.store import ExperimentStore

METHODS = ("parallel", "dual", "otem")


def main():
    cycle = sys.argv[1] if len(sys.argv) > 1 else "us06"
    members = int(sys.argv[2]) if len(sys.argv) > 2 else 5
    workers = int(sys.argv[3]) if len(sys.argv) > 3 else 0

    grid = scenario_grid(
        Scenario(cycle=cycle, repeat=2),
        perturb_seed=range(members),
        methodology=METHODS,
    )
    batch = run_batch(
        grid, workers=workers, store=ExperimentStore(".repro_store")
    ).raise_on_failure()

    qloss = {seed: {} for seed in range(members)}
    for cell in batch.cells:
        qloss[cell.scenario.perturb_seed][cell.scenario.methodology] = (
            cell.metrics.qloss_percent
        )

    print(
        f"Ensemble: {members} traffic variants of {cycle} "
        f"({len(grid)} cells, {workers or 1} worker(s), "
        f"{batch.cache_hits} cached, {batch.wall_s:.1f} s)"
    )
    ratios_otem = []
    ratios_dual = []
    for seed in range(members):
        base_q = qloss[seed]["parallel"]
        ratios_otem.append(qloss[seed]["otem"] / base_q)
        ratios_dual.append(qloss[seed]["dual"] / base_q)
        print(
            f"  {cycle}~{seed:<3}: parallel {base_q:.4f}%  "
            f"dual {100 * ratios_dual[-1]:5.1f}%  otem {100 * ratios_otem[-1]:5.1f}%"
        )

    print()
    print(
        f"OTEM capacity-loss ratio: {100 * np.mean(ratios_otem):.1f}% "
        f"+/- {100 * np.std(ratios_otem):.1f}% of parallel "
        f"(worst member {100 * np.max(ratios_otem):.1f}%)"
    )
    print(
        f"Dual capacity-loss ratio: {100 * np.mean(ratios_dual):.1f}% "
        f"+/- {100 * np.std(ratios_dual):.1f}%"
    )
    if max(ratios_otem) < 1.0:
        print("OTEM beats the parallel baseline on every ensemble member.")


if __name__ == "__main__":
    main()
