"""Table I generator: ultracapacitor size analysis.

The paper's Table I reports, for each bank size in {5,000; 10,000; 20,000;
25,000} F and each of {Parallel [15], Dual [16], OTEM}, the average power
[W] and the capacity loss normalized to the parallel architecture at
25,000 F (= 100%), on the US06 cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from repro.analysis.figures import _pivot
from repro.sim.batch import run_batch
from repro.sim.scenario import Scenario

#: The paper's Table I sweep.
TABLE1_SIZES_F = (5_000.0, 10_000.0, 20_000.0, 25_000.0)
TABLE1_METHODS = ("parallel", "dual", "otem")

#: Paper values for EXPERIMENTS.md side-by-side (size -> method -> value).
PAPER_AVG_POWER_W = {
    5_000.0: {"parallel": 16_919, "dual": 15_239, "otem": 22_391},
    10_000.0: {"parallel": 16_893, "dual": 14_381, "otem": 22_274},
    20_000.0: {"parallel": 16_856, "dual": 13_891, "otem": 21_094},
    25_000.0: {"parallel": 16_846, "dual": 14_156, "otem": 20_662},
}
PAPER_CAPACITY_LOSS_PCT = {
    5_000.0: {"parallel": 175.24, "dual": 85.53, "otem": 49.03},
    10_000.0: {"parallel": 136.02, "dual": 82.84, "otem": 48.61},
    20_000.0: {"parallel": 107.21, "dual": 78.30, "otem": 44.40},
    25_000.0: {"parallel": 100.00, "dual": 84.70, "otem": 42.85},
}


@dataclass(frozen=True)
class Table1Row:
    """One size row of Table I.

    Attributes
    ----------
    size_f:
        Bank size [F].
    avg_power_w:
        methodology -> average power [W].
    capacity_loss_pct:
        methodology -> capacity loss normalized to parallel@25kF [%].
    """

    size_f: float
    avg_power_w: Dict[str, float]
    capacity_loss_pct: Dict[str, float]


@dataclass(frozen=True)
class Table1Data:
    """The full Table I."""

    cycle: str
    repeat: int
    rows: tuple

    def row(self, size_f: float) -> Table1Row:
        """Look up the row for a bank size."""
        for r in self.rows:
            if abs(r.size_f - size_f) < 1e-6:
                return r
        raise KeyError(f"no row for size {size_f}")


def table1_data(
    sizes_f: Sequence[float] = TABLE1_SIZES_F,
    methods: Sequence[str] = TABLE1_METHODS,
    cycle: str = "us06",
    repeat: int = 2,
    workers: int = 0,
) -> Table1Data:
    """Regenerate Table I on the US06 cycle.

    Capacity losses are normalized to the parallel architecture at the
    largest swept size, exactly as in the paper.  The (size x method) grid
    runs through :func:`repro.sim.batch.run_batch`: pass ``workers`` to
    fan it out over processes.
    """
    scenarios = [
        Scenario(methodology=m, cycle=cycle, repeat=repeat, ucap_farads=size)
        for size in sizes_f
        for m in methods
    ]
    batch = run_batch(scenarios, workers=workers).raise_on_failure()

    raw_qloss = _pivot(batch.cells, "ucap_farads", "qloss_percent")
    raw_power = _pivot(batch.cells, "ucap_farads", "average_power_w")

    reference = raw_qloss[max(sizes_f)].get("parallel")
    rows = []
    for size in sizes_f:
        normalized = {
            m: (100.0 * raw_qloss[size][m] / reference if reference else float("nan"))
            for m in methods
        }
        rows.append(
            Table1Row(
                size_f=float(size),
                avg_power_w=dict(raw_power[size]),
                capacity_loss_pct=normalized,
            )
        )
    return Table1Data(cycle=cycle, repeat=repeat, rows=tuple(rows))
