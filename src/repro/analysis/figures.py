"""Data generators for the paper's figures (Fig. 1, 6, 7, 8, 9).

Every generator returns the exact series the corresponding figure plots;
nothing here draws - rendering (text tables) lives in
:mod:`repro.analysis.report`, and plotting is left to downstream users (the
arrays are plain numpy).  Fig. 1, 6 and 7 plot traces, so they run each
cell on its own; Fig. 8 and 9 plot per-cell summaries, so their one sweep
runs through :func:`~repro.sim.batch.run_batch`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence

import numpy as np

from repro.core.teb import teb_preparation_score, teb_trace, upcoming_demand_w
from repro.sim.batch import run_batch, scenario_grid
from repro.sim.metrics import SAFE_TEMP_MAX_K
from repro.sim.scenario import Scenario, run_scenario

#: The methodology set of Section IV-B, in the paper's order.
ALL_METHODOLOGIES = ("parallel", "cooling", "dual", "otem")

#: Paper display names.
METHOD_LABELS = {
    "parallel": "Parallel [15]",
    "cooling": "Cooling [25]",
    "dual": "Dual [16]",
    "otem": "OTEM",
}

#: The drive-cycle set of Fig. 8/9.
ALL_CYCLES = ("us06", "udds", "hwfet", "nycc", "la92")


# --------------------------------------------------------------------- #
# Fig. 1 - motivational case study: dual architecture, ultracap sizing


@dataclass(frozen=True)
class Fig1Data:
    """Battery temperature traces of the thermal case study.

    Attributes
    ----------
    sizes_f:
        Ultracapacitor sizes swept [F].
    time_s:
        Common time axis [s].
    temps_k:
        One temperature trace per size, same order as ``sizes_f``.
    safe_limit_k:
        The C1 threshold drawn in the paper's figure.
    violation_s:
        Seconds above the threshold, per size.
    """

    sizes_f: tuple
    time_s: np.ndarray
    temps_k: tuple
    safe_limit_k: float
    violation_s: tuple


def fig1_data(
    sizes_f: Sequence[float] = (5_000, 10_000, 20_000, 25_000),
    cycle: str = "us06",
    repeat: int = 5,
) -> Fig1Data:
    """Reproduce Fig. 1: dual-architecture thermal management vs bank size.

    Small banks deplete before the battery cools, the recharge re-heats the
    pack, and the safe threshold is violated; the violation time shrinks as
    the bank grows.
    """
    temps = []
    violations = []
    time_axis = None
    for size in sizes_f:
        result = run_scenario(
            Scenario(methodology="dual", cycle=cycle, repeat=repeat, ucap_farads=size)
        )
        temps.append(result.trace.battery_temp_k)
        violations.append(result.metrics.time_above_safe_s)
        time_axis = result.trace.time_s
    return Fig1Data(
        sizes_f=tuple(sizes_f),
        time_s=time_axis,
        temps_k=tuple(temps),
        safe_limit_k=SAFE_TEMP_MAX_K,
        violation_s=tuple(violations),
    )


# --------------------------------------------------------------------- #
# Fig. 6 - temperature trace per methodology


@dataclass(frozen=True)
class Fig6Data:
    """Battery temperature traces for the four methodologies.

    Attributes
    ----------
    time_s:
        Common time axis [s].
    temps_k:
        Map methodology -> temperature trace.
    peak_k / mean_k:
        Map methodology -> peak / mean temperature.
    """

    time_s: np.ndarray
    temps_k: Dict[str, np.ndarray]
    peak_k: Dict[str, float]
    mean_k: Dict[str, float]


def fig6_data(
    cycle: str = "us06",
    repeat: int = 5,
    ucap_farads: float = 25_000.0,
    methodologies: Sequence[str] = ALL_METHODOLOGIES,
) -> Fig6Data:
    """Reproduce Fig. 6: battery temperature under each methodology."""
    temps: Dict[str, np.ndarray] = {}
    time_axis = None
    for m in methodologies:
        result = run_scenario(
            Scenario(methodology=m, cycle=cycle, repeat=repeat, ucap_farads=ucap_farads)
        )
        temps[m] = result.trace.battery_temp_k
        time_axis = result.trace.time_s
    return Fig6Data(
        time_s=time_axis,
        temps_k=temps,
        peak_k={m: float(np.max(t)) for m, t in temps.items()},
        mean_k={m: float(np.mean(t)) for m, t in temps.items()},
    )


# --------------------------------------------------------------------- #
# Fig. 7 - TEB preparation (temporal analysis)


@dataclass(frozen=True)
class Fig7Data:
    """OTEM's temporal TEB-preparation traces.

    Attributes
    ----------
    time_s:
        Time axis [s].
    battery_temp_k / cap_soe_percent / request_w:
        The three signals the paper's Fig. 7 overlays.
    teb:
        The combined TEB metric per step (repro-defined quantification).
    upcoming_demand_w:
        Mean positive demand over the next 30 s (what TEB should lead).
    preparation_score:
        Correlation of TEB with upcoming demand (> 0 = budget is prepared
        ahead of large requests, the figure's qualitative claim).
    """

    time_s: np.ndarray
    battery_temp_k: np.ndarray
    cap_soe_percent: np.ndarray
    request_w: np.ndarray
    teb: np.ndarray
    upcoming_demand_w: np.ndarray
    preparation_score: float


def fig7_data(
    cycle: str = "us06",
    repeat: int = 5,
    ucap_farads: float = 25_000.0,
    lookahead_steps: int = 30,
) -> Fig7Data:
    """Reproduce Fig. 7: OTEM pre-charges / pre-cools ahead of demand."""
    result = run_scenario(
        Scenario(methodology="otem", cycle=cycle, repeat=repeat, ucap_farads=ucap_farads)
    )
    trace = result.trace
    return Fig7Data(
        time_s=trace.time_s,
        battery_temp_k=trace.battery_temp_k,
        cap_soe_percent=trace.cap_soe_percent,
        request_w=trace.request_w,
        teb=teb_trace(trace),
        upcoming_demand_w=upcoming_demand_w(trace, lookahead_steps),
        preparation_score=teb_preparation_score(trace, lookahead_steps),
    )


# --------------------------------------------------------------------- #
# Fig. 8 / Fig. 9 - per-cycle comparison of Q_loss and average power


@dataclass(frozen=True)
class MethodologyComparison:
    """Per-cycle, per-methodology aggregates (backs Fig. 8 and Fig. 9).

    Attributes
    ----------
    cycles:
        Drive cycles evaluated.
    methodologies:
        Methodologies evaluated.
    qloss_percent:
        ``qloss_percent[cycle][methodology]`` - capacity loss [%].
    avg_power_w:
        ``avg_power_w[cycle][methodology]`` - average power [W].
    qloss_ratio_vs_parallel:
        Capacity loss normalized to the parallel baseline per cycle
        (the paper's Fig. 8 y-axis).
    """

    cycles: tuple
    methodologies: tuple
    qloss_percent: Dict[str, Dict[str, float]] = field(default_factory=dict)
    avg_power_w: Dict[str, Dict[str, float]] = field(default_factory=dict)
    qloss_ratio_vs_parallel: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def mean_qloss_reduction_vs_parallel(self, methodology: str) -> float:
        """Average (over cycles) capacity-loss reduction vs parallel [%]."""
        ratios = [
            self.qloss_ratio_vs_parallel[c][methodology] for c in self.cycles
        ]
        return 100.0 * (1.0 - float(np.mean(ratios)))

    def mean_power_reduction_vs(self, methodology: str, reference: str) -> float:
        """Average (over cycles) power reduction of ``methodology`` vs ``reference`` [%]."""
        ratios = [
            self.avg_power_w[c][methodology] / self.avg_power_w[c][reference]
            for c in self.cycles
        ]
        return 100.0 * (1.0 - float(np.mean(ratios)))


def _pivot(cells, row_field: str, metric: str) -> Dict:
    """``{row: {methodology: value}}`` of one metric over batch cells.

    ``row_field`` names the :class:`Scenario` field that keys the rows
    (``cycle`` for Fig. 8/9, ``ucap_farads`` for Table I); rows and
    methodologies keep the cells' order.
    """
    table: Dict = {}
    for cell in cells:
        s = cell.scenario
        table.setdefault(getattr(s, row_field), {})[s.methodology] = getattr(
            cell.metrics, metric
        )
    return table


def fig8_data(
    cycles: Sequence[str] = ALL_CYCLES,
    methodologies: Sequence[str] = ALL_METHODOLOGIES,
    repeat: int = 2,
    ucap_farads: float = 25_000.0,
) -> MethodologyComparison:
    """Reproduce Fig. 8 and Fig. 9: capacity loss and average power.

    The paper draws both figures from the same runs, so this one
    (cycle x methodology) sweep backs ``render_fig8`` and ``render_fig9``.
    It runs through :func:`repro.sim.batch.run_batch`, which groups each
    baseline's cells across the cycles into one lockstep group.
    """
    grid = scenario_grid(
        Scenario(repeat=repeat, ucap_farads=ucap_farads),
        cycle=cycles,
        methodology=methodologies,
    )
    cells = run_batch(grid).raise_on_failure().cells
    qloss = _pivot(cells, "cycle", "qloss_percent")
    ratio = {}
    for cycle, row in qloss.items():
        base = row.get("parallel")
        ratio[cycle] = {
            m: (value / base if base else float("nan")) for m, value in row.items()
        }
    return MethodologyComparison(
        cycles=tuple(cycles),
        methodologies=tuple(methodologies),
        qloss_percent=qloss,
        avg_power_w=_pivot(cells, "cycle", "average_power_w"),
        qloss_ratio_vs_parallel=ratio,
    )
