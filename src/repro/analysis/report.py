"""Text rendering of the regenerated tables and figures.

The benchmarks print these so a run of ``pytest benchmarks/`` leaves the
same rows/series the paper reports in the captured output.
"""

from __future__ import annotations

from repro.analysis.figures import (
    Fig1Data,
    MethodologyComparison,
    METHOD_LABELS,
)
from repro.analysis.tables import Table1Data
from repro.utils.units import kelvin_to_celsius


def render_fig1(data: Fig1Data) -> str:
    """Fig. 1 as a text summary: peak temperature and violation per size."""
    lines = [
        "Fig. 1 - Battery temperature, dual architecture (thermal case study)",
        f"safe limit: {kelvin_to_celsius(data.safe_limit_k):.1f} C",
        f"{'size [F]':>10} {'peak T [C]':>12} {'time above limit [s]':>22}",
    ]
    for size, temps, violation in zip(data.sizes_f, data.temps_k, data.violation_s):
        lines.append(
            f"{size:>10.0f} {float(kelvin_to_celsius(temps.max())):>12.1f} {violation:>22.0f}"
        )
    return "\n".join(lines)


def render_fig8(data: MethodologyComparison) -> str:
    """Fig. 8 as a text table: capacity-loss ratio vs parallel, per cycle."""
    methods = data.methodologies
    header = f"{'cycle':>8} " + " ".join(f"{METHOD_LABELS[m]:>14}" for m in methods)
    lines = [
        "Fig. 8 - Battery capacity loss relative to the parallel baseline [%]",
        header,
    ]
    for cycle in data.cycles:
        row = data.qloss_ratio_vs_parallel[cycle]
        lines.append(
            f"{cycle:>8} " + " ".join(f"{100.0 * row[m]:>14.1f}" for m in methods)
        )
    if "otem" in methods:
        lines.append(
            f"OTEM mean capacity-loss reduction vs parallel: "
            f"{data.mean_qloss_reduction_vs_parallel('otem'):.1f}% "
            f"(paper: 16.38% across cycles, 57% on US06/Table I)"
        )
    return "\n".join(lines)


def render_fig9(data: MethodologyComparison) -> str:
    """Fig. 9 as a text table: average power per cycle and methodology."""
    methods = data.methodologies
    header = f"{'cycle':>8} " + " ".join(f"{METHOD_LABELS[m]:>14}" for m in methods)
    lines = ["Fig. 9 - Average power consumption [W]", header]
    for cycle in data.cycles:
        row = data.avg_power_w[cycle]
        lines.append(
            f"{cycle:>8} " + " ".join(f"{row[m]:>14.0f}" for m in methods)
        )
    if "otem" in methods and "cooling" in methods:
        lines.append(
            f"OTEM mean power reduction vs cooling-only: "
            f"{data.mean_power_reduction_vs('otem', 'cooling'):.1f}% (paper: 12.1%)"
        )
    return "\n".join(lines)


def render_table1(data: Table1Data) -> str:
    """Table I in the paper's layout, over the methods its rows hold.

    Columns follow the rows' order, which :func:`~repro.analysis.tables.
    table1_data` takes from its ``methods`` (``TABLE1_METHODS`` by default).
    """
    methods = tuple(data.rows[0].avg_power_w) if data.rows else ()
    lines = [
        f"Table I - Ultracapacitor size analysis ({data.cycle.upper()} x{data.repeat})",
        f"{'size [F]':>10} | "
        + " ".join(f"P({m})[W]".rjust(13) for m in methods)
        + " | "
        + " ".join(f"Q({m})[%]".rjust(13) for m in methods),
    ]
    for row in data.rows:
        lines.append(
            f"{row.size_f:>10.0f} | "
            + " ".join(f"{row.avg_power_w[m]:>13.0f}" for m in methods)
            + " | "
            + " ".join(f"{row.capacity_loss_pct[m]:>13.2f}" for m in methods)
        )
    return "\n".join(lines)
