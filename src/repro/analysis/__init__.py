"""Experiment harness: regenerate every table and figure of the paper.

Each ``fig*_data`` / ``table1_data`` function runs the required scenarios
and returns a plain data structure with exactly the series/rows the paper
plots or tabulates; ``repro.analysis.report`` renders them as text.  Every
summary artefact (Table I, Fig. 8/9, the sensitivity check) runs its grid
through :func:`repro.sim.batch.run_batch`; Fig. 8 and Fig. 9 share one
sweep, ``fig8_data``.  The trace figures (1, 6, 7) run each cell on its
own.  The ``benchmarks/`` directory wraps these in pytest-benchmark
entries, and EXPERIMENTS.md records paper-vs-measured values.

Scale note: the paper drives US06 five times for the temperature analyses;
the generators take a ``repeat`` argument so tests/benches can use shorter
runs (the orderings are established well before the fifth repetition).
"""

from repro.analysis.figures import (
    Fig1Data,
    Fig6Data,
    Fig7Data,
    MethodologyComparison,
    fig1_data,
    fig6_data,
    fig7_data,
    fig8_data,
)
from repro.analysis.tables import Table1Data, Table1Row, table1_data
from repro.analysis.report import (
    render_fig1,
    render_fig8,
    render_fig9,
    render_table1,
)
from repro.analysis.sensitivity import (
    OrderingCheck,
    SensitivityCase,
    check_orderings,
    default_cases,
)
from repro.analysis.export import write_trace_csv

__all__ = [
    "Fig1Data",
    "Fig6Data",
    "Fig7Data",
    "MethodologyComparison",
    "fig1_data",
    "fig6_data",
    "fig7_data",
    "fig8_data",
    "Table1Data",
    "Table1Row",
    "table1_data",
    "render_fig1",
    "render_fig8",
    "render_fig9",
    "render_table1",
    "OrderingCheck",
    "SensitivityCase",
    "check_orderings",
    "default_cases",
    "write_trace_csv",
]
