"""Discrete-time simulation of a managed HEES driving a route.

:class:`Simulator` implements the outer loop of the paper's Algorithm 1:
observe, let the controller decide, apply the decision to the HEES plant and
the cooling loop, accumulate Q_loss and Energy, carry the states to the next
step.

Public API
----------
``Simulator`` / ``SimulationResult``
    The engine and its output (trace + summary metrics).
``Trace``
    Per-step time series recorded during a run.
``SummaryMetrics`` / ``compute_metrics``
    The quantities the paper's evaluation reports.
``Scenario`` / ``run_scenario``
    One-call convenience wrapper (controller + cycle + sizing -> result).
``run_batch`` / ``scenario_grid`` / ``BatchResult``
    Parallel execution of scenario grids, cached in a
    :class:`repro.store.ExperimentStore` when one is passed.
``run_lockstep`` / ``lockstep_supported`` / ``lockstep_groups``
    The vectorized lockstep engine: baseline and vectorized-OTEM ensembles
    advance as one struct-of-arrays batch.  ``run_batch`` routes a cell to
    it when the cell is supported and has a group-mate in the grid
    (``lockstep_groups`` is that rule); every other cell runs on the
    scalar engine.
"""

from repro.sim.trace import Trace, TraceRecorder
from repro.sim.metrics import SummaryMetrics, compute_metrics
from repro.sim.engine import SimulationResult, Simulator
from repro.sim.scenario import Scenario, build_controller, run_scenario
from repro.sim.batch import (
    BatchCell,
    BatchResult,
    run_batch,
    scenario_fingerprint,
    scenario_grid,
)
from repro.sim.engine_vec import (
    lockstep_groups,
    lockstep_key,
    lockstep_supported,
    run_lockstep,
    run_lockstep_group,
)

__all__ = [
    "Trace",
    "TraceRecorder",
    "SummaryMetrics",
    "compute_metrics",
    "SimulationResult",
    "Simulator",
    "Scenario",
    "build_controller",
    "run_scenario",
    "BatchCell",
    "BatchResult",
    "run_batch",
    "scenario_fingerprint",
    "scenario_grid",
    "lockstep_groups",
    "lockstep_key",
    "lockstep_supported",
    "run_lockstep",
    "run_lockstep_group",
]
