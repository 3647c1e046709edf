"""Battery-LifeTime (BLT) projection with aging feedback.

The paper's headline metric is BLT: the battery is end-of-life at 20%
capacity loss (Section I).  A single-route simulation yields a per-route
loss, but extrapolating routes-to-EOL linearly ignores the feedback that
makes aging super-linear in time: a faded cell has less capacity (higher
C-rate at the same power) and more resistance (more heat), both of which
accelerate further fading.

:func:`project_lifetime` integrates that feedback piecewise: it simulates
the route at a handful of degradation stages (0%, 5%, ... of capacity
lost) with the cell parameters derated via
:meth:`repro.battery.params.CellParams.aged`, measures the per-route loss
at each stage (one independent simulation per stage, run as one batch
grid), and integrates stage-by-stage to end-of-life.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.battery.aging import END_OF_LIFE_LOSS_PERCENT
from repro.battery.pack import PackConfig

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids battery<->sim cycle)
    from repro.sim.scenario import Scenario


@dataclass(frozen=True)
class LifetimeProjection:
    """Outcome of a BLT projection.

    Attributes
    ----------
    methodology / cycle:
        What was projected.
    stage_loss_percent:
        Degradation stages simulated [% capacity lost at stage start].
    stage_rate_percent_per_route:
        Measured per-route loss at each stage.
    routes_to_eol:
        Integrated routes until 20% loss, with feedback.
    routes_to_eol_naive:
        Linear extrapolation from the fresh-battery rate (what a
        single-route analysis would report).
    acceleration_factor:
        naive / with-feedback - how much the feedback shortens life.
    """

    methodology: str
    cycle: str
    stage_loss_percent: tuple
    stage_rate_percent_per_route: tuple
    routes_to_eol: float
    routes_to_eol_naive: float

    @property
    def acceleration_factor(self) -> float:
        """How much aging feedback shortens the naive lifetime estimate."""
        if self.routes_to_eol <= 0:
            return float("inf")
        return self.routes_to_eol_naive / self.routes_to_eol


def project_lifetime(
    scenario: "Scenario",
    stages: int = 4,
    eol_percent: float = END_OF_LIFE_LOSS_PERCENT,
) -> LifetimeProjection:
    """Project routes-to-end-of-life for a scenario, with aging feedback.

    The stages are independent simulations, so they run as one
    :func:`repro.sim.batch.run_batch` grid (each stage has its own pack,
    so each runs on the scalar engine); a failed stage raises.

    Parameters
    ----------
    scenario:
        The route + methodology to project (its ``pack`` is re-derated per
        stage).
    stages:
        Number of degradation stages to simulate (>= 2; more stages =
        smoother integration, one full simulation each).
    eol_percent:
        End-of-life capacity-loss threshold [%] (paper: 20).
    """
    from repro.sim.batch import run_batch

    if stages < 2:
        raise ValueError("stages must be >= 2")
    if eol_percent <= 0:
        raise ValueError("eol_percent must be positive")

    stage_edges = [eol_percent * k / stages for k in range(stages)]
    grid = [
        replace(
            scenario,
            pack=PackConfig(
                series=scenario.pack.series,
                parallel=scenario.pack.parallel,
                cell=scenario.pack.cell.aged(stage_loss),
            ),
        )
        for stage_loss in stage_edges
    ]
    cells = run_batch(grid).raise_on_failure().cells
    rates = [max(cell.metrics.qloss_percent, 1e-12) for cell in cells]

    # integrate: each stage spans eol/stages percent of loss at its
    # measured rate
    span = eol_percent / stages
    routes = sum(span / rate for rate in rates)
    naive = eol_percent / rates[0]
    return LifetimeProjection(
        methodology=scenario.methodology,
        cycle=scenario.cycle,
        stage_loss_percent=tuple(stage_edges),
        stage_rate_percent_per_route=tuple(rates),
        routes_to_eol=routes,
        routes_to_eol_naive=naive,
    )


def blt_improvement_percent(
    candidate: LifetimeProjection, reference: LifetimeProjection
) -> float:
    """BLT improvement of ``candidate`` over ``reference`` [%].

    This is the paper's abstract metric ("improvement in BLT, on average
    16.8%"): how many more routes the candidate methodology gets out of
    the same battery.
    """
    if reference.routes_to_eol <= 0:
        raise ValueError("reference lifetime must be positive")
    return 100.0 * (candidate.routes_to_eol / reference.routes_to_eol - 1.0)
