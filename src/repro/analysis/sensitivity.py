"""Calibration-sensitivity analysis.

DESIGN.md section 6 records the parameters chosen to place the system in
the paper's operating regime.  This module checks how robust the paper's
*orderings* are to those choices: perturb one calibration knob at a time,
re-run the (fast) baseline methodologies as one batch grid, and report
whether each headline ordering still holds.

Used by ``benchmarks/bench_sensitivity.py`` and directly as a library
facility for anyone re-calibrating the models.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict

from repro.battery.pack import DEFAULT_PACK, PackConfig
from repro.cooling.coolant import DEFAULT_COOLANT
from repro.sim.batch import run_batch
from repro.sim.scenario import Scenario


@dataclass(frozen=True)
class SensitivityCase:
    """One perturbed configuration.

    Attributes
    ----------
    name:
        Human-readable knob description ("res_base +25%").
    scenario_patch:
        Callable mapping a base :class:`Scenario` to the perturbed one.
    """

    name: str
    scenario_patch: Callable


def _patch_cell(**cell_changes) -> Callable:
    def patch(scenario: Scenario) -> Scenario:
        cell = replace(scenario.pack.cell, **cell_changes)
        pack = PackConfig(
            series=scenario.pack.series, parallel=scenario.pack.parallel, cell=cell
        )
        return replace(scenario, pack=pack)

    return patch


def _patch_coolant(**coolant_changes) -> Callable:
    def patch(scenario: Scenario) -> Scenario:
        return replace(
            scenario, coolant=replace(scenario.coolant, **coolant_changes)
        )

    return patch


def default_cases() -> list:
    """The calibration knobs DESIGN.md flags, perturbed +/-25-50%."""
    cell = DEFAULT_PACK.cell
    coolant = DEFAULT_COOLANT
    return [
        SensitivityCase("nominal", lambda s: s),
        SensitivityCase(
            "res_base +25%", _patch_cell(res_base=cell.res_base * 1.25)
        ),
        SensitivityCase(
            "res_base -25%", _patch_cell(res_base=cell.res_base * 0.75)
        ),
        SensitivityCase(
            "aging Ea +10%",
            _patch_cell(
                aging_activation_j_per_mol=cell.aging_activation_j_per_mol * 1.10
            ),
        ),
        SensitivityCase(
            "aging Ea -10%",
            _patch_cell(
                aging_activation_j_per_mol=cell.aging_activation_j_per_mol * 0.90
            ),
        ),
        SensitivityCase(
            "passive h +50%",
            _patch_coolant(passive_h_w_per_k=coolant.passive_h_w_per_k * 1.5),
        ),
        SensitivityCase(
            "passive h -50%",
            _patch_coolant(passive_h_w_per_k=coolant.passive_h_w_per_k * 0.5),
        ),
        SensitivityCase(
            "cooler eff +25%",
            _patch_coolant(cooler_efficiency=coolant.cooler_efficiency * 1.25),
        ),
    ]


@dataclass(frozen=True)
class OrderingCheck:
    """Ordering results for one perturbed configuration.

    Attributes
    ----------
    case:
        The perturbation name.
    qloss_percent:
        methodology -> capacity loss [%].
    avg_power_w:
        methodology -> average power [W].
    dual_beats_parallel_qloss / cooling_beats_parallel_qloss /
    parallel_cheapest / cooling_priciest:
        The paper-shape orderings on the fast baseline set.
    """

    case: str
    qloss_percent: Dict[str, float]
    avg_power_w: Dict[str, float]

    @property
    def dual_beats_parallel_qloss(self) -> bool:
        """Fig. 8 ordering (baseline pair)."""
        return self.qloss_percent["dual"] < self.qloss_percent["parallel"]

    @property
    def cooling_beats_parallel_qloss(self) -> bool:
        """Fig. 8 ordering (cooling pair)."""
        return self.qloss_percent["cooling"] < self.qloss_percent["parallel"]

    @property
    def parallel_cheapest(self) -> bool:
        """Fig. 9 ordering."""
        return self.avg_power_w["parallel"] == min(self.avg_power_w.values())

    @property
    def cooling_priciest(self) -> bool:
        """Fig. 9 ordering."""
        return self.avg_power_w["cooling"] == max(self.avg_power_w.values())

    @property
    def all_hold(self) -> bool:
        """Whether every checked ordering survives this perturbation."""
        return (
            self.dual_beats_parallel_qloss
            and self.cooling_beats_parallel_qloss
            and self.parallel_cheapest
            and self.cooling_priciest
        )


def check_orderings(
    cases=None,
    cycle: str = "us06",
    repeat: int = 3,
    methodologies=("parallel", "cooling", "dual"),
) -> list:
    """Run the baseline set under each perturbation; return ordering checks.

    Every (case x methodology) cell runs as one grid through
    :func:`repro.sim.batch.run_batch`.  OTEM is excluded by default (it
    re-optimizes per configuration, so its win is even more robust than the
    baselines' - and it is 100x slower to sweep; include it explicitly if
    wanted).
    """
    cases = default_cases() if cases is None else cases
    base = Scenario(methodology="parallel", cycle=cycle, repeat=repeat)
    grid = [
        case.scenario_patch(replace(base, methodology=m))
        for case in cases
        for m in methodologies
    ]
    cells = run_batch(grid).raise_on_failure().cells
    n = len(methodologies)
    out = []
    for i, case in enumerate(cases):
        row = cells[i * n : (i + 1) * n]
        metrics = {c.scenario.methodology: c.metrics for c in row}
        out.append(
            OrderingCheck(
                case=case.name,
                qloss_percent={m: x.qloss_percent for m, x in metrics.items()},
                avg_power_w={m: x.average_power_w for m, x in metrics.items()},
            )
        )
    return out
