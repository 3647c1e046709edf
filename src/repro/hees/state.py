"""Shared step-result bookkeeping for all HEES architectures."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class HEESStepResult:
    """Uniform outcome of one HEES step, for any architecture.

    The scalar plants fill every field with a float; their lockstep twins
    (``ParallelHEESVec`` & co.) fill it with one array entry per column.
    Every field is one the engines record (``repro.sim.engine.drive``).

    Attributes
    ----------
    delivered_power_w:
        Bus power actually delivered [W] (current limits / depleted storage
        can leave a shortfall).
    battery_power_w:
        Power at the battery terminals [W] (positive = discharge).
    ultracap_power_w:
        Power at the ultracapacitor terminals [W] (positive = discharge).
    battery_cell_current_a:
        Per-cell battery current [A].
    battery_heat_w:
        Heat generated in the pack [W] (input to Eq. 14).
    chem_energy_j:
        dE_bat of Eq. 19: energy drawn from the battery chemistry [J].
    cap_energy_j:
        dE_cap of Eq. 19: energy drawn from the ultracapacitor [J]
        (negative while recharging).
    converter_loss_j:
        Energy dissipated in DC/DC conversion this step [J].
    loss_increment_percent:
        Battery capacity loss added this step [%] (Eq. 5).
    unmet_power_w:
        Shortfall between request and delivery [W] (>= 0 for discharge
        requests).
    """

    delivered_power_w: float
    battery_power_w: float
    ultracap_power_w: float
    battery_cell_current_a: float
    battery_heat_w: float
    chem_energy_j: float
    cap_energy_j: float
    converter_loss_j: float
    loss_increment_percent: float
    unmet_power_w: float = 0.0
