"""Li-ion battery models (paper Section II-A).

Implements the cell electrical model (Eq. 1-3), heat generation (Eq. 4),
capacity-loss / aging model (Eq. 5) and the series/parallel pack aggregation
with a lumped thermal mass used by the cooling loop (Eq. 14).

Public API
----------
``CellParams`` / ``NCR18650A``
    Cell parameter set; the default is a Panasonic-NCR18650A-class cell.
``BatteryElectrical``
    Voc(SoC), R(SoC, T), SoC integration, terminal-power current solve.
``heat_generation_w``
    Joule + entropic heat (Eq. 4).
``AgingModel``
    Arrhenius capacity-loss accumulator (Eq. 5) and BLT estimation.
``BatteryPack``
    Full pack: electrical + thermal + aging state, stepped by the simulator.
``PackConfig`` / ``DEFAULT_PACK``
    Series/parallel layout; default 96s30p (~32 kWh).
"""

from repro.battery.params import NCR18650A, CellParams
from repro.battery.electrical import BatteryElectrical
from repro.battery.thermal import heat_generation_w
from repro.battery.aging import AgingModel
from repro.battery.pack import DEFAULT_PACK, BatteryPack, PackConfig, PackState

__all__ = [
    "NCR18650A",
    "CellParams",
    "BatteryElectrical",
    "heat_generation_w",
    "AgingModel",
    "BatteryPack",
    "PackConfig",
    "PackState",
    "DEFAULT_PACK",
]
