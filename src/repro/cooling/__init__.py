"""Active battery cooling system (paper Section II-D, Eq. 14-16).

A pumped liquid coolant sweeps the battery pack; a cooler chills the
returning coolant down to a commanded inlet temperature ``T_i`` at a power
cost ``P_c = W_c (T_o - T_i) / eta_c``; the pump runs at fixed flow (constant
power) as in the paper.

Public API
----------
``CoolantParams`` / ``DEFAULT_COOLANT``
    Loop physical parameters (heat-transfer coefficients, flow capacity
    rate, cooler efficiency, power ceiling).
``CoolingLoop``
    The C2/C3 inlet clamp and Eq. 16 cooler power (the engine prices
    each command once, before the plant step) and the coupled (T_b, T_c)
    Eq. 17 integrator at that applied inlet.
``MultiNodeCoolingLoop``
    Segmented pack model resolving the along-flow hot spot (Fig. 5 detail).
"""

from repro.cooling.coolant import DEFAULT_COOLANT, CoolantParams
from repro.cooling.loop import CoolingLoop, CoolingStepResult
from repro.cooling.multinode import MultiNodeCoolingLoop, MultiNodeState

__all__ = [
    "CoolantParams",
    "DEFAULT_COOLANT",
    "CoolingLoop",
    "CoolingStepResult",
    "MultiNodeCoolingLoop",
    "MultiNodeState",
]
