"""Controller interface: what the simulator shows a policy and what it gets back.

Every methodology in the paper - the three baselines and OTEM - is a
:class:`Controller`.  Each control step the simulator builds an
:class:`Observation` (measured states plus the rest of the route, which is
the power-request preview the paper's Algorithm 1 feeds the optimizer) and
receives a :class:`Decision` (ultracapacitor split / switch position /
cooler inlet command).

The same two types serve both engines.  The scalar
:class:`repro.sim.engine.Simulator` fills them with floats; the lockstep
engine (:mod:`repro.sim.engine_vec`) fills them with one array entry per
scenario column, and its twins (:mod:`repro.controllers.batched`) answer
with columns where the columns disagree and scalars, which broadcast,
where they do not.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from repro.hees.dual import DualMode


class Architecture(enum.Enum):
    """Which HEES plant a controller drives.

    Whether the pack also has the active cooling loop is the controller's
    separate ``uses_cooling`` flag.
    """

    PARALLEL = "parallel"
    DUAL = "dual"
    HYBRID = "hybrid"


@dataclass(frozen=True)
class Observation:
    """Measured system state handed to a controller each step.

    Attributes
    ----------
    step_index:
        Index of the current control step.
    time_s:
        Simulation time [s].
    dt:
        Control period [s].
    power_request_w:
        EV bus power request for this step [W].
    preview_w:
        The rest of the route, ``power_w[k:]``, as a read-only view
        (Algorithm 1 line 12: requests predicted from the drive route);
        ``preview_w[0]`` is this step [W].  A controller reads as far ahead
        as it plans and treats the route past its end as zero.  On the
        lockstep engine it holds one row per column, time along the last
        axis, zero past each column's own route end.
    battery_soc_percent:
        Battery SoC [%].
    battery_temp_k:
        Battery temperature T_b [K].
    coolant_temp_k:
        In-pack coolant temperature T_c [K].
    cap_soe_percent:
        Ultracapacitor SoE [%].
    """

    step_index: int
    time_s: float
    dt: float
    power_request_w: float
    preview_w: np.ndarray
    battery_soc_percent: float
    battery_temp_k: float
    coolant_temp_k: float
    cap_soe_percent: float


@dataclass(frozen=True)
class Decision:
    """A controller's commands for one step.

    Each field is a float (bool, :class:`DualMode`) on the scalar engine.
    A lockstep twin sets a field to a per-column array where its columns
    disagree and leaves the scalar default where they agree; the engine
    broadcasts either.

    Attributes
    ----------
    cap_bus_w:
        Hybrid architecture: ultracapacitor bus-power command [W]
        (positive = discharge the bank).
    dual_mode:
        Dual architecture: switch position (a column of :class:`DualMode`
        codes on the lockstep engine).
    recharge_power_w:
        Dual architecture: battery->bank recharge power [W] in RECHARGE mode.
    cooling_active:
        Whether the cooling loop (pump + cooler) runs this step.
    inlet_temp_k:
        Commanded coolant inlet temperature T_i [K]; only meaningful when
        ``cooling_active``.
    """

    cap_bus_w: float = 0.0
    dual_mode: DualMode = DualMode.BATTERY
    recharge_power_w: float = 0.0
    cooling_active: bool = False
    inlet_temp_k: float = 298.0


@runtime_checkable
class Controller(Protocol):
    """A thermal/energy management policy."""

    #: Display name used in reports ("OTEM", "Dual [16]", ...).
    name: str
    #: Which plant this policy drives.
    architecture: Architecture
    #: Whether the plant includes the active cooling loop.
    uses_cooling: bool

    def control(self, obs: Observation) -> Decision:
        """Return the commands for this step."""
        ...

    def reset(self) -> None:
        """Clear internal state before a fresh route."""
        ...
