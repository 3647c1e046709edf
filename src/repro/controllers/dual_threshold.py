"""Baseline [16]: dual architecture with temperature-threshold switching.

"The dual architecture methodology reacts when the battery temperature
reaches a threshold" (paper Section IV-B.3 and Fig. 6): the load switches to
the ultracapacitor when the battery gets hot, switches back when it has
cooled (or the bank is depleted), and the battery recharges the bank when it
is back on the load - which re-heats the battery, the pathology the paper's
motivational case study (Fig. 1) demonstrates for small banks.

No active cooling exists in this architecture.
"""

from __future__ import annotations

from repro.controllers.base import Architecture, Decision, Observation
from repro.hees.dual import DualMode
from repro.utils.validation import check_positive


class DualThresholdController:
    """Threshold-switching policy for the dual architecture.

    Parameters
    ----------
    temp_switch_k:
        Battery temperature that triggers the switch to the bank [K]
        (the paper's "certain threshold", just below the safety limit C1).
    temp_resume_k:
        Battery temperature at which the load returns to the battery [K].
    soe_floor_percent:
        Bank SoE at which the switch reverts regardless of temperature
        (constraint C5 floor plus a small guard).
    soe_target_percent:
        The recharge path tops the bank back up to this SoE.
    recharge_power_w:
        Battery->bank recharge power [W].
    """

    name = "Dual [16]"
    architecture = Architecture.DUAL
    uses_cooling = False

    def __init__(
        self,
        temp_switch_k: float = 307.15,
        temp_resume_k: float = 303.15,
        soe_floor_percent: float = 22.0,
        soe_target_percent: float = 95.0,
        recharge_power_w: float = 3_000.0,
        recharge_temp_max_k: float = 306.15,
    ):
        check_positive(temp_switch_k, "temp_switch_k")
        check_positive(temp_resume_k, "temp_resume_k")
        if temp_resume_k >= temp_switch_k:
            raise ValueError("temp_resume_k must be below temp_switch_k")
        if not 0.0 <= soe_floor_percent < soe_target_percent <= 100.0:
            raise ValueError("need 0 <= soe_floor < soe_target <= 100")
        check_positive(recharge_power_w, "recharge_power_w")
        self._t_switch = temp_switch_k
        self._t_resume = temp_resume_k
        self._soe_floor = soe_floor_percent
        self._soe_target = soe_target_percent
        self._recharge_w = recharge_power_w
        self._recharge_t_max = recharge_temp_max_k
        self._on_cap = False

    @property
    def is_on_ultracap(self) -> bool:
        """Whether the load is currently switched to the bank."""
        return self._on_cap

    def control(self, obs: Observation) -> Decision:
        """Threshold switching with SoE guard and opportunistic recharge."""
        if self._on_cap:
            if (
                obs.battery_temp_k <= self._t_resume
                or obs.cap_soe_percent <= self._soe_floor
            ):
                self._on_cap = False
        elif obs.battery_temp_k >= self._t_switch:
            if obs.cap_soe_percent > self._soe_floor:
                self._on_cap = True

        if self._on_cap:
            mode = DualMode.ULTRACAP
            recharge = 0.0
        elif (
            obs.cap_soe_percent < self._soe_target
            and obs.battery_temp_k < self._recharge_t_max
        ):
            # top the bank up from the battery only while the battery is
            # reasonably cool - recharging a hot battery makes things worse
            # (the paper's Fig. 1 pathology)
            mode = DualMode.RECHARGE
            recharge = self._recharge_w
        else:
            mode = DualMode.BATTERY
            recharge = 0.0

        return Decision(
            dual_mode=mode,
            recharge_power_w=recharge,
            cooling_active=False,
        )

    def reset(self):
        """Return the switch to the battery position."""
        self._on_cap = False
