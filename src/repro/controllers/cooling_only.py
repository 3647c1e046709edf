"""Baseline [25]: battery-only storage with thermostatic active cooling.

"Only battery is used as the energy storage and active battery cooling
system is utilized to maintain the battery temperature in the safe range"
(paper Section IV-B.2).  The policy is a classic hysteresis thermostat: the
cooler engages at ``temp_on_k`` with the coldest producible inlet and
disengages at ``temp_off_k``.

The plant is the dual one: the policy keeps the battery switch position
and asks for no bank recharge, so a bank that starts full never moves and
the battery carries every watt.
"""

from __future__ import annotations

from repro.controllers.base import Architecture, Decision, Observation
from repro.cooling.coolant import DEFAULT_COOLANT, CoolantParams
from repro.utils.validation import check_positive


class CoolingOnlyController:
    """Thermostatic cooling policy, battery as the only storage.

    Parameters
    ----------
    temp_on_k:
        Battery temperature at which the cooler engages [K].
    temp_off_k:
        Battery temperature at which the cooler disengages [K]
        (must be below ``temp_on_k`` for hysteresis).
    coolant:
        Loop parameters (supplies the coldest producible inlet).
    """

    name = "Cooling [25]"
    architecture = Architecture.DUAL
    uses_cooling = True

    def __init__(
        self,
        temp_on_k: float = 299.15,
        temp_off_k: float = 296.15,
        coolant: CoolantParams = DEFAULT_COOLANT,
    ):
        check_positive(temp_on_k, "temp_on_k")
        check_positive(temp_off_k, "temp_off_k")
        if temp_off_k >= temp_on_k:
            raise ValueError("temp_off_k must be below temp_on_k (hysteresis)")
        self._on = temp_on_k
        self._off = temp_off_k
        self._coolant = coolant
        self._cooling = False

    @property
    def is_cooling(self) -> bool:
        """Whether the thermostat is currently engaged."""
        return self._cooling

    def control(self, obs: Observation) -> Decision:
        """Hysteresis thermostat on battery temperature."""
        if self._cooling:
            if obs.battery_temp_k <= self._off:
                self._cooling = False
        elif obs.battery_temp_k >= self._on:
            self._cooling = True
        return Decision(
            cooling_active=self._cooling,
            inlet_temp_k=self._coolant.min_inlet_temp_k,
        )

    def reset(self):
        """Disengage the thermostat."""
        self._cooling = False
