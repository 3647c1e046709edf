"""Heuristic manager for the hybrid architecture (no optimization).

An engineering-common-sense policy on exactly OTEM's plant (hybrid HEES +
active cooling), used to isolate the value of the MPC itself
(``benchmarks/bench_ablation_mpc_vs_heuristic.py``):

* **peak shaving**: the ultracapacitor serves whatever the request exceeds
  an exponential moving average of recent demand, and recharges from the
  bus when the request is below it;
* **thermostat cooling**: fixed-setpoint hysteresis, full-cold inlet.

No preview, no cost function, no coupling between the thermal and energy
halves - the two things OTEM adds.
"""

from __future__ import annotations

from repro.controllers.base import Architecture, Decision, Observation
from repro.cooling.coolant import DEFAULT_COOLANT, CoolantParams
from repro.utils.validation import check_in_range, check_positive


class HybridHeuristicController:
    """EMA peak-shaving + thermostat on the hybrid architecture.

    Parameters
    ----------
    smoothing:
        EMA coefficient per step in (0, 1); smaller = smoother battery
        power (the capacitor works harder).
    recharge_power_w:
        Bus power used to top the bank back up when demand is below the
        average [W].
    soe_target_percent:
        Bank SoE the recharge path aims for [%].
    temp_on_k / temp_off_k:
        Thermostat hysteresis thresholds [K].
    coolant:
        Loop parameters (supplies the full-cold inlet).
    """

    name = "Heuristic hybrid"
    architecture = Architecture.HYBRID
    uses_cooling = True

    def __init__(
        self,
        smoothing: float = 0.05,
        recharge_power_w: float = 6_000.0,
        soe_target_percent: float = 90.0,
        temp_on_k: float = 302.15,
        temp_off_k: float = 299.15,
        coolant: CoolantParams = DEFAULT_COOLANT,
    ):
        check_in_range(smoothing, 1e-4, 1.0, "smoothing")
        check_positive(recharge_power_w, "recharge_power_w")
        check_in_range(soe_target_percent, 0.0, 100.0, "soe_target_percent")
        if temp_off_k >= temp_on_k:
            raise ValueError("temp_off_k must be below temp_on_k (hysteresis)")
        self._alpha = smoothing
        self._recharge_w = recharge_power_w
        self._soe_target = soe_target_percent
        self._t_on = temp_on_k
        self._t_off = temp_off_k
        self._coolant = coolant
        self._ema_w: float | None = None
        self._cooling = False

    @property
    def ema_w(self) -> float | None:
        """Current demand average [W] (None before the first step)."""
        return self._ema_w

    def control(self, obs: Observation) -> Decision:
        """Shave peaks above the EMA; thermostat the cooler."""
        if self._ema_w is None:
            self._ema_w = max(obs.power_request_w, 0.0)
        else:
            self._ema_w += self._alpha * (obs.power_request_w - self._ema_w)

        surplus = obs.power_request_w - self._ema_w
        if surplus > 0:
            cap_bus = surplus
        elif obs.cap_soe_percent < self._soe_target:
            # demand lull: recharge, at most back to the average level
            cap_bus = -min(self._recharge_w, max(0.0, -surplus))
        else:
            cap_bus = 0.0

        if self._cooling:
            if obs.battery_temp_k <= self._t_off:
                self._cooling = False
        elif obs.battery_temp_k >= self._t_on:
            self._cooling = True

        return Decision(
            cap_bus_w=cap_bus,
            cooling_active=self._cooling,
            inlet_temp_k=self._coolant.min_inlet_temp_k,
        )

    def reset(self):
        """Clear the EMA and disengage the thermostat."""
        self._ema_w = None
        self._cooling = False
