"""Dual HEES architecture (switched battery / ultracapacitor, baseline [16]).

Two switches (S_b, S_c in the paper's Fig. 3) route the load to the battery,
to the ultracapacitor, or keep the battery on the load while it also
recharges the ultracapacitor.  The switching *policy* lives in
:class:`repro.controllers.dual_threshold.DualThresholdController`; this
module is the plant.

As in :mod:`repro.hees.parallel`, the bank is re-strung to pack voltage so a
direct connection is meaningful.  The plant is failsafe: if the selected
storage cannot carry the load (depleted bank, current clip), the other one
covers the shortfall - the vehicle must keep driving; the controller reacts
on the next step.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.hees.parallel import RestrungHEES
from repro.hees.state import HEESStepResult


class DualMode(enum.IntEnum):
    """Switch positions of the dual architecture.

    Integer-valued, so a column of switch positions is a plain integer
    array: the lockstep twins build one with ``np.where`` over the members.
    """

    BATTERY = 0
    ULTRACAP = 1
    RECHARGE = 2  # battery on load + battery charges the bank


class DualHEES(RestrungHEES):
    """Switched battery/ultracapacitor storage.

    Parameters
    ----------
    pack:
        Battery pack.
    bank:
        Ultracapacitor bank (module-rated; re-strung internally as in the
        parallel architecture, see
        :func:`repro.hees.parallel.restrung_bank`).
    """

    #: Fraction of the power on the regen and battery->bank recharge paths
    #: that lands in the bank [-] (switch + wiring loss).
    ETA_PATH = 0.95

    def _cap_deliverable_w(self, request_w: float, dt: float) -> float:
        """Power the bank can push into the load at its current voltage."""
        v_c = self.cap_voltage()
        max_point = v_c * v_c / (4.0 * self._rc)  # maximum-power-transfer point
        return np.minimum(
            request_w, np.minimum(max_point, self._bank.max_discharge_power_w(dt))
        )

    def step(
        self,
        request_w: float,
        mode: DualMode,
        recharge_power_w: float,
        dt: float,
    ) -> HEESStepResult:
        """Advance one step in the given switch position.

        Parameters
        ----------
        request_w:
            EV bus power request [W].  Negative (regen) power charges the
            ultracapacitor first - the switches make the bank the natural
            regen sink in this architecture [16] - with any excess going to
            the battery.
        mode:
            Switch position chosen by the controller.
        recharge_power_w:
            Battery->bank recharge power [W] when ``mode`` is RECHARGE
            (ignored otherwise).
        dt:
            Step duration [s].
        """
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        pack, bank = self._pack, self._bank

        cap_request = 0.0
        bank_charge = 0.0
        regen_to_cap = 0.0
        if request_w < 0:
            # regen charges the bank first (switch position), excess to battery
            regen_to_cap = min(-request_w, bank.max_charge_power_w(dt))
        elif mode is DualMode.ULTRACAP:
            cap_request = self._cap_deliverable_w(request_w, dt)
        if mode is DualMode.RECHARGE and recharge_power_w > 0 and request_w >= 0:
            bank_charge = min(
                recharge_power_w, max(0.0, bank.max_charge_power_w(dt) - regen_to_cap)
            )

        circuit_loss = 0.0
        cap_energy = 0.0
        cap_power = 0.0
        cap_current = 0.0

        if cap_request > 0:
            # bank discharges through its series resistance into the load
            v_c = self.cap_voltage()
            disc = v_c * v_c - 4.0 * self._rc * cap_request
            i_c = (v_c - np.sqrt(max(disc, 0.0))) / (2.0 * self._rc)
            cap = bank.apply_power(v_c * i_c, dt)
            cap_energy = cap.energy_j
            cap_power = cap.power_w
            # re-derive the current in the re-strung configuration (the bank
            # reports current at its module voltage, which is not the level
            # this architecture connects at)
            cap_current = cap.power_w / v_c if v_c > 1e-6 else 0.0
            circuit_loss += (cap_current**2) * self._rc * dt
            delivered_by_cap = cap.power_w - (cap_current**2) * self._rc
        else:
            delivered_by_cap = 0.0

        if regen_to_cap > 0:
            # regen into the bank (lossy switch/wiring path)
            cap = bank.apply_power(-regen_to_cap * self.ETA_PATH, dt)
            cap_energy += cap.energy_j
            cap_power += cap.power_w
            circuit_loss += regen_to_cap * (1.0 - self.ETA_PATH) * dt

        if bank_charge > 0:
            # battery pushes energy into the bank (lossy path)
            cap = bank.apply_power(-bank_charge * self.ETA_PATH, dt)
            cap_energy += cap.energy_j
            circuit_loss += bank_charge * (1.0 - self.ETA_PATH) * dt
            battery_extra = bank_charge
        else:
            battery_extra = 0.0

        battery_request = (
            request_w + regen_to_cap - delivered_by_cap + battery_extra
        )
        bat = pack.apply_power(battery_request, dt)

        delivered = (
            bat.terminal_power_w - battery_extra - regen_to_cap + delivered_by_cap
        )
        unmet = max(0.0, request_w - delivered) if request_w > 0 else 0.0

        return HEESStepResult(
            requested_power_w=request_w,
            delivered_power_w=delivered,
            battery_power_w=bat.terminal_power_w,
            ultracap_power_w=cap_power,
            battery_cell_current_a=bat.cell_current_a,
            battery_heat_w=bat.heat_w,
            chem_energy_j=bat.chem_energy_j,
            cap_energy_j=cap_energy,
            converter_loss_j=circuit_loss,
            loss_increment_percent=bat.loss_increment_percent,
            unmet_power_w=unmet,
            notes={"mode": mode.name.lower(), "cap_current_a": float(cap_current)},
        )


class DualHEESVec(DualHEES):
    """Lockstep struct-of-arrays twin of :class:`DualHEES`.

    Built from a :class:`~repro.battery.pack.BatteryPackVec` and an
    :class:`~repro.ultracap.bank.UltracapBankVec`; inherits everything but
    :meth:`step`.  Takes the switch position as an array of
    :class:`DualMode` codes so a batched policy can hand over a whole
    column of modes.  The regen / ultracap-discharge / battery-recharge
    paths are mutually exclusive per column (regen needs a negative
    request; the two others need distinct modes), so the scalar plant's
    up-to-three sequential ``bank.apply_power`` calls collapse into one
    masked call with the same per-column arguments - columns that take no
    bank path keep their SoE bit pattern untouched, exactly like the
    scalar plant not calling the bank at all.
    """

    def step(
        self,
        request_w: np.ndarray,
        mode: np.ndarray,
        recharge_power_w: np.ndarray,
        dt: float,
    ) -> HEESStepResult:
        """Vectorized :meth:`DualHEES.step` over all columns.

        Compares against the members' plain-int ``value``: NumPy converts
        an ``IntEnum`` member several times slower than an ``int``.
        """
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        pack, bank = self._pack, self._bank
        r_c = self._rc
        eta_path = DualHEES.ETA_PATH

        max_charge = bank.max_charge_power_w(dt)
        regen_to_cap = np.where(
            request_w < 0, np.minimum(-request_w, max_charge), 0.0
        )
        cap_request = np.where(
            (request_w >= 0) & (mode == DualMode.ULTRACAP.value),
            self._cap_deliverable_w(request_w, dt),
            0.0,
        )
        bank_charge = np.where(
            (mode == DualMode.RECHARGE.value)
            & (recharge_power_w > 0)
            & (request_w >= 0),
            np.minimum(
                recharge_power_w, np.maximum(0.0, max_charge - regen_to_cap)
            ),
            0.0,
        )

        discharging = cap_request > 0
        regenerating = regen_to_cap > 0
        charging = bank_charge > 0

        # bank discharge through the series resistance into the load
        v_c = self.cap_voltage()
        disc = v_c * v_c - 4.0 * r_c * cap_request
        i_c = (v_c - np.sqrt(np.maximum(disc, 0.0))) / (2.0 * r_c)
        bank_power = np.where(discharging, v_c * i_c, 0.0)
        bank_power = bank_power - regen_to_cap * eta_path
        bank_power = bank_power - bank_charge * eta_path
        touched = discharging | regenerating | charging
        cap = bank.apply_power(bank_power, dt, active=touched)

        cap_energy = cap.energy_j
        # the recharge path contributes energy only (matches the scalar
        # bookkeeping, which does not fold it into ultracap_power_w)
        cap_power = np.where(discharging | regenerating, cap.power_w, 0.0)
        cap_current = np.where(
            discharging & (v_c > 1e-6),
            cap.power_w / np.maximum(v_c, 1e-30),
            0.0,
        )
        circuit_loss = (
            np.where(discharging, (cap_current**2) * r_c * dt, 0.0)
            + regen_to_cap * (1.0 - eta_path) * dt
            + bank_charge * (1.0 - eta_path) * dt
        )
        delivered_by_cap = np.where(
            discharging, cap.power_w - (cap_current**2) * r_c, 0.0
        )
        battery_extra = bank_charge

        battery_request = (
            request_w + regen_to_cap - delivered_by_cap + battery_extra
        )
        bat = pack.apply_power(battery_request, dt)

        delivered = (
            bat.terminal_power_w - battery_extra - regen_to_cap + delivered_by_cap
        )
        unmet = np.where(
            request_w > 0, np.maximum(0.0, request_w - delivered), 0.0
        )

        return HEESStepResult(
            requested_power_w=request_w,
            delivered_power_w=delivered,
            battery_power_w=bat.terminal_power_w,
            ultracap_power_w=cap_power,
            battery_cell_current_a=bat.cell_current_a,
            battery_heat_w=bat.heat_w,
            chem_energy_j=bat.chem_energy_j,
            cap_energy_j=cap_energy,
            converter_loss_j=circuit_loss,
            loss_increment_percent=bat.loss_increment_percent,
            unmet_power_w=unmet,
        )
