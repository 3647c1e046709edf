"""Hybrid HEES architecture: converters on a common DC bus (Section II-C.2).

Each storage sits behind its own DC/DC converter, so the controller can
command an arbitrary (bounded) power split - this is the architecture OTEM
drives.  The battery converter runs near its reference voltage and is almost
flat; the ultracapacitor converter's efficiency sags with Vcap, which is the
coupling OTEM's cost function exploits (don't over-deplete the bank).

Sign conventions (bus side): positive = storage discharging into the bus.
The EV request is met as

    request = cap_bus + battery_bus

where ``cap_bus`` is the controller's command (clipped by physics) and the
battery covers the remainder.  Negative requests (regen) charge whatever the
controller routes them to.
"""

from __future__ import annotations

import numpy as np

from repro.battery.pack import BatteryPack, BatteryPackVec
from repro.hees.converter import ConverterParams, DCDCConverter
from repro.hees.state import HEESStepResult
from repro.ultracap.bank import UltracapBank, UltracapBankVec


def default_battery_converter(pack: BatteryPack) -> DCDCConverter:
    """Battery-port converter: flat, high efficiency near pack voltage."""
    return DCDCConverter(
        ConverterParams(
            eta_max=0.97,
            eta_min=0.90,
            droop=0.10,
            v_ref=pack.config.nominal_voltage_v,
            max_power_w=2.0 * pack.config.max_power_w,
        )
    )


def default_cap_converter(bank: UltracapBank) -> DCDCConverter:
    """Ultracap-port converter: efficiency sags as the bank depletes."""
    return _cap_converter(bank.params.rated_voltage_v, bank.params.max_power_w)


def _cap_converter(rated_voltage_v: float, max_power_w: float) -> DCDCConverter:
    return DCDCConverter(
        ConverterParams(
            eta_max=0.97,
            eta_min=0.82,
            droop=0.30,
            v_ref=rated_voltage_v,
            max_power_w=max_power_w,
        )
    )


class HybridHEES:
    """Converter-decoupled battery + ultracapacitor storage.

    Parameters
    ----------
    pack:
        Battery pack.
    bank:
        Ultracapacitor bank (module-rated; the converter bridges voltages).

    The converter ports are :func:`default_battery_converter` and
    :func:`default_cap_converter`, built from the storage ratings.
    """

    def __init__(self, pack: BatteryPack, bank: UltracapBank):
        self._pack = pack
        self._bank = bank
        self._bat_conv = default_battery_converter(pack)
        self._cap_conv = default_cap_converter(bank)

    @property
    def pack(self) -> BatteryPack:
        """The battery pack."""
        return self._pack

    @property
    def bank(self) -> UltracapBank:
        """The ultracapacitor bank."""
        return self._bank

    @property
    def battery_converter(self) -> DCDCConverter:
        """Battery-port converter."""
        return self._bat_conv

    @property
    def cap_converter(self) -> DCDCConverter:
        """Ultracap-port converter."""
        return self._cap_conv

    def cap_bus_limits(self, dt: float, eta: float) -> tuple[float, float]:
        """(min, max) feasible ultracap bus-power command for a ``dt`` step.

        ``eta`` is the ultracap-port efficiency at the bank's voltage, the
        one the step's transfers take.  Max is discharge (bank energy,
        converter rating); min is charge (negative; bank headroom,
        converter rating).  NumPy ufunc expressions, so the lockstep twin
        inherits it: floats here, one entry per column there.  ``eta``
        never reaches zero - the converter clips it at ``eta_min`` >= 0.3 -
        so the charge limits divide by it unguarded.
        """
        rating = self._cap_conv.params.max_power_w
        discharge = np.minimum(self._bank.max_discharge_power_w(dt) * eta, rating * eta)
        charge = np.minimum(self._bank.max_charge_power_w(dt) / eta, rating / eta)
        return (-charge, discharge)

    def step(self, request_w: float, cap_bus_command_w: float, dt: float) -> HEESStepResult:
        """Advance one step with the controller's ultracap split.

        Parameters
        ----------
        request_w:
            EV bus power request [W] (negative = regen).
        cap_bus_command_w:
            Bus-side ultracapacitor power command [W]; positive discharges
            the bank into the bus, negative recharges the bank from the bus
            (i.e. from the battery and/or regen).  Clipped to feasibility.
        dt:
            Step duration [s].
        """
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        pack, bank = self._pack, self._bank

        # one read of each state: the pack's cell pair, and each port's
        # efficiency at its voltage (pack OCV, bank Eq. 8).  Neither
        # storage moves before its own transfer, so every use below sees
        # the state the step started from.
        voc, res = pack.cell_voc_res()
        eta_bat = self._bat_conv.efficiency(pack.config.series * voc)
        eta_cap = self._cap_conv.efficiency(bank.voltage())

        lo, hi = self.cap_bus_limits(dt, eta_cap)
        # charging the bank must never displace load delivery: the battery
        # has to cover request - cap_bus, so the charge command is limited
        # to the battery's remaining bus-side headroom
        bat_max_bus = self._bat_conv.bus_power_for_port(
            pack.max_discharge_power_w(voc, res), eta_bat
        )
        headroom = bat_max_bus - max(request_w, 0.0)
        lo = min(0.0, max(lo, -max(headroom, 0.0)))
        cap_bus = min(max(cap_bus_command_w, lo), hi)

        cap_port = self._cap_conv.port_power_for_bus(cap_bus, eta_cap)
        cap = bank.apply_power(cap_port, dt)
        # realized bus contribution after any bank-side clipping
        cap_bus_real = self._cap_conv.bus_power_for_port(cap.power_w, eta_cap)
        cap_conv_loss = abs(cap.power_w - cap_bus_real)
        cap_power, cap_energy = cap.power_w, cap.energy_j

        battery_bus = request_w - cap_bus_real
        bat_port = self._bat_conv.port_power_for_bus(battery_bus, eta_bat)
        bat = pack.apply_power(bat_port, dt, voc, res)
        bat_bus_real = self._bat_conv.bus_power_for_port(bat.terminal_power_w, eta_bat)
        bat_conv_loss = abs(bat.terminal_power_w - bat_bus_real)

        delivered = cap_bus_real + bat_bus_real
        unmet = max(0.0, request_w - delivered) if request_w > 0 else 0.0

        # emergency pass: if the battery clipped on a discharge peak, tap
        # the bank's reserve band (below the C5 floor, above the physical
        # hard floor) rather than starve the EV load
        if unmet > 1.0:
            extra_port = self._cap_conv.port_power_for_bus(unmet, eta_cap)
            extra = bank.apply_power(extra_port, dt, tap_reserve=True)
            extra_bus = self._cap_conv.bus_power_for_port(extra.power_w, eta_cap)
            cap_conv_loss += abs(extra.power_w - extra_bus)
            cap_power += extra.power_w
            cap_energy += extra.energy_j
            delivered += extra_bus
            unmet = max(0.0, request_w - delivered)

        return HEESStepResult(
            delivered_power_w=delivered,
            battery_power_w=bat.terminal_power_w,
            ultracap_power_w=cap_power,
            battery_cell_current_a=bat.cell_current_a,
            battery_heat_w=bat.heat_w,
            chem_energy_j=bat.chem_energy_j,
            cap_energy_j=cap_energy,
            converter_loss_j=(cap_conv_loss + bat_conv_loss) * dt,
            loss_increment_percent=bat.loss_increment_percent,
            unmet_power_w=unmet,
        )


class HybridHEESVec(HybridHEES):
    """Lockstep struct-of-arrays twin of :class:`HybridHEES`.

    Built from a :class:`~repro.battery.pack.BatteryPackVec` and an
    :class:`~repro.ultracap.bank.UltracapBankVec`; inherits everything but
    its constructor and :meth:`step`.  The converter ports are shared
    across columns: every bank produced by
    :func:`repro.ultracap.params.bank_of_farads` keeps the module rated
    voltage and power rating, so one cap-port converter serves mixed bank
    sizes (a bank set that mixes ratings is refused), and the pack layout
    (hence the battery-port converter) is a lockstep group key.  The main
    bank call is unconditional - the scalar plant also rounds the SoE
    through ``apply_power`` at zero command - and the reserve-tap
    emergency pass is masked on ``unmet > 1``.
    """

    def __init__(self, pack: BatteryPackVec, bank: UltracapBankVec):
        ratings = set(
            zip(bank.params.rated_voltage_v.tolist(), bank.params.max_power_w.tolist())
        )
        if len(ratings) > 1:
            raise ValueError(
                "hybrid lockstep group mixes bank module ratings; "
                "run these scenarios on the scalar engine"
            )
        self._pack = pack
        self._bank = bank
        self._bat_conv = default_battery_converter(pack)
        self._cap_conv = _cap_converter(*ratings.pop())

    def step(
        self, request_w: np.ndarray, cap_bus_command_w: np.ndarray, dt: float
    ) -> HEESStepResult:
        """Vectorized :meth:`HybridHEES.step` over all columns."""
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        pack, bank = self._pack, self._bank

        voc, res = pack.cell_voc_res()
        eta_bat = self._bat_conv.efficiency(pack.config.series * voc)
        eta_cap = self._cap_conv.efficiency(bank.voltage())

        lo, hi = self.cap_bus_limits(dt, eta_cap)
        bat_max_bus = self._bat_conv.bus_power_for_port(
            pack.max_discharge_power_w(voc, res), eta_bat
        )
        headroom = bat_max_bus - np.maximum(request_w, 0.0)
        lo = np.minimum(0.0, np.maximum(lo, -np.maximum(headroom, 0.0)))
        cap_bus = np.minimum(np.maximum(cap_bus_command_w, lo), hi)

        cap_port = self._cap_conv.port_power_for_bus(cap_bus, eta_cap)
        cap = bank.apply_power(cap_port, dt)
        cap_bus_real = self._cap_conv.bus_power_for_port(cap.power_w, eta_cap)
        cap_conv_loss = np.abs(cap.power_w - cap_bus_real)

        battery_bus = request_w - cap_bus_real
        bat_port = self._bat_conv.port_power_for_bus(battery_bus, eta_bat)
        bat = pack.apply_power(bat_port, dt, voc, res)
        bat_bus_real = self._bat_conv.bus_power_for_port(
            bat.terminal_power_w, eta_bat
        )
        bat_conv_loss = np.abs(bat.terminal_power_w - bat_bus_real)

        delivered = cap_bus_real + bat_bus_real
        unmet = np.where(
            request_w > 0, np.maximum(0.0, request_w - delivered), 0.0
        )

        cap_power = cap.power_w
        cap_energy = cap.energy_j
        em = unmet > 1.0
        if np.any(em):
            extra_port = self._cap_conv.port_power_for_bus(unmet, eta_cap)
            extra = bank.apply_power(extra_port, dt, tap_reserve=True, active=em)
            extra_bus = self._cap_conv.bus_power_for_port(
                extra.power_w, eta_cap
            )
            extra_bus = np.where(em, extra_bus, 0.0)
            cap_conv_loss = cap_conv_loss + np.where(
                em, np.abs(extra.power_w - extra_bus), 0.0
            )
            cap_power = cap_power + extra.power_w
            cap_energy = cap_energy + extra.energy_j
            delivered = delivered + extra_bus
            unmet = np.where(
                em, np.maximum(0.0, request_w - delivered), unmet
            )

        return HEESStepResult(
            delivered_power_w=delivered,
            battery_power_w=bat.terminal_power_w,
            ultracap_power_w=cap_power,
            battery_cell_current_a=bat.cell_current_a,
            battery_heat_w=bat.heat_w,
            chem_energy_j=bat.chem_energy_j,
            cap_energy_j=cap_energy,
            converter_loss_j=(cap_conv_loss + bat_conv_loss) * dt,
            loss_increment_percent=bat.loss_increment_percent,
            unmet_power_w=unmet,
        )
