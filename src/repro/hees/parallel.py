"""Parallel HEES architecture (paper Eq. 10-13, baseline [15]).

Battery pack and ultracapacitor bank are hard-wired to the load bus; the
circuit alone decides the split:

    P_l = V_l I_l ,  I_l = I_b + I_c ,
    V_l = V_b - R_b I_b = V_c - R_c I_c .

Eliminating the currents gives a quadratic in the load voltage

    G V_l^2 - S V_l + P_l = 0,   G = 1/R_b + 1/R_c,  S = V_b/R_b + V_c/R_c,

whose larger root is the physical operating point (V_l -> weighted OCV as
P_l -> 0).

For a direct parallel connection the bank must live at pack voltage, so the
module-rated bank is re-arranged ("re-strung") into an energy-equivalent
high-voltage configuration: the rated voltage becomes the pack's full
open-circuit voltage and capacitance scales by the inverse voltage-ratio
squared (energy capacity is invariant).  The bank's SoE then tracks
``(V_c / V_r_eff)^2`` and naturally rides the battery voltage.
"""

from __future__ import annotations

import numpy as np

from repro.battery.pack import BatteryPack
from repro.hees.state import HEESStepResult
from repro.ultracap.bank import UltracapBank


def restrung_bank(pack, rated_voltage_v, internal_resistance_ohm):
    """Rated voltage [V] and series resistance [Ohm] of the re-strung bank.

    The rating becomes the pack's full open-circuit voltage.  Re-arranging
    a module of capacitance C and resistance R to a voltage ``k`` times
    higher (same cells, same energy) scales the resistance by ``k^2``; at
    fixed module voltage, resistance scales inversely with capacitance
    (fewer parallel strings).  This is what makes small banks nearly
    useless as passive buffers (paper Table I, parallel column).

    Serves the parallel and dual plants and their lockstep twins: the
    module rating is a float for one bank or a per-column array.
    """
    full_voc_cell = float(pack.electrical.open_circuit_voltage(100.0))
    vr_eff = pack.config.series * full_voc_cell
    k = vr_eff / rated_voltage_v
    return vr_eff, internal_resistance_ohm * k * k


class RestrungHEES:
    """Base of the plants that wire a re-strung bank to the pack directly.

    Holds the pack, the bank and the re-strung constants
    (:func:`restrung_bank`) for :class:`ParallelHEES` and
    :class:`repro.hees.dual.DualHEES`.  Every query is a NumPy ufunc
    expression, so the lockstep twins inherit them too: a float for one
    bank, one entry per column for a
    :class:`~repro.ultracap.bank.UltracapBankVec`.
    """

    def __init__(self, pack: BatteryPack, bank: UltracapBank):
        self._pack = pack
        self._bank = bank
        self._vr_eff, self._rc = restrung_bank(
            pack, bank.params.rated_voltage_v, bank.params.internal_resistance_ohm
        )

    @property
    def pack(self) -> BatteryPack:
        """The battery pack."""
        return self._pack

    @property
    def bank(self) -> UltracapBank:
        """The ultracapacitor bank."""
        return self._bank

    def cap_voltage(self) -> float:
        """Bank voltage in the re-strung configuration [V] (Eq. 8)."""
        return self._vr_eff * np.sqrt(np.maximum(self._bank.soe_percent, 0.0) / 100.0)


class ParallelHEES(RestrungHEES):
    """Passive parallel battery + ultracapacitor storage.

    Parameters
    ----------
    pack:
        Battery pack.
    bank:
        Ultracapacitor bank (module-rated; re-strung internally, see
        :func:`restrung_bank`).  The re-strung series resistance sets how
        aggressively the capacitor takes load transients.
    """

    def __init__(self, pack: BatteryPack, bank: UltracapBank):
        super().__init__(pack, bank)
        self.sync_soe_to_battery()

    def sync_soe_to_battery(self):
        """Pre-charge the bank to the battery's open-circuit voltage.

        A parallel-connected capacitor settles at the battery OCV; start
        every route from that equilibrium.
        """
        voc = self._pack.open_circuit_voltage()
        soe = 100.0 * (voc / self._vr_eff) ** 2
        self._bank.reset(np.minimum(100.0, soe))

    def step(self, request_w: float, dt: float) -> HEESStepResult:
        """Advance one step: split ``request_w`` per the circuit equations."""
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        pack, bank = self._pack, self._bank
        cfg = pack.config

        voc, res = pack.cell_voc_res()
        v_b = cfg.series * voc
        r_b = res * cfg.series / cfg.parallel
        v_c = self.cap_voltage()
        r_c = self._rc

        g = 1.0 / r_b + 1.0 / r_c
        s = v_b / r_b + v_c / r_c
        disc = s * s - 4.0 * g * request_w
        if disc < 0.0:
            # demand beyond the combined maximum power point: operate there
            v_l = s / (2.0 * g)
        else:
            v_l = (s + np.sqrt(disc)) / (2.0 * g)

        i_b = (v_b - v_l) / r_b
        i_c = (v_c - v_l) / r_c

        # battery step at its realized terminal power (the pack re-derives
        # the same current and enforces its own limits)
        bat = pack.apply_power(i_b * v_l, dt, voc, res)

        # if the pack clipped, the capacitor covers the residual at the
        # (approximate) same load voltage
        if bat.clipped:
            residual = request_w - bat.terminal_power_w
            i_c = residual / v_l if v_l > 1e-6 else 0.0

        # energy leaves the capacitor store at OCV x current (Eq. 9);
        # the bank enforces C5/C7 and may clip, so re-derive the current
        # actually flowing in the re-strung (high-voltage) configuration
        cap = bank.apply_power(v_c * i_c, dt)
        i_c_real = cap.power_w / v_c if v_c > 1e-6 else 0.0
        realized_cap_bus = cap.power_w - (i_c_real**2) * r_c

        delivered = bat.terminal_power_w + realized_cap_bus
        unmet = max(0.0, request_w - delivered) if request_w > 0 else 0.0
        circuit_loss = (i_c_real**2) * r_c * dt

        return HEESStepResult(
            delivered_power_w=delivered,
            battery_power_w=bat.terminal_power_w,
            ultracap_power_w=cap.power_w,
            battery_cell_current_a=bat.cell_current_a,
            battery_heat_w=bat.heat_w,
            chem_energy_j=bat.chem_energy_j,
            cap_energy_j=cap.energy_j,
            converter_loss_j=circuit_loss,
            loss_increment_percent=bat.loss_increment_percent,
            unmet_power_w=unmet,
        )


class ParallelHEESVec(ParallelHEES):
    """Lockstep struct-of-arrays twin of :class:`ParallelHEES`.

    Built from a :class:`~repro.battery.pack.BatteryPackVec` and an
    :class:`~repro.ultracap.bank.UltracapBankVec`, it advances M
    parallel-architecture scenarios per step and inherits everything but
    :meth:`step`.  The circuit split (Eq. 10-13), the pack-clip residual
    handoff, and the re-strung-bank bookkeeping mirror the scalar plant
    branch-for-branch (as masks), so every column matches a scalar run
    bitwise.  Bank sizes may differ per column; the pack layout is shared.
    """

    def step(self, request_w: np.ndarray, dt: float) -> HEESStepResult:
        """Vectorized :meth:`ParallelHEES.step` over all columns."""
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        pack, bank = self._pack, self._bank
        cfg = pack.config

        voc, res = pack.cell_voc_res()
        v_b = cfg.series * voc
        r_b = res * cfg.series / cfg.parallel
        v_c = self.cap_voltage()
        r_c = self._rc

        g = 1.0 / r_b + 1.0 / r_c
        s = v_b / r_b + v_c / r_c
        disc = s * s - 4.0 * g * request_w
        v_l = np.where(
            disc < 0.0,
            s / (2.0 * g),
            (s + np.sqrt(np.maximum(disc, 0.0))) / (2.0 * g),
        )

        i_b = (v_b - v_l) / r_b
        i_c = (v_c - v_l) / r_c

        bat = pack.apply_power(i_b * v_l, dt, voc, res)

        residual_i = np.where(
            v_l > 1e-6,
            (request_w - bat.terminal_power_w) / np.where(v_l > 1e-6, v_l, 1.0),
            0.0,
        )
        i_c = np.where(bat.clipped, residual_i, i_c)

        cap = bank.apply_power(v_c * i_c, dt)
        i_c_real = np.where(
            v_c > 1e-6, cap.power_w / np.maximum(v_c, 1e-30), 0.0
        )
        realized_cap_bus = cap.power_w - (i_c_real**2) * r_c

        delivered = bat.terminal_power_w + realized_cap_bus
        unmet = np.where(
            request_w > 0, np.maximum(0.0, request_w - delivered), 0.0
        )
        circuit_loss = (i_c_real**2) * r_c * dt

        return HEESStepResult(
            delivered_power_w=delivered,
            battery_power_w=bat.terminal_power_w,
            ultracap_power_w=cap.power_w,
            battery_cell_current_a=bat.cell_current_a,
            battery_heat_w=bat.heat_w,
            chem_energy_j=bat.chem_energy_j,
            cap_energy_j=cap.energy_j,
            converter_loss_j=circuit_loss,
            loss_increment_percent=bat.loss_increment_percent,
            unmet_power_w=unmet,
        )
