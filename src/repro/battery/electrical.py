"""Cell electrical model: Eq. 1 (SoC), Eq. 2 (Voc), Eq. 3 (R).

All functions are vectorized over SoC/temperature and are used both by the
plant (simulation) and by the OTEM MPC's prediction rollout, so they must be
cheap and smooth.
"""

from __future__ import annotations

import numpy as np

from repro.battery.params import CellParams, NCR18650A
from repro.utils.units import ah_to_coulomb


class BatteryElectrical:
    """Electrical model of a single cell.

    Parameters
    ----------
    params:
        Cell parameter set (defaults to the NCR18650A-class preset).
    """

    def __init__(self, params: CellParams = NCR18650A):
        self._p = params

    @property
    def params(self) -> CellParams:
        """Cell parameters in use."""
        return self._p

    # ------------------------------------------------------------------ #
    # Eq. 2: open-circuit voltage

    def open_circuit_voltage(self, soc_percent):
        """Open-circuit voltage Voc [V] at ``soc_percent`` in [0, 100] (Eq. 2)."""
        s = np.asarray(soc_percent, dtype=float)
        p = self._p
        return (
            p.voc_exp_a * np.exp(p.voc_exp_b * s)
            + p.voc_p4 * s**4
            + p.voc_p3 * s**3
            + p.voc_p2 * s**2
            + p.voc_p1 * s
            + p.voc_p0
        )

    # ------------------------------------------------------------------ #
    # Eq. 3: internal resistance, with Arrhenius temperature factor

    def internal_resistance(self, soc_percent, temp_k):
        """Internal resistance R [Ohm] at the given SoC [%] and temperature [K].

        Implements Eq. 3, ``r1 e^{r2 SoC} + r3``, with the paper's
        "temperature-sensitive r parameters" realized as a multiplicative
        Arrhenius factor: resistance grows as the cell cools, which is what
        makes pre-warming (not over-cooling) energetically relevant to OTEM.
        """
        s = np.asarray(soc_percent, dtype=float)
        t = np.asarray(temp_k, dtype=float)
        p = self._p
        base = p.res_exp_a * np.exp(p.res_exp_b * s) + p.res_base
        temp_factor = np.exp(p.res_temp_k * (1.0 / t - 1.0 / p.res_ref_temp_k))
        return base * temp_factor

    # ------------------------------------------------------------------ #
    # Eq. 1: SoC integration

    def soc_after(self, soc_percent: float, current_a: float, dt: float) -> float:
        """SoC [%] after drawing ``current_a`` for ``dt`` seconds (Eq. 1).

        Positive current discharges.  The result is not clipped; callers
        enforce constraint C4.
        """
        capacity_c = ah_to_coulomb(self._p.capacity_ah)
        return float(soc_percent - 100.0 * current_a * dt / capacity_c)

    # ------------------------------------------------------------------ #
    # terminal quantities

    def terminal_voltage(self, soc_percent, current_a, temp_k):
        """Terminal voltage V = Voc - I R [V] (positive current discharges)."""
        voc = self.open_circuit_voltage(soc_percent)
        res = self.internal_resistance(soc_percent, temp_k)
        return voc - np.asarray(current_a, dtype=float) * res

    def current_for_power(self, power_w: float, voc: float, res: float) -> float:
        """Cell current [A] that delivers ``power_w`` at the terminals.

        ``voc`` and ``res`` are the cell's open-circuit voltage [V] and
        internal resistance [Ohm] at its state (:meth:`open_circuit_voltage`,
        :meth:`internal_resistance`): the caller reads them once and reuses
        them for the step's terminal power and heat.

        Solves ``I (Voc - I R) = P`` for the physical (smaller-|I|) root.
        Positive power discharges, negative charges.  If the demanded power
        exceeds the cell's maximum transferable power ``Voc^2 / (4R)``, the
        current is capped at the maximum-power point ``Voc / (2R)`` - the
        plant cannot deliver more regardless of the controller's request.
        """
        if abs(power_w) < 1e-12:
            return 0.0
        disc = voc * voc - 4.0 * res * power_w
        if disc < 0.0:
            # demand beyond the maximum power point: cap at Voc / 2R
            return voc / (2.0 * res)
        return (voc - np.sqrt(disc)) / (2.0 * res)

    def max_discharge_power(self, voc, res):
        """Largest terminal power [W] deliverable at the current-limit (C6).

        ``voc`` and ``res`` as in :meth:`current_for_power`.  This is the
        power at ``I = max_current_a`` (the rating limit), not the
        theoretical maximum-power point, which would destroy the cell.
        """
        i_max = self._p.max_current_a
        return i_max * (voc - i_max * res)
