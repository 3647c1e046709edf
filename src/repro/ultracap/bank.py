"""Ultracapacitor bank state and stepping (Eq. 6-9).

The bank tracks State-of-Energy (SoE); voltage follows
``Vcap = V_r sqrt(SoE/100)`` (Eq. 8) and energy integrates
``Vcap * Icap`` (Eq. 9).  Power transfer is limited by the rated power
(constraint C7) and by the C5 SoE window - a depleted bank delivers
nothing, a full bank accepts nothing.  Both limits are one query,
:meth:`UltracapBank.window`, read once per bank state and handed to
:meth:`UltracapBank.apply_power`, which reads no state of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from repro.ultracap.params import UltracapParams
from repro.utils.validation import check_in_range


@dataclass(frozen=True)
class UltracapStepResult:
    """Outcome of one step of the bank.

    :class:`UltracapBank` fills each field with a float;
    :class:`UltracapBankVec` with one array entry per column.  A clip shows
    as ``power_w`` below the request.

    Attributes
    ----------
    power_w:
        Power actually transferred at the bank terminals [W]
        (positive = discharge), after the C5/C7 clips.
    energy_j:
        Energy removed from the bank this step [J]; this is the ``dE_cap``
        of the paper's Eq. 19 (negative while recharging).
    """

    power_w: float
    energy_j: float


class UltracapBank:
    """Ultracapacitor bank with SoE state.

    Parameters
    ----------
    params:
        Bank parameters.
    initial_soe_percent:
        Starting SoE [%] (Algorithm 1 initializes at 100).
    """

    def __init__(self, params: UltracapParams, initial_soe_percent: float = 100.0):
        check_in_range(initial_soe_percent, 0.0, 100.0, "initial_soe_percent")
        self._p = params
        self._soe = float(initial_soe_percent)

    @property
    def params(self) -> UltracapParams:
        """Bank parameters in use."""
        return self._p

    @property
    def soe_percent(self) -> float:
        """State of energy [%]."""
        return self._soe

    @property
    def energy_j(self) -> float:
        """Stored energy [J]."""
        return self._soe / 100.0 * self._p.energy_capacity_j

    # The queries below are NumPy ufunc expressions, so the lockstep twin
    # (:class:`UltracapBankVec`) inherits them: a float here, one entry per
    # column there.

    def voltage(self) -> float:
        """Terminal voltage Vcap [V] (Eq. 8) at the current SoE."""
        return self._p.rated_voltage_v * np.sqrt(np.maximum(self._soe, 0.0) / 100.0)

    def headroom_j(self) -> float:
        """Energy the bank can still absorb before hitting SoE-max [J]."""
        return (
            np.maximum(0.0, self._p.soe_max_percent - self._soe)
            / 100.0
            * self._p.energy_capacity_j
        )

    def available_j(self) -> float:
        """Energy deliverable before the C5 floor [J] (management view).

        Zero (not negative) when the bank already sits below the floor -
        a below-floor bank must never turn a discharge request into a
        phantom charge.
        """
        return (
            np.maximum(0.0, self._soe - self._p.soe_min_percent)
            / 100.0
            * self._p.energy_capacity_j
        )

    def reserve_j(self) -> float:
        """Emergency energy between the C5 floor and the hard floor [J]."""
        floor = np.minimum(self._soe, self._p.soe_min_percent)
        return (
            np.maximum(0.0, floor - self._p.soe_hard_min_percent)
            / 100.0
            * self._p.energy_capacity_j
        )

    def window(self, dt: float, tap_reserve: bool = False) -> tuple[float, float]:
        """The C5/C7 window ``(charge_w, discharge_w)`` for a step of ``dt``.

        Each side [W, positive] is the rated power (C7) or the energy left
        before the C5 bound spread over ``dt``, whichever is smaller; a
        ``dt <= 0`` step moves nothing.  ``tap_reserve`` widens the
        discharge side down to the hard floor: the hybrid plant's emergency
        pass, so a management constraint never starves the EV load.
        """
        charge = discharge = 0.0
        if dt > 0:
            charge = self.headroom_j() / dt
            discharge = self.available_j()
            if tap_reserve:
                discharge = discharge + self.reserve_j()
            discharge = discharge / dt
        rating = self._p.max_power_w
        return np.minimum(rating, charge), np.minimum(rating, discharge)

    def apply_power(
        self, power_w: float, dt: float, window: tuple[float, float]
    ) -> UltracapStepResult:
        """Transfer ``power_w`` for ``dt`` seconds (positive = discharge).

        The transfer is clipped into ``window``, the :meth:`window` of the
        state the step starts from; energy bookkeeping uses Eq. 9, the
        bank's small series resistance neglected as in the paper.
        """
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        charge_w, discharge_w = window
        power = min(max(power_w, -charge_w), discharge_w)
        energy = power * dt
        self._soe = 100.0 * (self.energy_j - energy) / self._p.energy_capacity_j
        return UltracapStepResult(power_w=power, energy_j=energy)

    def reset(self, soe_percent: float = 100.0):
        """Restore initial conditions."""
        check_in_range(soe_percent, 0.0, 100.0, "soe_percent")
        self._soe = float(soe_percent)


# ---------------------------------------------------------------------- #
# lockstep (struct-of-arrays) twin


#: The :class:`UltracapParams` fields the bank and the plants read, stacked
#: one entry per column by :class:`UltracapBankVec`.
_COLUMN_FIELDS = (
    "rated_voltage_v",
    "internal_resistance_ohm",
    "max_power_w",
    "energy_capacity_j",
    "soe_min_percent",
    "soe_max_percent",
    "soe_hard_min_percent",
)


class UltracapBankVec(UltracapBank):
    """Struct-of-arrays ultracap bank advancing M scenarios in lockstep.

    Unlike the battery pack, bank parameters vary across a sweep (the
    paper's Table I sizes), so :attr:`params` holds each field the bank and
    the plants read as a per-column array; SoE is per-column state.  Every
    query, :meth:`window` included, is inherited from :class:`UltracapBank`;
    :meth:`apply_power` adds only its ``active`` mask, so each column is
    bitwise-identical to a scalar bank run.  Every column starts full
    (SoE 100 %), as every route does; :meth:`reset` sets other SoEs.
    """

    def __init__(self, params):
        params = list(params)
        self._p = SimpleNamespace(
            **{
                name: np.array([getattr(p, name) for p in params])
                for name in _COLUMN_FIELDS
            }
        )
        self._soe = np.full(len(params), 100.0)

    def reset(self, soe_percent) -> None:
        """Restore per-column initial SoE."""
        soe = np.asarray(soe_percent, dtype=float)
        self._soe = np.broadcast_to(soe, self._soe.shape).astype(float).copy()

    def apply_power(
        self,
        power_w: np.ndarray,
        dt: float,
        window: tuple[np.ndarray, np.ndarray],
        active=None,
    ) -> UltracapStepResult:
        """Vectorized :meth:`UltracapBank.apply_power` over all columns.

        ``active`` (optional boolean mask) restricts the update to a subset
        of columns: inactive columns keep their exact SoE bit pattern and
        report zero power and energy - the lockstep equivalent of the
        scalar plants *not calling* ``apply_power`` on a branch.  The clip
        selects with ``np.where``, so a zero keeps its scalar sign.
        """
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        charge_w, discharge_w = window
        power = np.where(
            power_w > discharge_w,
            discharge_w,
            np.where(power_w < -charge_w, -charge_w, power_w),
        )
        energy = power * dt
        new_soe = 100.0 * (self.energy_j - energy) / self._p.energy_capacity_j
        if active is None:
            self._soe = new_soe
        else:
            self._soe = np.where(active, new_soe, self._soe)
            power = np.where(active, power, 0.0)
            energy = np.where(active, energy, 0.0)
        return UltracapStepResult(power_w=power, energy_j=energy)
