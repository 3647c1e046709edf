"""Coupled battery/coolant thermal integrator (Eq. 14-16, discretized Eq. 17).

States: battery temperature ``T_b`` and in-pack coolant temperature ``T_c``.
Control input: the coolant inlet temperature ``T_i``.  The engine clamps
the commanded inlet (:meth:`CoolingLoop.clamp_inlet`: the cooler never
heats, C2, and never exceeds its power ceiling, C3) and prices it
(:meth:`CoolingLoop.cooler_power_w`, Eq. 16) once per step, before the
plant step; the loop's step only advances the temperatures.

Discretization follows the paper's Eq. 17 (trapezoidal / Crank-Nicolson on
the exchange terms), which stays stable at the multi-second control periods
the MPC uses:

    C_b (T_b+ - T_b)/dt = h_cb ((T_c+ + T_c)/2 - (T_b+ + T_b)/2) + Q_b
    C_c (T_c+ - T_c)/dt = h_bc ((T_b+ + T_b)/2 - (T_c+ + T_c)/2)
                          + W_c (T_i - (T_c+ + T_c)/2)

a 2x2 linear system solved in closed form each step (:func:`solve_eq17`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cooling.coolant import DEFAULT_COOLANT, CoolantParams
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class CoolingStepResult:
    """Outcome of one thermal step: the two new temperatures.

    The applied inlet and the cooler and pump power are the engine's own
    values (:func:`repro.sim.engine.drive` clamps and prices the command
    before the plant step), so the step does not repeat them.

    Attributes
    ----------
    battery_temp_k:
        New pack temperature T_b+ [K].
    coolant_temp_k:
        New in-pack coolant temperature T_c+ [K].
    """

    battery_temp_k: float
    coolant_temp_k: float


def solve_eq17(
    tb, tc, upstream_k, heat_w, dt, cb, cc, h, wc, h_amb=0.0, ambient_k=0.0
):
    """Eq. 17: solve the trapezoidal 2x2 system for ``(T_b+, T_c+)``.

    ``cb``/``cc`` are the battery and coolant heat capacities [J/K], ``h``
    the battery-coolant exchange [W/K], ``wc`` the flow capacity rate
    [W/K] carrying ``upstream_k`` in, and ``h_amb`` the pack-surface
    convection to ``ambient_k`` (zero for a sealed pack).  Takes floats or
    per-column arrays; :class:`CoolingLoop` and each
    :class:`~repro.cooling.multinode.MultiNodeCoolingLoop` segment step
    through it.
    """
    a11 = cb / dt + h / 2.0 + h_amb / 2.0
    a12 = -h / 2.0
    b1 = (
        cb / dt * tb
        - h / 2.0 * (tb - tc)
        + heat_w
        + h_amb * (ambient_k - tb / 2.0)
    )
    # coolant row: flow term is wc*(T_i - (T_c+ + T_c)/2)
    a21 = -h / 2.0
    a22 = cc / dt + h / 2.0 + wc / 2.0
    b2 = cc / dt * tc + h / 2.0 * (tb - tc) + wc * upstream_k - wc / 2.0 * tc

    det = a11 * a22 - a12 * a21
    return (b1 * a22 - a12 * b2) / det, (a11 * b2 - a21 * b1) / det


class CoolingLoop:
    """Battery-pack cooling-loop dynamics.

    :meth:`clamp_inlet` and :meth:`cooler_power_w` turn a command into
    the applied inlet and its Eq. 16 price; :meth:`step` (floats) and
    :meth:`step_batch` (columns) advance Eq. 17 at an applied inlet.

    Parameters
    ----------
    params:
        Loop physical parameters.
    pack_heat_capacity_j_per_k:
        Lumped battery heat capacity C_b of Eq. 14 [J/K] (comes from the
        pack layout, ``PackConfig.heat_capacity_j_per_k``).
    """

    def __init__(
        self,
        params: CoolantParams = DEFAULT_COOLANT,
        pack_heat_capacity_j_per_k: float = 118_080.0,
    ):
        self._p = params
        self._cb = check_positive(
            pack_heat_capacity_j_per_k, "pack_heat_capacity_j_per_k"
        )

    @property
    def params(self) -> CoolantParams:
        """Loop parameters in use."""
        return self._p

    @property
    def pack_heat_capacity_j_per_k(self) -> float:
        """C_b of Eq. 14 [J/K]."""
        return self._cb

    # The two queries below are NumPy ufunc expressions: floats for the
    # scalar engine, per-column arrays for the lockstep engine.

    def clamp_inlet(self, inlet_temp_k: float, coolant_temp_k: float) -> float:
        """Apply constraints C2 (T_i <= T_o) and C3 (P_c <= P_c_max).

        The cooler's outlet-from-pack temperature T_o is the in-pack coolant
        temperature; the commanded inlet is limited to the drop the cooler
        can afford at its power ceiling, and can never be below the coldest
        producible inlet or above T_o (cooling only).
        """
        p = self._p
        coldest = np.maximum(
            p.min_inlet_temp_k, coolant_temp_k - p.max_inlet_drop_k(coolant_temp_k)
        )
        return np.minimum(np.maximum(inlet_temp_k, coldest), coolant_temp_k)

    def cooler_power_w(self, inlet_temp_k: float, coolant_temp_k: float) -> float:
        """Cooler electrical power for a given (already clamped) inlet (Eq. 16)."""
        drop = np.maximum(0.0, coolant_temp_k - inlet_temp_k)
        return self._p.flow_capacity_rate_w_per_k * drop / self._p.cooler_efficiency

    def step(
        self,
        battery_temp_k: float,
        coolant_temp_k: float,
        inlet_temp_k: float,
        pack_heat_w: float,
        dt: float,
        cooling_active: bool = True,
        passive_ambient: bool = False,
    ) -> CoolingStepResult:
        """Advance (T_b, T_c) one step of ``dt`` seconds.

        Parameters
        ----------
        battery_temp_k / coolant_temp_k:
            Current states.
        inlet_temp_k:
            Applied inlet temperature [K]: a command already passed
            through :meth:`clamp_inlet`.
        pack_heat_w:
            Heat generated by the pack this step, Q_b of Eq. 14 [W].
        dt:
            Step duration [s].
        cooling_active:
            When False (architectures without an active cooler), the flow
            term is dropped: the coolant merely recirculates and the pack
            is adiabatic apart from the coolant mass.
        passive_ambient:
            True for architectures *without* an installed cooling system
            (air-exposed pack): adds surface convection
            ``passive_h * (T_amb - T_b)`` to the battery energy balance.
            Sealed, actively-cooled packs keep this False.
        """
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        p = self._p
        wc = p.flow_capacity_rate_w_per_k if cooling_active else 0.0
        h_amb = p.passive_h_w_per_k if passive_ambient else 0.0
        return CoolingStepResult(
            *solve_eq17(
                battery_temp_k, coolant_temp_k, inlet_temp_k, pack_heat_w, dt,
                self._cb, p.coolant_heat_capacity_j_per_k,
                p.h_battery_coolant_w_per_k, wc, h_amb, p.ambient_temp_k,
            )
        )

    def step_batch(
        self,
        battery_temp_k: np.ndarray,
        coolant_temp_k: np.ndarray,
        inlet_temp_k: np.ndarray,
        pack_heat_w: np.ndarray,
        dt: float,
        cooling_active: np.ndarray,
        passive_ambient: bool = False,
    ) -> CoolingStepResult:
        """Vectorized :meth:`step` advancing M scenario columns at once.

        ``cooling_active`` is a per-column boolean mask (thermostats across
        the batch disagree); ``passive_ambient`` stays a scalar because the
        architecture - and with it the air exposure of the pack - is uniform
        within a lockstep group.  Each column reproduces the scalar
        trapezoidal solve bitwise.
        """
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        p = self._p
        wc = np.where(cooling_active, p.flow_capacity_rate_w_per_k, 0.0)
        h_amb = p.passive_h_w_per_k if passive_ambient else 0.0
        return CoolingStepResult(
            *solve_eq17(
                battery_temp_k, coolant_temp_k, inlet_temp_k, pack_heat_w, dt,
                self._cb, p.coolant_heat_capacity_j_per_k,
                p.h_battery_coolant_w_per_k, wc, h_amb, p.ambient_temp_k,
            )
        )

    def equilibrium_battery_temp_k(self, pack_heat_w: float, inlet_temp_k: float) -> float:
        """Steady-state T_b for constant heat and inlet (analysis helper).

        At equilibrium, all of Q_b flows to the coolant and out with the
        stream:  T_c = T_i + Q/W_c,  T_b = T_c + Q/h.
        """
        p = self._p
        tc = inlet_temp_k + pack_heat_w / p.flow_capacity_rate_w_per_k
        return tc + pack_heat_w / p.h_battery_coolant_w_per_k
