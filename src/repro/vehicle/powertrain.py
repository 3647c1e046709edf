"""Backward-facing powertrain: drive cycle -> electrical power request.

This is the ADVISOR substitute (see DESIGN.md).  The chain is:

    speed trace -> road loads (Glider) -> wheel power
                -> motor/inverter map (MotorDrive) -> DC-bus power
                -> + auxiliary hotel load -> P_e(t)

``P_e(t)`` is the trace consumed by every controller in this library,
including the OTEM MPC's preview window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.drivecycle.cycle import DriveCycle
from repro.vehicle.glider import Glider
from repro.vehicle.motor import MotorDrive
from repro.vehicle.params import MODEL_S_LIKE, VehicleParams


@dataclass(frozen=True)
class PowerRequest:
    """An electrical power-request trace at the DC bus.

    Attributes
    ----------
    cycle_name:
        Name of the originating drive cycle.
    dt:
        Sample period [s].
    power_w:
        Bus power [W]; positive = discharge demand, negative = regen.
    """

    cycle_name: str
    dt: float
    power_w: np.ndarray

    def __post_init__(self):
        power = np.asarray(self.power_w, dtype=float)
        if power.ndim != 1 or power.size < 2:
            raise ValueError("power_w must be a 1-D trace with at least 2 samples")
        object.__setattr__(self, "power_w", power)

    def __len__(self) -> int:
        return self.power_w.size

    @property
    def time_s(self) -> np.ndarray:
        """Sample times [s]."""
        return np.arange(len(self)) * self.dt

    @property
    def duration_s(self) -> float:
        """Trace duration [s]."""
        return (len(self) - 1) * self.dt

    def mean_power_w(self) -> float:
        """Time-averaged bus power [W] (net of regen)."""
        return float(np.mean(self.power_w))

    def mean_discharge_power_w(self) -> float:
        """Time-averaged discharge-only power [W] (regen samples count zero)."""
        return float(np.mean(np.clip(self.power_w, 0.0, None)))

    def peak_power_w(self) -> float:
        """Peak discharge power [W]."""
        return float(np.max(self.power_w))

    def energy_j(self) -> float:
        """Net electrical energy drawn over the trace [J]."""
        return float(np.trapezoid(self.power_w, dx=self.dt))


class Powertrain:
    """End-to-end drive-cycle-to-power-request model.

    Parameters
    ----------
    params:
        Vehicle parameters; defaults to the Model-S-class preset.
    motor:
        Optional pre-built :class:`MotorDrive` (defaults to one built from
        ``params``).
    """

    def __init__(self, params: VehicleParams = MODEL_S_LIKE, motor: MotorDrive | None = None):
        self._params = params
        self._glider = Glider(params)
        self._motor = motor if motor is not None else MotorDrive(params)

    @property
    def params(self) -> VehicleParams:
        """Vehicle parameters in use."""
        return self._params

    @property
    def glider(self) -> Glider:
        """Road-load model."""
        return self._glider

    @property
    def motor(self) -> MotorDrive:
        """Motor/inverter model."""
        return self._motor

    def power_request(
        self,
        cycle: DriveCycle,
        grade_rad: float = 0.0,
        hvac_load_w=None,
    ) -> PowerRequest:
        """Compute the DC-bus power-request trace for ``cycle``.

        Parameters
        ----------
        cycle:
            The drive cycle to follow.
        grade_rad:
            Constant road grade [rad] applied along the whole route.
        hvac_load_w:
            Optional per-sample climate-control load [W] (see
            :func:`repro.vehicle.hvac.hvac_load_profile`); added on top of
            the constant auxiliary power, truncated/zero-padded to the
            cycle length.
        """
        speed = cycle.speed_mps
        accel = cycle.acceleration_ms2()
        wheel = self._glider.wheel_power(speed, accel, grade_rad)
        bus = self._motor.electrical_power(wheel) + self._params.auxiliary_power_w
        if hvac_load_w is not None:
            hvac = np.asarray(hvac_load_w, dtype=float)
            if hvac.size < bus.size:
                hvac = np.concatenate([hvac, np.zeros(bus.size - hvac.size)])
            bus = bus + hvac[: bus.size]
        return PowerRequest(cycle_name=cycle.name, dt=cycle.dt, power_w=bus)
