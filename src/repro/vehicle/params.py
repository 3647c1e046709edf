"""Vehicle physical parameters.

The default preset targets a Tesla-Model-S-class sedan, the vehicle the paper
references for its battery pack (Section II-A).  Only aggregate longitudinal
parameters are needed by the backward model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_in_range, check_positive


@dataclass(frozen=True)
class VehicleParams:
    """Aggregate longitudinal-dynamics parameters of the EV.

    Attributes
    ----------
    mass_kg:
        Curb mass plus payload [kg].
    drag_coefficient:
        Aerodynamic drag coefficient Cd [-].
    frontal_area_m2:
        Projected frontal area [m^2].
    rolling_coefficient:
        Rolling-resistance coefficient Crr [-].
    wheel_inertia_factor:
        Rotating-mass factor multiplying the inertial force (>= 1).
    air_density_kgm3:
        Ambient air density [kg/m^3].
    auxiliary_power_w:
        Constant hotel load drawn from the bus (electronics, 12 V systems,
        cabin baseline) [W].
    max_motor_power_w:
        Motor electrical power ceiling [W].
    max_regen_power_w:
        Regenerative braking power ceiling at the bus [W] (positive number).
    regen_fraction:
        Fraction of braking energy that is recoverable before the motor map
        (friction brakes take the rest) [-], in [0, 1].
    """

    mass_kg: float = 2100.0
    drag_coefficient: float = 0.24
    frontal_area_m2: float = 2.34
    rolling_coefficient: float = 0.009
    wheel_inertia_factor: float = 1.05
    air_density_kgm3: float = 1.2
    auxiliary_power_w: float = 500.0
    max_motor_power_w: float = 160_000.0
    max_regen_power_w: float = 60_000.0
    regen_fraction: float = 0.6

    def __post_init__(self):
        check_positive(self.mass_kg, "mass_kg")
        check_positive(self.drag_coefficient, "drag_coefficient")
        check_positive(self.frontal_area_m2, "frontal_area_m2")
        check_positive(self.rolling_coefficient, "rolling_coefficient")
        check_in_range(self.wheel_inertia_factor, 1.0, 2.0, "wheel_inertia_factor")
        check_positive(self.air_density_kgm3, "air_density_kgm3")
        check_in_range(self.auxiliary_power_w, 0.0, 20_000.0, "auxiliary_power_w")
        check_positive(self.max_motor_power_w, "max_motor_power_w")
        check_positive(self.max_regen_power_w, "max_regen_power_w")
        check_in_range(self.regen_fraction, 0.0, 1.0, "regen_fraction")


#: Default preset: Tesla-Model-S-class sedan (mass, Cd, frontal area per the
#: public spec sheet the paper cites [26]).
MODEL_S_LIKE = VehicleParams()
