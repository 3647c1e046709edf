"""Shared utilities: unit conversions, numeric integration, validation.

These helpers are deliberately small and dependency-free (numpy only) so the
physics modules stay focused on the model equations from the paper.
"""

from repro.utils.units import (
    CELSIUS_ZERO,
    KMH_PER_MPS,
    ah_to_coulomb,
    celsius_to_kelvin,
    kelvin_to_celsius,
    kmh_to_mps,
    kwh_to_joule,
    joule_to_kwh,
    mps_to_kmh,
)
from repro.utils.integrate import (
    cumulative_trapezoid,
    euler_step,
    rk4_step,
    trapezoid,
)
from repro.utils.validation import (
    check_finite,
    check_in_range,
    check_positive,
    clamp,
)

__all__ = [
    "CELSIUS_ZERO",
    "KMH_PER_MPS",
    "ah_to_coulomb",
    "celsius_to_kelvin",
    "kelvin_to_celsius",
    "kmh_to_mps",
    "kwh_to_joule",
    "joule_to_kwh",
    "mps_to_kmh",
    "cumulative_trapezoid",
    "euler_step",
    "rk4_step",
    "trapezoid",
    "check_finite",
    "check_in_range",
    "check_positive",
    "clamp",
]
