"""Shared utilities: unit conversions and validation.

These helpers are deliberately small and dependency-free (numpy only) so the
physics modules stay focused on the model equations from the paper.
"""

from repro.utils.units import (
    CELSIUS_ZERO,
    KMH_PER_MPS,
    ah_to_coulomb,
    kelvin_to_celsius,
    kmh_to_mps,
    mps_to_kmh,
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
    "kelvin_to_celsius",
    "kmh_to_mps",
    "mps_to_kmh",
    "check_finite",
    "check_in_range",
    "check_positive",
    "clamp",
]
