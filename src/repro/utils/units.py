"""Unit conversions used throughout the library.

The model equations in the paper mix SI units (kelvin, watt, joule) with
automotive conventions (km/h, Ah, kWh).  Every public model API in this
library is SI-first; these converters live at the boundaries (drive-cycle
input, report rendering).
"""

from __future__ import annotations

import numpy as np

#: Offset between the Celsius and Kelvin scales.
CELSIUS_ZERO = 273.15

#: Kilometres-per-hour in one metre-per-second.
KMH_PER_MPS = 3.6

#: Seconds in one hour.
SECONDS_PER_HOUR = 3600.0

#: Ideal gas constant [J/(mol K)], used by the aging model (Eq. 5).
GAS_CONSTANT = 8.314462618


def kelvin_to_celsius(temp_k):
    """Convert a temperature from kelvin to degrees Celsius."""
    return np.asarray(temp_k, dtype=float) - CELSIUS_ZERO


def kmh_to_mps(speed_kmh):
    """Convert a speed from km/h to m/s."""
    return np.asarray(speed_kmh, dtype=float) / KMH_PER_MPS


def mps_to_kmh(speed_mps):
    """Convert a speed from m/s to km/h."""
    return np.asarray(speed_mps, dtype=float) * KMH_PER_MPS


def ah_to_coulomb(charge_ah):
    """Convert a charge from ampere-hours to coulombs."""
    return np.asarray(charge_ah, dtype=float) * SECONDS_PER_HOUR

