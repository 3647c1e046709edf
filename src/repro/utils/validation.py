"""Input validation helpers.

Model constructors validate their physical parameters eagerly so that a bad
configuration fails at build time with a precise message instead of producing
NaNs ten thousand simulation steps later.
"""

from __future__ import annotations

import math
import numbers

import numpy as np


def _as_number(value, name: str) -> float:
    """``value`` as a float; a string or a bool is refused, not converted."""
    if isinstance(value, (str, bytes, bool, np.bool_)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def check_positive(value: float, name: str) -> float:
    """Raise ``ValueError`` unless ``value`` is a finite, strictly positive number."""
    value = _as_number(value, name)
    if not math.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be a finite positive number, got {value}")
    return value


def check_in_range(value: float, low: float, high: float, name: str) -> float:
    """Raise ``ValueError`` unless ``low <= value <= high``."""
    value = _as_number(value, name)
    if not math.isfinite(value) or not (low <= value <= high):
        raise ValueError(f"{name} must be in [{low}, {high}], got {value}")
    return value


def check_count(value: int, name: str, minimum: int = 1) -> int:
    """Raise ``ValueError`` unless ``value`` is an integer >= ``minimum``.

    A bool or a float (even ``2.0``) is refused, not converted: a count
    that is not an ``int`` fails later, where it is used, or acts as 1.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Integral)
        or value < minimum
    ):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


def check_finite(values, name: str):
    """Raise ``ValueError`` if any entry of ``values`` is NaN or infinite."""
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def clamp(value: float, low: float, high: float) -> float:
    """Clip ``value`` into ``[low, high]``."""
    if low > high:
        raise ValueError(f"clamp bounds inverted: [{low}, {high}]")
    return min(max(value, low), high)
