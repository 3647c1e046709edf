"""Validation-helper tests."""

import math

import numpy as np
import pytest

from repro.utils.validation import (
    check_count,
    check_finite,
    check_in_range,
    check_positive,
    clamp,
)

#: Values that ``float()`` would convert but that are not numbers here.
NOT_NUMBERS = ["25000", "298", b"5", True, False, np.True_]


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive(1.5, "x") == 1.5

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="x"):
            check_positive(0.0, "x")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_positive(-1.0, "x")

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            check_positive(math.nan, "x")

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            check_positive(math.inf, "x")

    def test_coerces_int(self):
        assert check_positive(3, "x") == 3.0

    def test_accepts_numpy_scalars(self):
        assert check_positive(np.float64(2.5), "x") == 2.5
        assert check_positive(np.int64(4), "x") == 4.0

    @pytest.mark.parametrize("value", NOT_NUMBERS)
    def test_rejects_strings_and_bools(self, value):
        with pytest.raises(ValueError, match="x must be a number"):
            check_positive(value, "x")


class TestCheckInRange:
    def test_accepts_bounds(self):
        assert check_in_range(0.0, 0.0, 1.0, "x") == 0.0
        assert check_in_range(1.0, 0.0, 1.0, "x") == 1.0

    def test_rejects_outside(self):
        with pytest.raises(ValueError):
            check_in_range(1.1, 0.0, 1.0, "x")

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            check_in_range(math.nan, 0.0, 1.0, "x")

    def test_message_contains_name(self):
        with pytest.raises(ValueError, match="temperature"):
            check_in_range(-5.0, 0.0, 1.0, "temperature")

    @pytest.mark.parametrize("value", NOT_NUMBERS)
    def test_rejects_strings_and_bools(self, value):
        with pytest.raises(ValueError, match="x must be a number"):
            check_in_range(value, 0.0, 1e6, "x")


class TestCheckCount:
    @pytest.mark.parametrize("value", [1, 12, np.int64(3)])
    def test_accepts_integers_from_one(self, value):
        assert check_count(value, "n") == value

    @pytest.mark.parametrize("value", [0, -3, 2.5, 12.0, True, "12", None])
    def test_rejects_everything_else(self, value):
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            check_count(value, "n")


class TestCheckFinite:
    def test_accepts_finite_array(self):
        out = check_finite([1.0, 2.0], "x")
        assert out.tolist() == [1.0, 2.0]

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            check_finite([1.0, math.nan], "x")

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            check_finite([math.inf], "x")


class TestClamp:
    def test_inside(self):
        assert clamp(0.5, 0.0, 1.0) == 0.5

    def test_below(self):
        assert clamp(-1.0, 0.0, 1.0) == 0.0

    def test_above(self):
        assert clamp(2.0, 0.0, 1.0) == 1.0

    def test_inverted_bounds(self):
        with pytest.raises(ValueError):
            clamp(0.5, 1.0, 0.0)
