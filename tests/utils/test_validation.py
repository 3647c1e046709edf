"""Validation-helper tests."""

import math

import pytest

from repro.utils.validation import (
    check_finite,
    check_in_range,
    check_positive,
    clamp,
)


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
