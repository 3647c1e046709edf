"""Vehicle-parameter validation tests."""

import pytest

from repro.vehicle.params import MODEL_S_LIKE, VehicleParams


class TestDefaults:
    def test_model_s_like_mass(self):
        assert MODEL_S_LIKE.mass_kg == pytest.approx(2100.0)

    def test_model_s_like_drag(self):
        assert MODEL_S_LIKE.drag_coefficient == pytest.approx(0.24)

    def test_regen_fraction_in_unit_interval(self):
        assert 0.0 <= MODEL_S_LIKE.regen_fraction <= 1.0


class TestValidation:
    def test_rejects_zero_mass(self):
        with pytest.raises(ValueError):
            VehicleParams(mass_kg=0.0)

    def test_rejects_negative_drag(self):
        with pytest.raises(ValueError):
            VehicleParams(drag_coefficient=-0.1)

    def test_rejects_inertia_factor_below_one(self):
        with pytest.raises(ValueError):
            VehicleParams(wheel_inertia_factor=0.9)

    def test_rejects_regen_fraction_above_one(self):
        with pytest.raises(ValueError):
            VehicleParams(regen_fraction=1.5)

    def test_rejects_negative_aux(self):
        with pytest.raises(ValueError):
            VehicleParams(auxiliary_power_w=-10.0)
