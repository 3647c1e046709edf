"""Capacity-loss model tests (Eq. 5)."""

import numpy as np
import pytest

from repro.battery.aging import (
    END_OF_LIFE_LOSS_PERCENT,
    AgingModel,
    blt_equivalent_routes,
)


@pytest.fixture()
def aging():
    return AgingModel()


class TestLossRate:
    def test_zero_current_zero_rate(self, aging):
        assert aging.loss_rate(0.0, 298.15) == pytest.approx(0.0)

    def test_positive_for_discharge(self, aging):
        assert aging.loss_rate(2.0, 298.15) > 0

    def test_charge_ages_too(self, aging):
        assert aging.loss_rate(-2.0, 298.15) == pytest.approx(
            float(aging.loss_rate(2.0, 298.15))
        )

    def test_arrhenius_temperature_sensitivity(self, aging):
        cold = float(aging.loss_rate(2.0, 298.15))
        hot = float(aging.loss_rate(2.0, 308.15))
        # Ea = 60 kJ/mol -> ~2.2x per 10 K at room temperature
        assert 1.8 <= hot / cold <= 2.6

    def test_superlinear_in_current(self, aging):
        r1 = float(aging.loss_rate(1.0, 298.15))
        r2 = float(aging.loss_rate(2.0, 298.15))
        assert r2 > 2.0 * r1

    def test_current_exponent(self, aging):
        r1 = float(aging.loss_rate(1.0, 298.15))
        r4 = float(aging.loss_rate(4.0, 298.15))
        assert r4 / r1 == pytest.approx(4.0 ** aging.params.aging_current_exp, rel=1e-9)

    def test_vectorized(self, aging):
        out = aging.loss_rate(np.array([1.0, 2.0]), np.array([298.15, 298.15]))
        assert out.shape == (2,)


class TestAccumulation:
    def test_step_accumulates(self, aging):
        inc = aging.step(2.0, 308.15, 10.0)
        assert inc > 0
        assert aging.loss_percent == pytest.approx(inc)

    def test_two_steps_add(self, aging):
        a = aging.step(2.0, 308.15, 10.0)
        b = aging.step(2.0, 308.15, 10.0)
        assert aging.loss_percent == pytest.approx(a + b)

    def test_reset(self, aging):
        aging.step(2.0, 308.15, 10.0)
        aging.reset()
        assert aging.loss_percent == 0.0

    def test_rejects_nonpositive_dt(self, aging):
        with pytest.raises(ValueError):
            aging.step(2.0, 308.15, 0.0)

    def test_step_scales_linearly_with_dt(self):
        a = AgingModel()
        b = AgingModel()
        a.step(2.0, 308.15, 10.0)
        for _ in range(10):
            b.step(2.0, 308.15, 1.0)
        assert a.loss_percent == pytest.approx(b.loss_percent)


class TestLifetime:
    def test_blt_routes(self):
        assert blt_equivalent_routes(0.1) == pytest.approx(
            END_OF_LIFE_LOSS_PERCENT / 0.1
        )

    def test_blt_routes_zero_loss(self):
        assert blt_equivalent_routes(0.0) == float("inf")
