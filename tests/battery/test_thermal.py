"""Heat-generation tests (Eq. 4)."""

import numpy as np
import pytest

from repro.battery.electrical import BatteryElectrical
from repro.battery.params import NCR18650A
from repro.battery.thermal import heat_generation_w


class TestHeatGeneration:
    def test_zero_current_zero_heat(self):
        assert heat_generation_w(0.0, 50.0, 298.15) == pytest.approx(0.0)

    def test_discharge_generates_heat(self):
        assert heat_generation_w(3.0, 50.0, 298.15) > 0

    def test_charge_also_generates_heat(self):
        # Joule term is quadratic: charging heats too
        assert heat_generation_w(-3.0, 50.0, 298.15) > 0

    def test_quadratic_joule_dominates(self):
        q1 = heat_generation_w(2.0, 50.0, 298.15)
        q2 = heat_generation_w(4.0, 50.0, 298.15)
        assert q2 > 3.0 * q1  # superlinear growth

    def test_joule_term_matches_i2r(self):
        model = BatteryElectrical(NCR18650A)
        i = 5.0
        res = float(model.internal_resistance(50.0, 298.15))
        expected_joule = i * i * res
        entropic = i * 298.15 * NCR18650A.entropy_coeff_v_per_k
        q = heat_generation_w(i, 50.0, 298.15)
        assert q == pytest.approx(expected_joule + entropic)

    def test_entropic_sign_flips_with_current(self):
        # difference between +-I isolates the entropic (odd) term
        q_pos = float(heat_generation_w(1.0, 50.0, 298.15))
        q_neg = float(heat_generation_w(-1.0, 50.0, 298.15))
        odd = (q_pos - q_neg) / 2.0
        assert odd == pytest.approx(298.15 * NCR18650A.entropy_coeff_v_per_k, rel=1e-9)

    def test_hot_cell_generates_less_joule_heat(self):
        # R falls with temperature, so same current -> less heat
        cold = heat_generation_w(5.0, 50.0, 283.15)
        hot = heat_generation_w(5.0, 50.0, 313.15)
        assert hot < cold

    def test_vectorized(self):
        out = heat_generation_w(np.array([1.0, 2.0, 3.0]), 50.0, 298.15)
        assert out.shape == (3,)
        assert np.all(np.diff(out) > 0)

