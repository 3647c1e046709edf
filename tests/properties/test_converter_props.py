"""Property-based tests for the DC/DC converter."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hees.converter import ConverterParams, DCDCConverter

CONV = DCDCConverter(ConverterParams())

voltage = st.floats(min_value=0.0, max_value=20.0)
power = st.floats(min_value=-60_000.0, max_value=60_000.0)


class TestEfficiencyInvariants:
    @given(voltage)
    def test_efficiency_bounded(self, v):
        eta = float(CONV.efficiency(v))
        assert CONV.params.eta_min <= eta <= CONV.params.eta_max

    @given(st.floats(min_value=0.0, max_value=16.0))
    def test_efficiency_nondecreasing_toward_vref(self, v):
        assert CONV.efficiency(v + 0.2) >= CONV.efficiency(v) - 1e-12


class TestTransferInvariants:
    @given(power, st.floats(min_value=1.0, max_value=16.2))
    def test_energy_conservation_direction(self, p, v):
        """Converters only lose energy: the receiving side gets less.

        Discharge (port -> bus): |bus| <= |port|.
        Charge (bus -> port): |port| <= |bus| (unless the bus demand was
        clipped at the rating first).
        """
        eta = CONV.efficiency(v)
        port = CONV.port_power_for_bus(p, eta)
        bus = CONV.bus_power_for_port(port, eta)
        if p >= 0:
            assert abs(bus) <= abs(port) + 1e-9
        elif abs(port) < CONV.params.max_power_w - 1e-9:
            assert abs(port) <= abs(p) + 1e-9

    @given(power, st.floats(min_value=1.0, max_value=16.2))
    def test_roundtrip_identity_within_rating(self, p, v):
        eta = CONV.efficiency(v)
        port = CONV.port_power_for_bus(p, eta)
        if abs(port) < CONV.params.max_power_w:  # not clipped
            assert CONV.bus_power_for_port(port, eta) == pytest.approx(p, rel=1e-9)

    @given(power, st.floats(min_value=1.0, max_value=16.2))
    def test_sign_preserved(self, p, v):
        port = CONV.port_power_for_bus(p, CONV.efficiency(v))
        assert port * p >= 0.0

    @given(power, st.floats(min_value=1.0, max_value=16.2))
    def test_port_clipped_at_rating(self, p, v):
        port = CONV.port_power_for_bus(p, CONV.efficiency(v))
        assert abs(port) <= CONV.params.max_power_w + 1e-9

    @given(power, st.floats(min_value=1.0, max_value=16.2))
    def test_loss_nonnegative(self, p, v):
        """A transfer's loss, port minus bus power, is never negative."""
        eta = CONV.efficiency(v)
        assert p - CONV.bus_power_for_port(p, eta) >= -1e-9


class TestArrayCalls:
    """One body serves the scalar plant and its lockstep twin."""

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-120_000.0, max_value=120_000.0),
                st.floats(min_value=0.0, max_value=20.0),
            ),
            min_size=2,
            max_size=40,
        )
    )
    def test_array_call_equals_float_calls_bitwise(self, points):
        powers = np.array([p for p, _ in points])
        etas = CONV.efficiency(np.array([v for _, v in points]))
        assert etas.tobytes() == np.array(
            [float(CONV.efficiency(v)) for _, v in points]
        ).tobytes()
        for method in (CONV.port_power_for_bus, CONV.bus_power_for_port):
            batch = np.asarray(method(powers, etas), dtype=float)
            each = np.array(
                [float(method(p, CONV.efficiency(v))) for p, v in points]
            )
            assert batch.shape == powers.shape
            assert batch.tobytes() == each.tobytes()
