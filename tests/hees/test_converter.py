"""DC/DC converter tests (Section II-C.2)."""

import numpy as np
import pytest

from repro.hees.converter import ConverterParams, DCDCConverter


@pytest.fixture()
def conv():
    return DCDCConverter(ConverterParams())


class TestEfficiencyCurve:
    def test_peak_at_reference_voltage(self, conv):
        p = conv.params
        assert conv.efficiency(p.v_ref) == pytest.approx(p.eta_max)

    def test_sags_at_low_voltage(self, conv):
        p = conv.params
        assert conv.efficiency(0.5 * p.v_ref) < p.eta_max

    def test_floor(self, conv):
        assert conv.efficiency(0.0) == pytest.approx(conv.params.eta_min)

    def test_monotone_toward_reference(self, conv):
        p = conv.params
        vs = np.linspace(0.3 * p.v_ref, p.v_ref, 50)
        eta = conv.efficiency(vs)
        assert np.all(np.diff(eta) >= -1e-12)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            ConverterParams(eta_max=1.2)
        with pytest.raises(ValueError):
            ConverterParams(eta_min=0.99, eta_max=0.95)
        with pytest.raises(ValueError):
            ConverterParams(v_ref=0.0)


class TestPowerTransfer:
    """Transfers take the port's efficiency, evaluated once per port."""

    def test_discharge_port_exceeds_bus(self, conv):
        port = conv.port_power_for_bus(10_000.0, conv.efficiency(conv.params.v_ref))
        assert port > 10_000.0

    def test_charge_port_below_bus(self, conv):
        port = conv.port_power_for_bus(-10_000.0, conv.efficiency(conv.params.v_ref))
        assert -10_000.0 < port < 0.0

    def test_roundtrip_consistency_discharge(self, conv):
        eta = conv.efficiency(conv.params.v_ref)
        port = conv.port_power_for_bus(10_000.0, eta)
        assert conv.bus_power_for_port(port, eta) == pytest.approx(10_000.0)

    def test_roundtrip_consistency_charge(self, conv):
        eta = conv.efficiency(0.8 * conv.params.v_ref)
        port = conv.port_power_for_bus(-10_000.0, eta)
        assert conv.bus_power_for_port(port, eta) == pytest.approx(-10_000.0)

    def test_port_power_clipped_at_rating(self, conv):
        port = conv.port_power_for_bus(1e9, conv.efficiency(conv.params.v_ref))
        assert port == conv.params.max_power_w

    def test_zero_power(self, conv):
        eta = conv.efficiency(conv.params.v_ref)
        assert conv.port_power_for_bus(0.0, eta) == 0.0
        assert conv.bus_power_for_port(0.0, eta) == 0.0

    def test_low_voltage_transfer_is_more_expensive(self, conv):
        v_ref = conv.params.v_ref
        p_hi = conv.port_power_for_bus(10_000.0, conv.efficiency(v_ref))
        p_lo = conv.port_power_for_bus(10_000.0, conv.efficiency(0.5 * v_ref))
        assert p_lo > p_hi

    # a transfer's loss is its port power minus its bus power, as the
    # hybrid plant books it in converter_loss_j

    def test_loss_positive(self, conv):
        eta = conv.efficiency(conv.params.v_ref)
        assert 10_000.0 - conv.bus_power_for_port(10_000.0, eta) > 0

    def test_loss_matches_efficiency(self, conv):
        eta = float(conv.efficiency(conv.params.v_ref))
        loss = 10_000.0 - conv.bus_power_for_port(10_000.0, eta)
        assert loss == pytest.approx(10_000.0 * (1 - eta))
