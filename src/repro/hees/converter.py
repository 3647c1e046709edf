"""DC/DC converter with voltage-dependent efficiency (Section II-C.2).

The paper's key observation: converter efficiency drops as the port voltage
sags - overusing the ultracapacitor (deep SoE, low Vcap) makes every
transferred joule more expensive.  OTEM sees this through the efficiency
model below; the baselines do not.

Model:  eta(V) = eta_max - droop * (1 - V / V_ref)^2, clipped at eta_min.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_in_range, check_positive


@dataclass(frozen=True)
class ConverterParams:
    """Efficiency-curve parameters of one DC/DC converter port.

    Attributes
    ----------
    eta_max:
        Peak efficiency, reached at V = V_ref [-].
    eta_min:
        Efficiency floor [-].
    droop:
        Quadratic sensitivity to relative voltage sag [-].
    v_ref:
        Reference (rated) port voltage [V].
    max_power_w:
        Converter power rating [W] (both directions).
    """

    eta_max: float = 0.95
    eta_min: float = 0.80
    droop: float = 0.40
    v_ref: float = 16.2
    max_power_w: float = 60_000.0

    def __post_init__(self):
        check_in_range(self.eta_max, 0.5, 1.0, "eta_max")
        check_in_range(self.eta_min, 0.3, self.eta_max, "eta_min")
        check_in_range(self.droop, 0.0, 5.0, "droop")
        check_positive(self.v_ref, "v_ref")
        check_positive(self.max_power_w, "max_power_w")


class DCDCConverter:
    """One converter port between a storage element and the DC bus."""

    def __init__(self, params: ConverterParams):
        self._p = params

    @property
    def params(self) -> ConverterParams:
        """Converter parameters in use."""
        return self._p

    def efficiency(self, port_voltage_v):
        """Conversion efficiency eta_DC [-] at the given port voltage."""
        p = self._p
        v = np.asarray(port_voltage_v, dtype=float)
        sag = 1.0 - v / p.v_ref
        eta = p.eta_max - p.droop * sag**2
        return np.minimum(np.maximum(eta, p.eta_min), p.eta_max)

    def port_power_for_bus(self, bus_power_w, eta):
        """Storage-side power needed to realize ``bus_power_w`` at the bus.

        ``eta`` is :meth:`efficiency` at the port's voltage: a plant step
        evaluates it once per port and hands it to every transfer of that
        port.  Positive = storage discharging into the bus (storage
        supplies ``bus / eta``); negative = bus charging the storage
        (storage receives ``bus * eta``); clipped at the converter rating
        on the port side.  Floats in, float out; per-column arrays in,
        array out.
        """
        port = np.where(bus_power_w >= 0, bus_power_w / eta, bus_power_w * eta)
        rating = self._p.max_power_w
        return np.minimum(np.maximum(port, -rating), rating)

    def bus_power_for_port(self, port_power_w, eta):
        """Bus-side power realized by ``port_power_w`` at the storage port.

        ``eta`` as in :meth:`port_power_for_bus`; the transfer's loss is
        ``port_power_w`` minus the result.
        """
        rating = self._p.max_power_w
        port = np.minimum(np.maximum(port_power_w, -rating), rating)
        # [()] unwraps np.where's 0-d result for float inputs
        return np.where(port >= 0, port * eta, port / eta)[()]
